"""Factorization setups and the exceptional pushforward.

A setup carries two extra marked classes: open-like maps I whose pullback
functors have left adjoints, and proper-like maps P with right adjoints.
Every marked map factors through both, and the exceptional map is the
composite of the proper pushforward after the open extension.  All theorem
content (hypotheses, independence of factorization, base change, assembly
into a functor on the homotopy span category) is verified elementwise.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .lattices import (
    CoefficientSystem,
    LatticeMap,
    SquareData,
    _compose,
    _first_difference,
    check_adjointable,
    compose_maps,
    left_adjoint,
    projection_witness,
    right_adjoint,
)
from .report import MalformedInputError, VerificationReport
from .setups import EdgeClass, GeometricSetup, NagataSetup, merge_sub_setup

if TYPE_CHECKING:
    from .spans import HCorr, Span


def check_nagata(ns: NagataSetup) -> VerificationReport:
    """The four axioms, each exhaustive with a witness on failure."""
    rep = VerificationReport("nagata-setup")
    c = ns.setup.category
    for label, cls in (("i", ns.i_class), ("p", ns.p_class)):
        merge_sub_setup(rep, f"{label}-class-geometric-setup", GeometricSetup(c, cls), "nagata-axiom-1")
    missing = [f for f in sorted(ns.setup.e.members) if not factorizations(ns, f)]
    rep.add(
        "factorization-exists",
        not missing,
        {"morphism": missing[0]} if missing else {},
        anchor="nagata-axiom-2",
    )
    into = c._in_index
    for label, cls in (("i", ns.i_class), ("p", ns.p_class)):

        def fails_to_cancel(pair):
            h = c.composite(*pair)
            if (pair[1] in cls.members) != (h in cls.members):
                return {"pair": list(pair), "composite": h}

        # (g, f) with g a member, in `composable_pairs` order; each composite read once
        pairs = ((g, f) for g in c.morphism_ids if g in cls.members for f in into.get(c.morphisms[g][0], ()))
        rep.sweep(f"cancellation-{label}", pairs, fails_to_cancel, anchor="nagata-axiom-3")
    overlap = ns.i_class.members & ns.p_class.members
    bad = sorted(overlap - set(c.mono_ids))
    rep.add(
        "overlap-is-truncated",
        not bad,
        {"morphism": bad[0]} if bad else {},
        anchor="nagata-axiom-4",
    )
    return rep


def factorizations(ns: NagataSetup, f: str) -> list[tuple[str, str, str]]:
    """All factorizations f = p . j through a carrier object k, with j
    open-like and p proper-like, as sorted (k, j, p): the canonical (least)
    one first."""
    c = ns.setup.category
    x, y = c.morphisms[f]
    if (x, y) not in ns._factorizations:
        # one scan per hom-set indexes every composite p . j it reaches
        index: dict[str, list] = {}
        for k in c.objects:
            # the hom-sets type every pair, and each composite is read once
            ps = [p for p in c.hom(k, y) if p in ns.p_class.members]
            for j in c.hom(x, k):
                if j in ns.i_class.members:
                    for p in ps:
                        index.setdefault(c.composite(p, j), []).append((k, j, p))
        ns._factorizations[(x, y)] = {h: sorted(facts) for h, facts in index.items()}
    return list(ns._factorizations[(x, y)].get(f, ()))


class ShriekAssignment:
    """One exceptional map per marked morphism."""

    def __init__(self, ns: NagataSetup, sys: CoefficientSystem, shriek: dict):
        self.ns, self.sys, self.shriek = ns, sys, shriek
        c = self.ns.setup.category
        for f in self.ns.setup.e.members:
            m = self.shriek.get(f)
            x, y = c.morphisms[f]
            if m is None or m.src != self.sys.lattice(x) or m.dst != self.sys.lattice(y):
                raise MalformedInputError(f"exceptional map for {f!r} missing or mistyped")


def _sharp(sys: CoefficientSystem, f: str) -> LatticeMap:
    adj = left_adjoint(sys.pull(f))
    if adj is None:
        raise MalformedInputError(f"pullback along {f!r} has no left adjoint")
    return adj


def _star(sys: CoefficientSystem, f: str) -> LatticeMap:
    adj = right_adjoint(sys.pull(f))
    if adj is None:
        raise MalformedInputError(f"pullback along {f!r} has no right adjoint")
    return adj


def build_shriek(ns: NagataSetup, sys: CoefficientSystem) -> ShriekAssignment:
    """The exceptional map along the canonical factorization.

    The axioms (`check_nagata`), hypotheses (`verify_hypotheses`) and class
    consistency of the result (`check_class_consistency`) are not checked
    here: the caller that reports them gates construction.
    """
    shriek = {}
    for f in sorted(ns.setup.e.members):
        facts = factorizations(ns, f)
        if not facts:
            raise MalformedInputError(f"no factorization for {f!r}")
        _, j, p = facts[0]
        shriek[f] = compose_maps(_star(sys, p), _sharp(sys, j))
    return ShriekAssignment(ns, sys, shriek)


def check_class_consistency(sa: ShriekAssignment) -> VerificationReport:
    """Open-like maps get the left adjoint, proper-like maps the right one."""
    rep = VerificationReport("shriek-class-consistency")

    def inconsistent(f):
        if f in sa.ns.i_class.members and not sa.shriek[f].same_table(_sharp(sa.sys, f)):
            return {"morphism": f, "class": "open-like"}
        if f in sa.ns.p_class.members and not sa.shriek[f].same_table(_star(sa.sys, f)):
            return {"morphism": f, "class": "proper-like"}

    rep.sweep("class-consistency", sorted(sa.ns.setup.e.members), inconsistent, anchor="shriek-on-marked-classes")
    return rep


# -- hypothesis suite -----------------------------------------------------


def _square_id(sq) -> dict:
    right, top, bottom, left = sq
    return {"cospan": [right, top], "base-changes": [bottom, left]}


def cartesian_squares(ns: NagataSetup, a: EdgeClass, b: EdgeClass) -> list[tuple[str, str, str, str]]:
    """The cartesian squares with legs in marked classes a and b, as
    (right, top, bottom, left): right and bottom lie in a, top and left in
    b, and the cospan is (right, top).  They are the squares of
    `enumerate_grid_simplices(s, [a, b], 2, 1)`, in the same order: both
    are read off the pullback cones of `GeometricSetup.cones`.

    The squares are built once, over the union of the marked classes, and
    filtered for each pair of classes."""
    if ns._squares is None:
        ns._squares = _construct_squares(ns)
    return [
        sq
        for sq in ns._squares
        if sq[0] in a.members and sq[2] in a.members and sq[1] in b.members and sq[3] in b.members
    ]


def _construct_squares(ns: NagataSetup) -> list[tuple[str, str, str, str]]:
    """Every cartesian square whose four legs are marked: over each marked
    cospan, its pullback cones (`GeometricSetup.cones`) with marked legs.
    They are sorted in the order of `enumerate_grid_simplices`: the apex,
    then left, bottom and the cospan, each vertex's object, by its position
    in `objects`, before the edges into it.  Edges between the same
    objects compare by id, as their hom-set positions do."""
    s = ns.setup
    c = s.category
    marked = s.e.members | ns.i_class.members | ns.p_class.members
    position = {x: i for i, x in enumerate(c.objects)}
    keyed = []
    for z, into in c._in_index.items():
        legs = [m for m in into if m in marked]
        for right in legs:
            x = position[c.src(right)]
            for top in legs:
                y = position[c.src(top)]
                # (right, top) is the order the setup suite's stability
                # check asks the oracle in, so its entries are reused here
                for w, left, bottom in s.cones(right, top):
                    if bottom in marked and left in marked:
                        key = (position[w], x, left, y, bottom, position[z], right, top)
                        keyed.append((key, (right, top, bottom, left)))
    return [sq for _, sq in sorted(keyed)]


def _projection_failure(sys: CoefficientSystem, f: str, push: LatticeMap, relation: str) -> dict | None:
    """`projection_witness` for f and push, under the morphism it names."""
    found = projection_witness(sys, f, push, relation)
    return None if found is None else {"morphism": f, "witness": found}


def _mate_witness(side: str, square, sq: SquareData) -> dict | None:
    sub = check_adjointable(sq, side)
    return None if sub.passed else {"square": _square_id(square), "witness": sub.first_failure().witness}


def verify_hypotheses(ns: NagataSetup, sys: CoefficientSystem) -> VerificationReport:
    """Projection formulas per class, base change per class, and the
    support property, the last three quantified over every cartesian
    square with legs in the relevant edge classes."""
    rep = VerificationReport("shriek-hypotheses")
    # a projection formula says the comparison map is invertible, which
    # between posets is equality, as the model suite checks; the star side
    # still checks only the inequality every right adjoint satisfies
    # (ROADMAP item 22)
    for flavor, cls, push, relation in (("sharp", ns.i_class, _sharp, "=="), ("star", ns.p_class, _star, ">=")):
        name = f"projection-formula-{flavor}"
        rep.sweep(
            name,
            sorted(cls.members),
            lambda f: _projection_failure(sys, f, push(sys, f), relation),
            anchor=name,
            counts=lambda morphisms, _: {"morphisms": morphisms},
        )

    for cls, side, name in ((ns.i_class, "left", "i-base-change"), (ns.p_class, "right", "p-base-change")):

        def mate(square):
            right, top, bottom, left = square
            sq = SquareData(p=sys.pull(right), u=sys.pull(top), v=sys.pull(left), q=sys.pull(bottom))
            return _mate_witness(side, square, sq)

        squares = cartesian_squares(ns, cls, ns.setup.e)
        rep.sweep(name, squares, mate, anchor=f"{name}-adjointable", counts={"squares": len(squares)})

    def support(square):
        j, p, j2, p2 = square
        try:
            # commuting here is exactly left base change for this square
            sq = SquareData(p=sys.pull(p2), u=_sharp(sys, j), v=_sharp(sys, j2), q=sys.pull(p))
        except MalformedInputError as e:
            return {"square": _square_id(square), "witness": str(e)}
        return _mate_witness("right", square, sq)

    squares = cartesian_squares(ns, ns.i_class, ns.p_class)
    rep.sweep("support-property", squares, support, anchor="support-property-square", counts={"squares": len(squares)})
    return rep


def check_independence(ns: NagataSetup, sys: CoefficientSystem, f: str) -> VerificationReport:
    """Every factorization must induce the same exceptional map as the
    canonical one; the witness names the disagreeing factorization."""
    rep = VerificationReport("shriek-independence")
    facts = factorizations(ns, f)
    if not facts:
        raise MalformedInputError(f"no factorization for {f!r}")
    _, j, p = facts[0]
    canonical = _compose(_star(sys, p).targets, _sharp(sys, j).targets)

    def disagrees(fact):
        k, j, p = fact
        star, sharp = _star(sys, p), _sharp(sys, j)
        got = _compose(star.targets, sharp.targets)
        if got != canonical:
            e, names = _first_difference(got, canonical), star.dst.elements
            return {
                "factorization": [k, j, p],
                "element": sharp.src.elements[e],
                "canonical": names[canonical[e]],
                "candidate": names[got[e]],
            }

    counts = {"factorizations": len(facts)}
    rep.sweep("factorization-independence", facts[1:], disagrees, anchor="exceptional-map-well-defined", counts=counts)
    return rep


def check_base_change_shriek(ns: NagataSetup, sa: ShriekAssignment) -> VerificationReport:
    """Pull after push equals push after pull across every cartesian square
    whose legs are marked."""
    rep = VerificationReport("shriek-base-change")
    push, pull = sa.shriek, sa.sys.pull

    def test(square):
        p, q, p2, q2 = square
        lhs = _compose(pull(q).targets, push[p].targets)
        rhs = _compose(push[p2].targets, pull(q2).targets)
        if lhs != rhs:
            e, names = _first_difference(lhs, rhs), pull(q).dst.elements
            pushed = {"pull-then-push": names[rhs[e]], "push-then-pull": names[lhs[e]]}
            return {"square": _square_id(square), "element": push[p].src.elements[e], **pushed}

    squares = cartesian_squares(ns, ns.setup.e, ns.setup.e)
    rep.sweep("base-change", squares, test, anchor="base-change-exceptional", counts={"squares": len(squares)})
    return rep


def check_shriek_projection(ns: NagataSetup, sa: ShriekAssignment) -> VerificationReport:
    """The projection comparison for the assembled exceptional maps, in the
    directed rendering of the star hypothesis (tensor after pushing below
    push of the tensored argument)."""
    rep = VerificationReport("shriek-projection")
    rep.sweep(
        "projection-formula",
        sorted(ns.setup.e.members),
        lambda f: _projection_failure(sa.sys, f, sa.shriek[f], ">="),
        anchor="projection-formula-exceptional",
        counts=lambda morphisms, _: {"morphisms": morphisms},
    )
    return rep


# -- assembly on the homotopy span category -------------------------------


def _span_targets(sa: ShriekAssignment, sp: Span) -> tuple[int, ...]:
    """The value of a span: pull along the left leg, then push exceptionally
    along the right, as target positions.  A composite of monotone maps
    needs no monotonicity check, so no map is built."""
    if sp.right not in sa.ns.setup.e.members:
        raise MalformedInputError(f"right leg {sp.right!r} is not marked")
    return _compose(sa.shriek[sp.right].targets, sa.sys.pull(sp.left).targets)


class Formalism:
    def __init__(self, hcorr: HCorr, sa: ShriekAssignment, mor_map: dict):
        self.hcorr, self.sa, self.mor_map = hcorr, sa, mor_map


def assemble_formalism(ns: NagataSetup, sa: ShriekAssignment) -> Formalism:
    """One table of target positions per class, valued on representatives."""
    from .spans import HCorr

    hc = HCorr(ns.setup)
    c = ns.setup.category
    mor_map = {}
    for x in c.objects:
        for y in c.objects:
            for rep_span, _ in hc.classes(x, y).values():
                mor_map[rep_span.name] = _span_targets(sa, rep_span)
    return Formalism(hc, sa, mor_map)


def check_formalism(fm: Formalism) -> VerificationReport:
    """Functoriality of the class-indexed assignment.

    Composable pairs whose composite escapes the carrier are counted as
    coverage, mirroring the span-law checker."""
    from .spans import Span, compose_spans

    rep = VerificationReport("formalism")
    hc, sa = fm.hcorr, fm.sa
    c = hc.setup.category
    # each class with its members and its table, read once
    classes = {
        (x, y): [(r, members, fm.mor_map[r.name]) for r, members in hc.classes(x, y).values()]
        for x in c.objects
        for y in c.objects
    }

    def member_differs(cls):
        r, members, table = cls
        bad = next((m for m in members if _span_targets(sa, m) != table), None)
        if bad is not None:
            return {"class": r.name, "member": [bad.left, bad.right]}

    all_classes = itertools.chain.from_iterable(classes.values())
    rep.sweep("representative-independence", all_classes, member_differs, anchor="descends-to-classes")

    def identity_moved(x):
        if fm.mor_map[hc.identity_id(x)] != tuple(range(len(sa.sys.lattice(x).elements))):
            return {"object": x}

    rep.sweep("identity-spans", c.objects, identity_moved, anchor="unit-of-formalism")

    def not_functorial(pair):
        (a, _, first), (b, _, then) = pair
        composite = compose_spans(hc.setup, a, b)
        if _span_targets(sa, composite) != _compose(then, first):
            return {"pair": [[a.left, a.right], [b.left, b.right]], "composite": [composite.left, composite.right]}

    # each class x -> y before each class y -> z, z in object order
    out_of = {y: [b for z in c.objects for b in classes[(y, z)]] for y in c.objects}
    pairs = itertools.chain.from_iterable(itertools.product(x_to_y, out_of[y]) for (_, y), x_to_y in classes.items())
    rep.sweep(
        "composition",
        pairs,
        not_functorial,
        anchor="functor-on-span-classes",
        counts=lambda pairs, covered: {"pairs": pairs, "covered": covered},
    )

    def pullback_moved(m):
        cid = hc.class_id(Span(m, c.identity[c.src(m)]))
        if fm.mor_map[cid] != sa.sys.pull(m).targets:
            return {"morphism": m, "route": "pullback-embedding"}

    rep.sweep("pullback-restriction", c.morphism_ids, pullback_moved, anchor="recovers-pullbacks")

    def exceptional_moved(m):
        cid = hc.class_id(Span(c.identity[c.src(m)], m))
        if fm.mor_map[cid] != sa.shriek[m].targets:
            return {"morphism": m, "route": "exceptional-embedding"}

    marked = sorted(hc.setup.e.members)
    rep.sweep("exceptional-restriction", marked, exceptional_moved, anchor="recovers-exceptional-maps")
    return rep
