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
from dataclasses import dataclass

from .lattices import (
    CoefficientSystem,
    LatticeMap,
    SquareData,
    _compose,
    _first_difference,
    check_adjointable,
    compose_maps,
    identity_map,
    left_adjoint,
    projection_witness,
    right_adjoint,
)
from .report import MalformedInputError, NoPullbackError, VerificationReport
from .setups import EdgeClass, GeometricSetup, NagataSetup, check_geometric_setup
from .spans import HCorr, Span, compose_spans


def check_nagata(ns: NagataSetup) -> VerificationReport:
    """The four axioms, each exhaustive with a witness on failure."""
    rep = VerificationReport("nagata-setup")
    c = ns.setup.category
    for label, cls in (("i", ns.i_class), ("p", ns.p_class)):
        sub = check_geometric_setup(GeometricSetup(c, cls))
        bad = sub.first_failure()
        rep.add(
            f"{label}-class-geometric-setup",
            sub.passed,
            {} if sub.passed else {"check": bad.name, "witness": bad.witness},
            anchor="nagata-axiom-1",
        )
    missing = [f for f in sorted(ns.setup.e.members) if not factorizations(ns, f)]
    rep.add(
        "factorization-exists",
        not missing,
        {"morphism": missing[0]} if missing else {},
        anchor="nagata-axiom-2",
    )
    for label, cls in (("i", ns.i_class), ("p", ns.p_class)):
        witness = _cancellation_witness(cls)
        rep.add(f"cancellation-{label}", witness is None, witness or {}, anchor="nagata-axiom-3")
    overlap = ns.i_class.members & ns.p_class.members
    bad = sorted(overlap - set(c.mono_ids))
    rep.add(
        "overlap-is-truncated",
        not bad,
        {"morphism": bad[0]} if bad else {},
        anchor="nagata-axiom-4",
    )
    return rep


def _cancellation_witness(cls: EdgeClass) -> dict | None:
    """The first pair (g, f), in `composable_pairs` order, with g a member
    and f a member exactly when g . f is not; each composite read once."""
    c, members = cls.carrier, cls.members
    into = c._in_index
    for g in c.morphism_ids:
        if g in members:
            for f in into.get(c.morphisms[g][0], ()):
                h = c.composite(g, f)
                if (f in members) != (h in members):
                    return {"pair": [g, f], "composite": h}
    return None


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


@dataclass
class ShriekAssignment:
    """One exceptional map per marked morphism."""

    ns: NagataSetup
    sys: CoefficientSystem
    shriek: dict

    def __post_init__(self):
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
    witness = None
    for f in sorted(sa.ns.setup.e.members):
        if f in sa.ns.i_class.members and not sa.shriek[f].same_table(_sharp(sa.sys, f)):
            witness = {"morphism": f, "class": "open-like"}
            break
        if f in sa.ns.p_class.members and not sa.shriek[f].same_table(_star(sa.sys, f)):
            witness = {"morphism": f, "class": "proper-like"}
            break
    rep.add("class-consistency", witness is None, witness or {}, anchor="shriek-on-marked-classes")
    return rep


# -- hypothesis suite -----------------------------------------------------


def _square_id(sq) -> dict:
    right, top, bottom, left = sq
    return {"cospan": [right, top], "base-changes": [bottom, left]}


def cartesian_squares(ns: NagataSetup, a: EdgeClass, b: EdgeClass) -> list[tuple[str, str, str, str]]:
    """The cartesian squares with legs in marked classes a and b, as
    (right, top, bottom, left): right and bottom lie in a, top and left in
    b, and the cospan is (right, top).  They are the squares of
    `enumerate_grid_simplices(s, [a, b], 2, 1)`, in the same order, but
    constructed rather than searched for: see `_construct_squares`.

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
    """Every cartesian square whose four legs are marked.

    A pullback is unique up to a unique isomorphism (Mac Lane, CWM III.4),
    so the cartesian squares over a cospan are its canonical pullback
    (apex P, left, bottom) composed with each isomorphism w -> P.  They are
    sorted in the grid search's order: it places the apex, then left,
    bottom and the cospan, choosing each vertex's object, by its position
    in `objects`, before the edges into it.  Edges between the same objects
    compare by id, as their hom-set positions do."""
    s = ns.setup
    c = s.category
    marked = s.e.members | ns.i_class.members | ns.p_class.members
    position = {x: i for i, x in enumerate(c.objects)}
    # marked ids and isomorphisms, each grouped by target
    marked_into: dict[str, list[str]] = {}
    isos_into: dict[str, list[str]] = {}
    for m in c.morphism_ids:
        if m in marked:
            marked_into.setdefault(c.dst(m), []).append(m)
        if m in c.iso_ids:
            isos_into.setdefault(c.dst(m), []).append(m)
    keyed = []
    for z, legs in marked_into.items():
        for right in legs:
            for top in legs:
                # (right, top) is the order the setup suite's stability
                # check asks the oracle in, so its entries are reused here
                pb = s.pullback_opt(right, top)
                if pb is None:
                    continue
                apex, left, bottom = pb
                for phi in isos_into.get(apex, ()):
                    bottom_w, left_w = c.compose[(bottom, phi)], c.compose[(left, phi)]
                    if bottom_w in marked and left_w in marked:
                        key = (
                            position[c.src(phi)],
                            position[c.src(right)],
                            left_w,
                            position[c.src(top)],
                            bottom_w,
                            position[z],
                            right,
                            top,
                        )
                        keyed.append((key, (right, top, bottom_w, left_w)))
    return [sq for _, sq in sorted(keyed)]


def _projection_sweep(rep, name, sys, members, push, relation, anchor) -> None:
    """Report `name`: the first morphism f of `members`, in id order, whose
    map push(sys, f) fails `projection_witness` for `relation`, else the
    count."""
    for f in sorted(members):
        found = projection_witness(sys, f, push(sys, f), relation)
        if found:
            rep.add(name, False, {"morphism": f, "witness": found}, anchor=anchor)
            return
    rep.add(name, True, {"morphisms": len(members)}, anchor=anchor)


def _square_sweep(rep, name, squares, test, anchor) -> None:
    """Report `name`: the first square, in order, for which `test` returns
    a witness, else the count."""
    for square in squares:
        found = test(*square)
        if found:
            rep.add(name, False, {"square": _square_id(square), **found}, anchor=anchor)
            return
    rep.add(name, True, {"squares": len(squares)}, anchor=anchor)


def _mate_witness(side: str, sq: SquareData) -> dict | None:
    sub = check_adjointable(sq, side)
    return None if sub.passed else {"witness": sub.first_failure().witness}


def verify_hypotheses(ns: NagataSetup, sys: CoefficientSystem) -> VerificationReport:
    """Projection formulas per class, base change per class, and the
    support property, the last three quantified over every cartesian
    square with legs in the relevant edge classes."""
    rep = VerificationReport("shriek-hypotheses")
    # between posets the comparison map exists exactly when the inequality
    # holds elementwise: the left adjoint pushes below, the right one above
    for flavor, cls, push, relation in (("sharp", ns.i_class, _sharp, "<="), ("star", ns.p_class, _star, ">=")):
        name = f"projection-formula-{flavor}"
        _projection_sweep(rep, name, sys, cls.members, push, relation, name)

    for cls, side, name in ((ns.i_class, "left", "i-base-change"), (ns.p_class, "right", "p-base-change")):

        def mate(right, top, bottom, left, side=side):
            return _mate_witness(side, SquareData(p=sys.pull(right), u=sys.pull(top), v=sys.pull(left), q=sys.pull(bottom)))

        _square_sweep(rep, name, cartesian_squares(ns, cls, ns.setup.e), mate, f"{name}-adjointable")

    def support(j, p, j2, p2):
        try:
            # commuting here is exactly left base change for this square
            sq = SquareData(p=sys.pull(p2), u=_sharp(sys, j), v=_sharp(sys, j2), q=sys.pull(p))
        except MalformedInputError as e:
            return {"witness": str(e)}
        return _mate_witness("right", sq)

    _square_sweep(rep, "support-property", cartesian_squares(ns, ns.i_class, ns.p_class), support, "support-property-square")
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
    witness = None
    for k, j, p in facts[1:]:
        star, sharp = _star(sys, p), _sharp(sys, j)
        got = _compose(star.targets, sharp.targets)
        if got != canonical:
            e, names = _first_difference(got, canonical), star.dst.elements
            witness = {
                "factorization": [k, j, p],
                "element": sharp.src.elements[e],
                "canonical": names[canonical[e]],
                "candidate": names[got[e]],
            }
            break
    rep.add(
        "factorization-independence",
        witness is None,
        witness or {"factorizations": len(facts)},
        anchor="exceptional-map-well-defined",
    )
    return rep


def check_base_change_shriek(ns: NagataSetup, sa: ShriekAssignment) -> VerificationReport:
    """Pull after push equals push after pull across every cartesian square
    whose legs are marked."""
    rep = VerificationReport("shriek-base-change")
    push, pull = sa.shriek, sa.sys.pull

    def test(p, q, p2, q2):
        lhs = _compose(pull(q).targets, push[p].targets)
        rhs = _compose(push[p2].targets, pull(q2).targets)
        if lhs == rhs:
            return None
        e, names = _first_difference(lhs, rhs), pull(q).dst.elements
        return {"element": push[p].src.elements[e], "pull-then-push": names[rhs[e]], "push-then-pull": names[lhs[e]]}

    _square_sweep(rep, "base-change", cartesian_squares(ns, ns.setup.e, ns.setup.e), test, "base-change-exceptional")
    return rep


def check_shriek_projection(ns: NagataSetup, sa: ShriekAssignment) -> VerificationReport:
    """The projection comparison for the assembled exceptional maps, in the
    same directed rendering as the hypothesis layer (tensor after pushing
    below push of the tensored argument)."""
    rep = VerificationReport("shriek-projection")
    members, anchor = ns.setup.e.members, "projection-formula-exceptional"
    _projection_sweep(rep, "projection-formula", sa.sys, members, lambda _, f: sa.shriek[f], ">=", anchor)
    return rep


# -- assembly on the homotopy span category -------------------------------


def _span_targets(sa: ShriekAssignment, sp: Span) -> tuple[int, ...]:
    """The target positions of `span_value`, with no map built: a composite
    of monotone maps needs no monotonicity check."""
    if sp.right not in sa.ns.setup.e.members:
        raise MalformedInputError(f"right leg {sp.right!r} is not marked")
    return _compose(sa.shriek[sp.right].targets, sa.sys.pull(sp.left).targets)


def span_value(sa: ShriekAssignment, sp: Span) -> LatticeMap:
    """Pull along the left leg, then push exceptionally along the right."""
    targets = _span_targets(sa, sp)
    return LatticeMap(sa.sys.pull(sp.left).src, sa.shriek[sp.right].dst, targets)


@dataclass
class Formalism:
    hcorr: HCorr
    sa: ShriekAssignment
    mor_map: dict


def assemble_formalism(ns: NagataSetup, sa: ShriekAssignment, max_apex: int = 4) -> Formalism:
    """One lattice map per enumerated span class, valued on representatives."""
    hc = HCorr(ns.setup, max_apex)
    c = ns.setup.category
    mor_map = {}
    for x in c.objects:
        for y in c.objects:
            for rep_span, _ in hc.classes(x, y).values():
                mor_map[rep_span.name] = span_value(sa, rep_span)
    return Formalism(hc, sa, mor_map)


def check_formalism(fm: Formalism) -> VerificationReport:
    """Functoriality of the class-indexed assignment.

    Composable pairs whose composite escapes the carrier are counted as
    coverage, mirroring the span-law checker."""
    rep = VerificationReport("formalism")
    hc, sa = fm.hcorr, fm.sa
    c = hc.setup.category
    # each class with its members and its table, read once
    classes = {
        (x, y): [(r, members, fm.mor_map[r.name].targets) for r, members in hc.classes(x, y).values()]
        for x in c.objects
        for y in c.objects
    }
    witness = None
    for r, members, table in itertools.chain.from_iterable(classes.values()):
        bad = next((m for m in members if _span_targets(sa, m) != table), None)
        if bad is not None:
            witness = {"class": r.name, "member": [bad.left, bad.right]}
            break
    rep.add("representative-independence", witness is None, witness or {}, anchor="descends-to-classes")

    witness = None
    for x in c.objects:
        if not fm.mor_map[hc.identity_id(x)].same_table(identity_map(sa.sys.lattice(x))):
            witness = {"object": x}
            break
    rep.add("identity-spans", witness is None, witness or {}, anchor="unit-of-formalism")

    witness, pairs, covered = None, 0, 0
    for (_, y), x_to_y in classes.items():
        for a, _, first in x_to_y:
            for z in c.objects:
                for b, _, then in classes[(y, z)]:
                    pairs += 1
                    try:
                        composite = compose_spans(hc.setup, a, b)
                    except NoPullbackError:
                        continue
                    covered += 1
                    if _span_targets(sa, composite) != _compose(then, first):
                        witness = {
                            "pair": [[a.left, a.right], [b.left, b.right]],
                            "composite": [composite.left, composite.right],
                        }
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    rep.add(
        "composition",
        witness is None,
        witness or {"pairs": pairs, "covered": covered},
        anchor="functor-on-span-classes",
    )

    witness = None
    for m in c.morphism_ids:
        cid = hc.class_id(Span(m, c.identity[c.src(m)]))
        if not fm.mor_map[cid].same_table(sa.sys.pull(m)):
            witness = {"morphism": m, "route": "pullback-embedding"}
            break
    rep.add("pullback-restriction", witness is None, witness or {}, anchor="recovers-pullbacks")

    witness = None
    for m in sorted(hc.setup.e.members):
        cid = hc.class_id(Span(c.identity[c.src(m)], m))
        if not fm.mor_map[cid].same_table(sa.shriek[m]):
            witness = {"morphism": m, "route": "exceptional-embedding"}
            break
    rep.add("exceptional-restriction", witness is None, witness or {}, anchor="recovers-exceptional-maps")
    return rep


def search_nagata(setup: GeometricSetup, sys: CoefficientSystem, classes: dict) -> list[dict]:
    """Brute-force sweep over named class pairs: which (I, P) choices give a
    valid setup with all hypotheses, and which of those are mixed (I not
    everything, P not just isomorphisms, overlap beyond isomorphisms)."""
    c = setup.category
    isos = frozenset(c.iso_ids)
    everything = frozenset(c.morphism_ids)
    out = []
    for i_name in sorted(classes):
        for p_name in sorted(classes):
            ns = NagataSetup(setup, classes[i_name], classes[p_name])
            axioms = check_nagata(ns)
            hyps = verify_hypotheses(ns, sys) if axioms.passed else None
            overlap = classes[i_name].members & classes[p_name].members
            out.append(
                {
                    "i": i_name,
                    "p": p_name,
                    "axioms": axioms.passed,
                    "hypotheses": None if hyps is None else hyps.passed,
                    "mixed": (
                        classes[i_name].members != everything
                        and classes[p_name].members != isos
                        and overlap != isos
                    ),
                }
            )
    return out
