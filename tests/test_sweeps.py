"""Each shared sweep against the loops it replaced, transcribed here.

The base-change coverage sweep, the order comparison, the mediator search
and the hypothesis and exceptional-map sweeps each serve several checks.
Every test below draws inputs on which the checks fail as well as pass:
carriers missing fiber products, classes that are not stable under base
change, and exceptional maps that are not consistent with their classes.
"""

import itertools
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from corrkit import serialization as ser
from corrkit.corpus import instance
from corrkit.descent import Atlas, PairDeclaration, _mediator, _order_mismatch, check_atlas, check_nice_pair
from corrkit.fincat import canonical_product, finset_category, mediators, poset_category, verify_product
from corrkit.lattices import (
    CoefficientSystem,
    FiniteLattice,
    SquareData,
    chain_lattice,
    check_adjointable,
    frame_system,
    left_adjoint,
    n5_lattice,
    projection_witness,
    right_adjoint,
)
from corrkit.lattices import _unique_cross_map
from corrkit.report import MalformedInputError, VerificationReport
from corrkit.setups import EdgeClass, GeometricSetup, check_geometric_setup
from corrkit.shriek import (
    NagataSetup,
    ShriekAssignment,
    _sharp,
    _square_id,
    _star,
    cartesian_squares,
    check_base_change_shriek,
    check_shriek_projection,
    verify_hypotheses,
)

from helpers import pair_to_dict
from test_lattice import named_map

DERANDOMIZED = settings(max_examples=80, deadline=None, derandomize=True)

# all-function carriers that miss fiber products (no 4-element set for the
# square of a 2-to-1 map, no empty set for disjoint images) or hold two
# objects of one size, and posets that miss meets
SIZES = (
    {"1": 1, "2": 2},
    {"0": 0, "1": 1, "2": 2},
    {"1": 1, "2": 2, "3": 3},
    {"a": 2, "b": 2, "p": 1},
)
POSETS = (
    # a cospan a -> c <- b with no meet
    (("a", "b", "c"), {("a", "c"), ("b", "c")}),
    # two lower bounds of a and b, neither below the other
    (("l", "m", "a", "b"), {("l", "a"), ("l", "b"), ("m", "a"), ("m", "b")}),
    (("0", "1", "2"), {("0", "1"), ("1", "2"), ("0", "2")}),
)


@lru_cache(maxsize=None)
def carrier(i: int):
    if i < len(SIZES):
        return finset_category(SIZES[i])
    elements, strict = POSETS[i - len(SIZES)]
    return poset_category(elements, lambda a, b: a == b or (a, b) in strict)


CARRIERS = st.integers(0, len(SIZES) + len(POSETS) - 1).map(carrier)


def subsets(ids):
    """Drawn subsets of `ids`, small ones and ones with few ids left out."""
    some = st.frozensets(st.sampled_from(sorted(ids)))
    return st.one_of(some, some.map(frozenset(ids).difference))


# -- the base-change coverage sweep ------------------------------------------


def _old_setup_sweep(s):
    c = s.category
    covered = 0
    gaps = []
    stability_witness = None
    for f in sorted(s.e.members):
        for g in c._in_index.get(c.dst(f), ()):
            pb = s.pullback_opt(f, g)
            if pb is None:
                gaps.append([f, g])
                continue
            covered += 1
            apex, p, q = pb
            if q not in s.e.members and stability_witness is None:
                stability_witness = {"member": f, "along": g, "base-change": q}
    existence = {"covered": covered, "gaps": len(gaps), "first-gap": gaps[0] if gaps else None}
    return [("pass", existence), ("fail" if stability_witness else "pass", stability_witness or {"checked": covered})]


def _old_atlas_sweep(a):
    c = a.setup.category
    covered, gaps = 0, 0
    witness = None
    for y in a.small_objects:
        for g in c.hom(y, a.target):
            pb = a.setup.pullback_opt(a.x, g)
            if pb is None:
                gaps += 1
                continue
            covered += 1
            _, _, q = pb
            if q not in a.s and witness is None:
                witness = {"object": y, "along": g, "base-change": q}
    return ("fail" if witness else "pass", witness or {"covered": covered, "gaps": gaps})


def _old_pair_sweep(pd):
    c = pd.big.category
    covered, gaps = 0, 0
    witness = None
    for f in sorted(pd.big.e.members):
        for a in pd.atlases.get(c.dst(f), ()):
            pb = pd.big.pullback_opt(f, a.x)
            if pb is None:
                gaps += 1
                continue
            covered += 1
            _, _, q = pb
            if q not in pd.e_small and witness is None:
                witness = {"morphism": f, "atlas": a.x, "base-change": q}
    return ("fail" if witness else "pass", witness or {"covered": covered, "gaps": gaps})


@DERANDOMIZED
@given(CARRIERS, st.data())
def test_the_base_change_sweep_matches_the_three_loops_it_replaced(c, data):
    e = data.draw(subsets(c.morphism_ids))
    s = GeometricSetup(c, EdgeClass(c, e))
    checks = check_geometric_setup(s).checks[2:]
    assert [(ch.status, ch.witness) for ch in checks] == _old_setup_sweep(GeometricSetup(c, EdgeClass(c, e)))

    small = tuple(data.draw(st.lists(st.sampled_from(c.objects), unique=True)))
    cover = EdgeClass(c, data.draw(subsets(c.morphism_ids)))
    a = Atlas(s, data.draw(st.sampled_from(c.morphism_ids)), cover, small)
    (ch,) = check_atlas(a).checks
    assert (ch.status, ch.witness) == _old_atlas_sweep(Atlas(GeometricSetup(c, EdgeClass(c, e)), a.x, cover, small))

    # atlases keyed by their targets, two at most per object
    xs = data.draw(st.lists(st.sampled_from(c.morphism_ids), max_size=4))
    atlases = {}
    for x in xs:
        if len(atlases.get(c.dst(x), ())) < 2:
            atlases[c.dst(x)] = atlases.get(c.dst(x), ()) + (x,)
    inside = [m for m in c.morphism_ids if c.src(m) in small and c.dst(m) in small]
    e_small = data.draw(subsets(inside)) if inside else frozenset()
    pd = PairDeclaration("nice", s, small, cover.members & set(inside), cover.members, e_small, atlases)
    ch = check_nice_pair(pd).checks[-1]
    assert (ch.name, ch.status, ch.witness) == ("exceptional-base-change", *_old_pair_sweep(pd))


def test_the_three_base_change_checks_report_through_the_one_sweep(monkeypatch):
    swept = []
    sweep = VerificationReport.sweep
    monkeypatch.setattr(
        VerificationReport, "sweep", lambda rep, name, *args, **kw: swept.append(name) or sweep(rep, name, *args, **kw)
    )
    # a fresh carrier with gaps (each carrier keeps its setup verdicts), and
    # a fresh copy of a bundled pair, whose carrier the corpus caches
    c = finset_category({"0": 0, "1": 1, "2": 2})
    s = GeometricSetup(c, EdgeClass(c, frozenset(c.morphism_ids)))
    rep = check_geometric_setup(s)
    assert rep.passed and rep.checks[2].witness["gaps"] > 0 and "pullback-stability" in swept
    swept.clear()
    assert check_atlas(Atlas(s, c.identity["2"], s.e, c.objects)).passed and swept == ["base-changes-in-cover-class"]
    swept.clear()
    pd = ser.loads(ser.dumps(pair_to_dict(instance("nice-pair-identity").build())))
    assert check_nice_pair(pd).passed and "exceptional-base-change" in swept


# -- the order comparison ------------------------------------------------------


class _Order:
    """A drawn relation read through `le`, as a lattice is."""

    def __init__(self, elements, pairs):
        self.elements, self.pairs = elements, pairs

    def le(self, a, b):
        return (a, b) in self.pairs


def _old_descent_order(base, L0, px):
    for a in base.elements:
        for b in base.elements:
            if base.le(a, b) != L0.le(px(a), px(b)):
                return {"reason": "order not reflected", "pair": [a, b]}
    return None


def _old_atlas_order(dd1, L1, L2, table):
    for a in dd1:
        for b in dd1:
            if L1.le(a, b) != L2.le(table[a], table[b]):
                return {"reason": "order not preserved", "pair": [a, b]}
    return None


def _old_codescent_order(els, reach, target, push_x):
    idx = {a: i for i, a in enumerate(els)}
    for a in els:
        for b in els:
            if reach[idx[a]][idx[b]] != target.le(push_x(a), push_x(b)):
                return {"pair": [a, b], "reason": "order mismatch"}
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_the_order_comparison_matches_the_three_loops_it_replaced(data):
    # arbitrary relations given as up-set masks, read by names for the loops
    els = data.draw(st.permutations("abcd"))[: data.draw(st.integers(0, 4))]
    image_els = "wxyz"
    up = data.draw(st.lists(st.integers(0, 2 ** len(els) - 1), min_size=len(els), max_size=len(els)))
    up_image = data.draw(st.lists(st.integers(0, 15), min_size=4, max_size=4))
    image = data.draw(st.lists(st.integers(0, 3), min_size=len(els), max_size=len(els)))

    def relation(names, masks):
        return {(a, b) for a, m in zip(names, masks) for j, b in enumerate(names) if m >> j & 1}

    src, dst = _Order(els, relation(els, up)), _Order(image_els, relation(image_els, up_image))
    table = {a: image_els[t] for a, t in zip(els, image)}
    found = _order_mismatch(up, up_image, image)
    found = found and [els[i] for i in found]

    old = _old_descent_order(src, dst, table.__getitem__)
    assert found == (old and old["pair"])
    old = _old_atlas_order(els, src, dst, table)
    assert found == (old and old["pair"])
    reach = [[src.le(a, b) for b in els] for a in els]
    old = _old_codescent_order(els, reach, dst, table.__getitem__)
    assert found == (old and old["pair"])


# -- the mediator search -------------------------------------------------------


def _old_verify_product(c, apex, legs, factors):
    legs, factors = tuple(legs), tuple(factors)
    for leg, x in zip(legs, factors):
        if c.morphisms[leg] != (apex, x):
            return False
    for t in c.objects:
        for us in itertools.product(*[c.hom(t, x) for x in factors]):
            found = [w for w in c.hom(t, apex) if all(c.comp(leg, w) == u for leg, u in zip(legs, us))]
            if len(found) != 1:
                return False
    return True


def _old_cross_map(c, f1, f2):
    x1, y1 = c.morphisms[f1]
    x2, y2 = c.morphisms[f2]
    px = canonical_product(c, [x1, x2])
    py = canonical_product(c, [y1, y2])
    if px is None or py is None:
        return None
    (p_obj, (p1, p2)) = px
    (q_obj, (q1, q2)) = py
    cands = [m for m in c.hom(p_obj, q_obj) if c.comp(q1, m) == c.comp(f1, p1) and c.comp(q2, m) == c.comp(f2, p2)]
    if len(cands) != 1:
        return None
    return p_obj, (p1, p2), q_obj, (q1, q2), cands[0]


def _old_mediator(c, src_obj, dst_obj, conditions):
    cands = [w for w in c.hom(src_obj, dst_obj) if all(c.comp(proj, w) == want for proj, want in conditions)]
    if len(cands) != 1:
        raise MalformedInputError(f"structure map {src_obj!r} -> {dst_obj!r} not unique ({len(cands)} candidates)")
    return cands[0]


# carriers small enough for the product search
SMALL = st.sampled_from([0, 1, 3, 4, 5, 6]).map(carrier)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(SMALL, st.data())
def test_the_mediator_search_matches_the_three_searches_it_replaced(c, data):
    src, dst = data.draw(st.sampled_from(c.objects)), data.draw(st.sampled_from(c.objects))
    projs = data.draw(st.lists(st.sampled_from(c._out_index[dst]), max_size=2))
    conditions = [(p, data.draw(st.sampled_from(c.hom(src, c.dst(p)) or [None]))) for p in projs]
    conditions = [(p, want) for p, want in conditions if want is not None]
    assert mediators(c, src, dst, iter(conditions)) == [
        w for w in c.hom(src, dst) if all(c.comp(p, w) == want for p, want in conditions)
    ]
    try:
        expected = _old_mediator(c, src, dst, conditions)
    except MalformedInputError as exc:
        expected = str(exc)
    try:
        assert _mediator(c, src, dst, conditions) == expected
    except MalformedInputError as exc:
        assert str(exc) == expected

    factors = data.draw(st.lists(st.sampled_from(c.objects), min_size=1, max_size=2))
    legs = [data.draw(st.sampled_from(c.hom(src, x) or ["none"])) for x in factors]
    if "none" not in legs:
        assert verify_product(c, src, legs, factors) == _old_verify_product(c, src, legs, factors)

    f1, f2 = data.draw(st.sampled_from(c.morphism_ids)), data.draw(st.sampled_from(c.morphism_ids))
    assert _unique_cross_map(c, f1, f2) == _old_cross_map(c, f1, f2)


# -- the hypothesis sweeps and the exceptional-map sweeps -----------------------


def _old_verify_hypotheses(ns, sys):
    rep = VerificationReport("shriek-hypotheses")
    s = ns.setup
    for label, cls, flavor in (("sharp", ns.i_class, "sharp"), ("star", ns.p_class, "star")):
        witness, count = None, 0
        for f in sorted(cls.members):
            count += 1
            push = _sharp(sys, f) if flavor == "sharp" else _star(sys, f)
            found = projection_witness(sys, f, push, "==" if flavor == "sharp" else ">=")
            if found:
                witness = {"morphism": f, "witness": found}
                break
        rep.add(
            f"projection-formula-{label}",
            witness is None,
            witness or {"morphisms": count},
            anchor=f"projection-formula-{flavor}",
        )

    def base_change(cls, side, name):
        witness, count = None, 0
        for square in cartesian_squares(ns, cls, s.e):
            right, top, bottom, left = square
            count += 1
            sq = SquareData(p=sys.pull(right), u=sys.pull(top), v=sys.pull(left), q=sys.pull(bottom))
            sub = check_adjointable(sq, side)
            if not sub.passed:
                witness = {"square": _square_id(square), "witness": sub.first_failure().witness}
                break
        rep.add(name, witness is None, witness or {"squares": count}, anchor=f"{name}-adjointable")

    base_change(ns.i_class, "left", "i-base-change")
    base_change(ns.p_class, "right", "p-base-change")

    witness, count = None, 0
    for square in cartesian_squares(ns, ns.i_class, ns.p_class):
        j, p, j2, p2 = square
        count += 1
        try:
            sq = SquareData(p=sys.pull(p2), u=_sharp(sys, j), v=_sharp(sys, j2), q=sys.pull(p))
        except MalformedInputError as e:
            witness = {"square": _square_id(square), "witness": str(e)}
            break
        sub = check_adjointable(sq, "right")
        if not sub.passed:
            witness = {"square": _square_id(square), "witness": sub.first_failure().witness}
            break
    rep.add("support-property", witness is None, witness or {"squares": count}, anchor="support-property-square")
    return rep


def _old_base_change_shriek(ns, sa):
    rep = VerificationReport("shriek-base-change")
    s = ns.setup
    sys = sa.sys
    witness, count = None, 0
    for square in cartesian_squares(ns, s.e, s.e):
        p, q, p2, q2 = square
        count += 1
        push, pull = sa.shriek[p].table, sys.pull(q).table
        push2, pull2 = sa.shriek[p2].table, sys.pull(q2).table
        for e in push:
            lhs, rhs = pull[push[e]], push2[pull2[e]]
            if lhs != rhs:
                witness = {"square": _square_id(square), "element": e, "pull-then-push": rhs, "push-then-pull": lhs}
                break
        if witness:
            break
    rep.add("base-change", witness is None, witness or {"squares": count}, anchor="base-change-exceptional")
    return rep


def _old_shriek_projection(ns, sa):
    rep = VerificationReport("shriek-projection")
    witness, count = None, 0
    for f in sorted(ns.setup.e.members):
        count += 1
        found = projection_witness(sa.sys, f, sa.shriek[f], ">=")
        if found:
            witness = {"morphism": f, "witness": found}
            break
    rep.add("projection-formula", witness is None, witness or {"morphisms": count}, anchor="projection-formula-exceptional")
    return rep


@lru_cache(maxsize=None)
def _system(i: int, lattice):
    """A frame system on carrier i over a named lattice, or, for a set of
    objects, the support system: D(X) is the two-element chain for a
    non-empty X, with the join as tensor on the objects in the set, and
    the one-point lattice for the empty set; each restriction is the
    identity or the map to the point.  Frame systems pass every hypothesis
    but the support property; on the support system base change fails
    across a square over the empty set, and the projection formulas across
    a map whose ends carry different tensors."""
    c = carrier(i)
    setup = GeometricSetup(c, EdgeClass(c, frozenset()))
    if isinstance(lattice, str):
        L = {"chain1": chain_lattice(1), "chain2": chain_lattice(2), "n5": n5_lattice()}[lattice]
        return frame_system(setup, L)
    meet = chain_lattice(1)
    join = FiniteLattice(meet.elements, meet.leq, {(a, b): meet.join(a, b) for a in "01" for b in "01"})
    point = FiniteLattice(("*",), {("*", "*")})
    lattices = {x: point if c.object_size[x] == 0 else join if x in lattice else meet for x in c.objects}
    restriction = {}
    for m, (x, y) in c.morphisms.items():
        restriction[m] = named_map(lattices[y], lattices[x], {e: e if c.object_size[x] else "*" for e in lattices[y].elements})
    return CoefficientSystem(c, lattices, restriction)


SYSTEMS = st.one_of(st.sampled_from(["chain1", "chain2", "n5"]), st.frozensets(st.sampled_from(["1", "2", "a", "b", "p"])))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([0, 1, 3]), SYSTEMS, st.data())
def test_the_square_and_morphism_sweeps_match_the_loops_they_replaced(i, lattice, data):
    sys = _system(i, lattice)
    c = sys.category
    e, i_class, p_class = (EdgeClass(c, data.draw(subsets(c.morphism_ids))) for _ in range(3))
    ns = NagataSetup(GeometricSetup(c, e), i_class, p_class)
    # the system was built over another class of the same carrier: its maps
    # do not depend on the class
    assert verify_hypotheses(ns, sys).checks == _old_verify_hypotheses(ns, sys).checks

    # each exceptional map is the left or the right adjoint, drawn per map,
    # so base change and the projection comparison fail as well as pass
    shriek = {}
    for f in sorted(e.members):
        adjoint = data.draw(st.sampled_from([left_adjoint, right_adjoint]))
        shriek[f] = adjoint(sys.pull(f))
    sa = ShriekAssignment(ns, sys, shriek)
    assert check_base_change_shriek(ns, sa).checks == _old_base_change_shriek(ns, sa).checks
    assert check_shriek_projection(ns, sa).checks == _old_shriek_projection(ns, sa).checks
