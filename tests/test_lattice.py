"""Lattices, Galois connections, mates, and coefficient systems."""

import functools
import hashlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import corrkit

from corrkit.fincat import chain_category, finset_skeleton
from corrkit.lattices import (
    CoefficientSystem,
    FiniteLattice,
    LatticeGrid,
    LatticeMap,
    SquareData,
    _unit_counit,
    chain_lattice,
    check_adjointable,
    check_kunneth,
    check_projection_formula,
    check_triangles,
    compose_maps,
    fiberwise_join_map,
    fiberwise_meet_map,
    frame_system,
    identity_map,
    left_adjoint,
    monotone_maps_between,
    n5_lattice,
    partial_adjoint_grid,
    paste_squares,
    power_lattice,
    projection_witness,
    right_adjoint,
    tuple_name,
)
from corrkit.report import MalformedInputError
from corrkit.setups import GeometricSetup, all_class


def frame2(L=chain_lattice(1)):
    c = finset_skeleton(2)
    return frame_system(GeometricSetup(c, all_class(c)), L)


def m3_lattice():
    els = ("0", "a", "b", "c", "1")
    return FiniteLattice(els, frozenset({(x, x) for x in els} | {("0", x) for x in els} | {(x, "1") for x in els}))


def named_map(src, dst, table):
    """The map given by a table keyed by names."""
    return LatticeMap(src, dst, tuple(dst.elements.index(table[x]) for x in src.elements))


def meet_of(L, a, b):
    """The meet of two names, read off the down-set masks."""
    i, j = L.elements.index(a), L.elements.index(b)
    return L.elements[L._meets[L._down[i] & L._down[j]]]


def tensor_of(L, a, b):
    """The tensor of two names, read off the tensor rows."""
    return L.elements[L._tensor_rows[L.elements.index(a)][L.elements.index(b)]]


def adjunction_holds_left(cand, m):
    """Reference: cand: M -> L is left adjoint to m: L -> M iff
    cand(x) <= y <=> x <= m(y), over all pairs."""
    L, M, c, t = m.src, m.dst, cand.table, m.table
    return all(((c[x], y) in L.leq) == ((x, t[y]) in M.leq) for x in M.elements for y in L.elements)


def adjunction_holds_right(cand, m):
    """Reference: cand: M -> L is right adjoint to m: L -> M iff
    m(y) <= x <=> y <= cand(x), over all pairs."""
    L, M, c, t = m.src, m.dst, cand.table, m.table
    return all(((t[y], x) in M.leq) == ((y, c[x]) in L.leq) for x in M.elements for y in L.elements)


# -- lattices -------------------------------------------------------------


def test_chain_lattice_basics():
    L = chain_lattice(2)
    assert (L.bot, L.top) == ("0", "2")
    assert meet_of(L, "1", "2") == "1" and L.join("1", "2") == "2"
    assert L.is_frame


def test_n5_is_not_a_frame():
    L = n5_lattice()
    assert L.join("a", meet_of(L, "b", "c")) == "a"
    assert meet_of(L, L.join("a", "b"), L.join("a", "c")) == "c"
    assert not L.is_frame


def test_lattice_validation():
    with pytest.raises(MalformedInputError):
        FiniteLattice(("a", "b"), frozenset({("a", "a"), ("b", "b")}))  # no meet
    with pytest.raises(MalformedInputError):
        FiniteLattice(("a",), frozenset())  # not reflexive
    with pytest.raises(MalformedInputError):
        FiniteLattice(("a", "b"), frozenset({("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}))


def _broken_orders():
    # a chain without its transitive pairs, and a three-element cycle
    chain = ("0", "1", "2", "3", "4")
    cycle = ("a", "b", "c")
    return [
        (chain, {(x, x) for x in chain} | set(zip(chain, chain[1:]))),
        (cycle, {(x, y) for x in cycle for y in cycle}),
    ]


def test_order_witness_is_first_in_element_order():
    expected = ["order not transitive via '1'", "order not antisymmetric on ('a', 'b')"]
    for (els, leq), message in zip(_broken_orders(), expected):
        with pytest.raises(MalformedInputError) as exc:
            FiniteLattice(els, frozenset(leq))
        assert str(exc.value) == message
    # the witness must not depend on string hashing, so other hash seeds
    # run in fresh interpreters
    src = os.path.dirname(os.path.dirname(corrkit.__file__))
    code = (
        "from corrkit.lattices import FiniteLattice\n"
        "from corrkit.report import MalformedInputError\n"
        f"for els, leq in {_broken_orders()!r}:\n"
        "    try:\n"
        "        FiniteLattice(els, frozenset(leq))\n"
        "    except MalformedInputError as exc:\n"
        "        print(exc)\n"
    )
    for seed in range(1, 6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == expected, seed


def test_join_tensor_variant():
    L = n5_lattice("join")
    assert tensor_of(L, "a", "b") == "1"
    assert tensor_of(n5_lattice(), "a", "b") == "0"


def test_power_lattice_pointwise():
    L = power_lattice(chain_lattice(1), 2)
    assert len(L.elements) == 4
    assert (tuple_name(("0", "1")), tuple_name(("1", "1"))) in L.leq
    assert (tuple_name(("0", "1")), tuple_name(("1", "0"))) not in L.leq
    point = power_lattice(chain_lattice(1), 0)
    assert len(point.elements) == 1


def test_lattice_map_validation():
    L = chain_lattice(1)
    with pytest.raises(MalformedInputError):
        named_map(L, L, {"0": "1", "1": "0"})  # not monotone


# -- adjoints -------------------------------------------------------------


def test_adjoints_of_chain_embedding():
    L, M = chain_lattice(1), chain_lattice(2)
    m = named_map(L, M, {"0": "0", "1": "2"})
    la, ra = left_adjoint(m), right_adjoint(m)
    assert la.table == {"0": "0", "1": "1", "2": "1"}
    assert ra.table == {"0": "0", "1": "0", "2": "1"}


def test_no_left_adjoint_when_top_dropped():
    L = chain_lattice(1)
    const_bot = named_map(L, L, {"0": "0", "1": "0"})
    assert left_adjoint(const_bot) is None
    assert right_adjoint(const_bot) is not None


def test_adjoint_uniqueness_exhaustive():
    # on lattices with at most 5 elements: when an adjoint exists it is the
    # only monotone map satisfying the law, and None means none exists
    lattices = [chain_lattice(1), chain_lattice(2), n5_lattice()]
    for L in lattices:
        for M in lattices:
            for m in monotone_maps_between(L, M):
                la = left_adjoint(m)
                sats = [
                    c
                    for c in monotone_maps_between(M, L)
                    if all(
                        ((c.table[x], y) in L.leq) == ((x, m.table[y]) in M.leq)
                        for x in M.elements
                        for y in L.elements
                    )
                ]
                assert len(sats) == (1 if la is not None else 0)
                if la is not None:
                    assert sats[0].same_table(la)


def test_adjoint_involution():
    L = chain_lattice(2)
    for m in monotone_maps_between(L, L):
        ra = right_adjoint(m)
        if ra is not None:
            back = left_adjoint(ra)
            assert back is not None and back.same_table(m)


def test_triangle_identities():
    sys = frame2()
    for f in sys.category.morphism_ids:
        assert check_triangles(sys.galois(f)).passed


# -- adjointable squares --------------------------------------------------


def _beck_chevalley_square(sys, f, g, a, b):
    # X --f--> Z <--g-- Y with P over the cospan via a: P -> X, b: P -> Y
    return SquareData(p=sys.pull(f), u=sys.pull(g), v=sys.pull(a), q=sys.pull(b))


def test_adjointable_pullback_square():
    sys = frame2()
    # cospan 1 -> 2 <- 1 at distinct points; fiber product is empty
    sq = _beck_chevalley_square(sys, "1>2:0", "1>2:1", "0>1:", "0>1:")
    assert check_adjointable(sq, "right").passed
    assert check_adjointable(sq, "left").passed


def test_adjointable_fails_on_fake_pullback():
    sys = frame2()
    c = sys.category
    # cospan 2 -> 1 <- 1 has fiber product 2, but apex 1 also commutes
    sq = _beck_chevalley_square(sys, "2>1:0.0", c.identity["1"], "1>2:0", c.identity["1"])
    rep = check_adjointable(sq, "right")
    assert not rep.passed
    assert rep.first_failure().witness["element"] == tuple_name(("1", "0"))


def test_adjointable_side_validation():
    sys = frame2()
    sq = _beck_chevalley_square(sys, "1>2:0", "1>2:1", "0>1:", "0>1:")
    with pytest.raises(MalformedInputError):
        check_adjointable(sq, "up")


@st.composite
def moore_lattices(draw):
    """A Moore family: drawn subsets of 2-4 points with the full set,
    closed under intersection.  Ordered by inclusion it is a lattice, and
    need not be distributive."""
    k = draw(st.integers(2, 4))
    full = (1 << k) - 1
    sets = {full, *draw(st.lists(st.integers(0, full), max_size=6))}
    while more := {a & b for a in sets for b in sets} - sets:
        sets |= more
    names = {s: format(s, f"0{k}b") for s in sorted(sets)}
    return FiniteLattice(tuple(names.values()), frozenset((names[a], names[b]) for a in sets for b in sets if a & ~b == 0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(moore_lattices())
@example(chain_lattice(1))
@example(chain_lattice(2))
@example(chain_lattice(3))
@example(n5_lattice())
@example(n5_lattice("join"))
@example(m3_lattice())
def test_every_frame_pullback_square_is_adjointable(L):
    # both adjoints of f^* are a join or a meet over the fibers of f, and a
    # pullback square matches the fibers on both sides of each mate, so a
    # frame model is adjointable over any lattice
    sys = frame2(L)
    c = sys.category
    setup = GeometricSetup(c, all_class(c))
    squares = 0
    for f in c.morphism_ids:
        for g in c.morphism_ids:
            pb = setup.pullback_opt(f, g) if c.dst(f) == c.dst(g) else None
            if pb is None:
                continue
            _, p, q = pb
            sq = SquareData(p=sys.pull(f), u=sys.pull(g), v=sys.pull(p), q=sys.pull(q))
            assert check_adjointable(sq, "left").passed, (f, g)
            assert check_adjointable(sq, "right").passed, (f, g)
            squares += 1
    assert squares == 56


def test_mate_pasting():
    L = chain_lattice(1)
    i = identity_map(L)
    unit = SquareData(p=i, u=i, v=i, q=i)
    sys = frame2()
    bc = _beck_chevalley_square(sys, "1>2:0", "1>2:1", "0>1:", "0>1:")
    outer = paste_squares(
        SquareData(p=identity_map(bc.p.src), u=bc.u, v=bc.u, q=identity_map(bc.u.dst)),
        SquareData(p=bc.p, u=bc.u, v=bc.v, q=bc.q),
    )
    assert check_adjointable(outer, "right").passed
    with pytest.raises(MalformedInputError):
        paste_squares(unit, bc)


# -- lattice grids --------------------------------------------------------


def _frame_grid(sys, square_edges):
    # square_edges: morphisms (f, g, a, b) of the carrier forming a
    # commuting square f;a == g;b read off the pullback maps
    f, g, a, b = square_edges
    c = sys.category
    lattices = {
        (0, 0): sys.lattice(c.dst(f)),
        (1, 0): sys.lattice(c.src(f)),
        (0, 1): sys.lattice(c.src(g)),
        (1, 1): sys.lattice(c.src(a)),
    }
    maps = {
        ((0, 0), 0): sys.pull(f),
        ((0, 0), 1): sys.pull(g),
        ((1, 0), 1): sys.pull(a),
        ((0, 1), 0): sys.pull(b),
    }
    return LatticeGrid(2, 1, lattices, maps)


def test_grid_validation_catches_non_commuting():
    L = chain_lattice(1)
    i = identity_map(L)
    t = named_map(L, L, {"0": "1", "1": "1"})
    with pytest.raises(MalformedInputError):
        LatticeGrid(2, 1, {(a, b): L for a in (0, 1) for b in (0, 1)},
                    {((0, 0), 0): t, ((0, 0), 1): i, ((1, 0), 1): i, ((0, 1), 0): i})


def test_partial_adjoint_chain():
    # k=1: reversing the single direction composes right adjoints in the
    # opposite order
    sys = frame2()
    f, g = "2>1:0.0", "1>1:0"
    grid = LatticeGrid(
        1,
        2,
        {(0,): sys.lattice("1"), (1,): sys.lattice("1"), (2,): sys.lattice("2")},
        {((0,), 0): sys.pull(g), ((1,), 0): sys.pull(f)},
    )
    out = partial_adjoint_grid(grid, {0})
    assert out.lattices[(0,)] == sys.lattice("2")
    composite = compose_maps(out.maps[((1,), 0)], out.maps[((0,), 0)])
    direct = right_adjoint(compose_maps(sys.pull(f), sys.pull(g)))
    assert composite.same_table(direct)


def test_partial_adjoint_square():
    sys = frame2()
    grid = _frame_grid(sys, ("1>2:0", "1>2:1", "0>1:", "0>1:"))
    out = partial_adjoint_grid(grid, {0})
    # direction 0 edges became the fiberwise meets, direction 1 untouched
    L = chain_lattice(1)
    oracle = fiberwise_meet_map("1>2:0", sys.lattice("1"), sys.lattice("2"), L)
    assert out.maps[((0, 0), 0)].same_table(oracle)
    assert out.maps[((1, 0), 1)].same_table(sys.pull("1>2:1"))
    # reversing again through left adjoints recovers the original maps
    for (v, d), m in grid.maps.items():
        if d == 0:
            back = left_adjoint(out.maps[(grid.flip(_bump_key(v, d), {0}), d)])
            assert back is not None and back.same_table(m)


def _bump_key(v, d):
    return v[:d] + (v[d] + 1,) + v[d + 1 :]


def test_partial_adjoint_preconditions():
    sys = frame2()
    c = sys.category
    fake = _frame_grid(sys, ("2>1:0.0", c.identity["1"], "1>2:0", c.identity["1"]))
    with pytest.raises(MalformedInputError):
        partial_adjoint_grid(fake, {0})
    good = _frame_grid(sys, ("1>2:0", "1>2:1", "0>1:", "0>1:"))
    with pytest.raises(MalformedInputError):
        partial_adjoint_grid(good, {5})


# -- coefficient systems --------------------------------------------------


def test_frame_system_is_functorial():
    sys = frame2()
    c = sys.category
    assert set(sys.restriction) == set(c.morphism_ids)
    assert sys.lattice("2").elements == power_lattice(chain_lattice(1), 2).elements


def test_frame_system_requires_cardinalities():
    c = chain_category(1)
    with pytest.raises(MalformedInputError):
        frame_system(GeometricSetup(c, all_class(c)), chain_lattice(1))


@functools.cache
def _frame3():
    c = finset_skeleton(3)
    return frame_system(GeometricSetup(c, all_class(c)), chain_lattice(1))


def _first_nonfunctorial_pair(c, restriction):
    """The first (g, f) over every pair of ids whose restriction along g.f
    is not the restriction along g followed by the one along f."""
    for g in c.morphism_ids:
        for f in c.morphism_ids:
            if c.dst(f) == c.src(g):
                if restriction[c.comp(g, f)].table != compose_maps(restriction[f], restriction[g]).table:
                    return g, f
    return None


@seed(8)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_functoriality_sweep_names_the_pair_of_the_full_scan(data):
    # the carrier has sizes, so only pairs (g, a) with a a generator are
    # swept; a failure must still name the first pair of the full scan
    sys = _frame3()
    c = sys.category
    assert c.object_size is not None
    m = data.draw(st.sampled_from([m for m in c.morphism_ids if not c.is_identity(m)]))
    old = sys.restriction[m]
    tables = [sys.restriction[n].table for n in c.hom(c.src(m), c.dst(m)) if n != m]
    tables.append(dict.fromkeys(old.src.elements, old.dst.top))
    table = data.draw(st.sampled_from(tables))
    restriction = {**sys.restriction, m: named_map(old.src, old.dst, table)}
    expected = _first_nonfunctorial_pair(c, restriction)
    if expected is None:
        CoefficientSystem(sys.category, sys.lattices, restriction)
        return
    g, f = expected
    with pytest.raises(MalformedInputError) as err:
        CoefficientSystem(sys.category, sys.lattices, restriction)
    assert str(err.value) == f"restriction not functorial on ({g!r}, {f!r})"


def test_broken_functoriality_rejected():
    sys = frame2()
    c = sys.category
    restriction = dict(sys.restriction)
    top_map = {x: restriction["2>1:0.0"].dst.top for x in restriction["2>1:0.0"].src.elements}
    restriction["2>1:0.0"] = named_map(restriction["2>1:0.0"].src, restriction["2>1:0.0"].dst, top_map)
    with pytest.raises(MalformedInputError):
        CoefficientSystem(sys.category, sys.lattices, restriction)


def test_non_identity_identity_restriction_rejected():
    sys = frame2()
    c = sys.category
    L = sys.lattice("2")
    swap = {x: tuple_name(tuple(reversed(x[1:-1].split(",")))) for x in L.elements}
    restriction = dict(sys.restriction)
    restriction[c.identity["2"]] = named_map(L, L, swap)
    with pytest.raises(MalformedInputError, match="identity restriction at '2'"):
        CoefficientSystem(sys.category, sys.lattices, restriction)


def test_galois_adjoints_match_fiberwise_oracles():
    L = chain_lattice(2)
    c = finset_skeleton(2)
    sys = frame_system(GeometricSetup(c, all_class(c)), L)
    for f in c.morphism_ids:
        x, y = c.morphisms[f]
        g = sys.galois(f)
        assert g.sharp.same_table(fiberwise_join_map(f, sys.lattice(x), sys.lattice(y), L))
        assert g.star.same_table(fiberwise_meet_map(f, sys.lattice(x), sys.lattice(y), L))
    # the star map of an isomorphism is itself invertible, so it has a
    # further right adjoint; general maps need not
    assert right_adjoint(sys.galois(c.identity["2"]).star) is not None
    assert right_adjoint(sys.galois("0>1:").star) is None


# -- projection formulas and Kunneth --------------------------------------


def test_projection_formula_sharp_frames():
    sys = frame2()
    for f in sys.category.morphism_ids:
        assert check_projection_formula(sys, f, "sharp").passed


def test_projection_formula_star_surjective_only():
    sys = frame2()
    assert check_projection_formula(sys, "2>1:0.0", "star").passed
    rep = check_projection_formula(sys, "0>1:", "star")
    assert not rep.passed
    w = rep.first_failure().witness
    assert w["B"] == tuple_name(("0",))


def test_projection_formula_flavor_validation():
    sys = frame2()
    with pytest.raises(MalformedInputError):
        check_projection_formula(sys, "1>1:0", "flat")


def test_kunneth_meet_tensor_passes_for_surjections():
    for L in (chain_lattice(1), chain_lattice(2), n5_lattice()):
        c = finset_skeleton(2)
        sys = frame_system(GeometricSetup(c, all_class(c)), L)
        assert check_kunneth(sys, "2>1:0.0", "1>1:0").passed
        assert check_kunneth(sys, "1>1:0", "2>1:0.0").passed


def test_kunneth_fails_on_empty_fiber():
    # a non-surjective factor makes some product fiber empty: the starred
    # box is the unit there while the box of starred factors is not
    c = finset_skeleton(2)
    sys = frame_system(GeometricSetup(c, all_class(c)), chain_lattice(1))
    rep = check_kunneth(sys, "1>2:0", "1>1:0")
    assert not rep.passed


def test_kunneth_join_tensor_fails_on_pentagon():
    c = finset_skeleton(2)
    sys = frame_system(GeometricSetup(c, all_class(c)), n5_lattice("join"))
    rep = check_kunneth(sys, "2>1:0.0", "1>1:0")
    assert not rep.passed
    w = rep.first_failure().witness
    assert w["starred-box"] != w["box-of-starred"]


def test_kunneth_join_tensor_passes_on_chain():
    # distributivity rescues the identity even with the join tensor
    chain_join = FiniteLattice(
        ("0", "1"),
        frozenset({("0", "0"), ("1", "1"), ("0", "1")}),
        {(a, b): max(a, b) for a in "01" for b in "01"},
    )
    c = finset_skeleton(2)
    sys = frame_system(GeometricSetup(c, all_class(c)), chain_join)
    assert check_kunneth(sys, "2>1:0.0", "1>1:0").passed


def test_kunneth_needs_products():
    c = finset_skeleton(1)
    sys = frame_system(GeometricSetup(c, all_class(c)), chain_lattice(1))
    # 1 x 1 exists but any pair whose product escapes the carrier reports
    # the gap instead of deciding
    rep = check_kunneth(sys, "1>1:0", "1>1:0")
    assert rep.passed


# -- fast paths against the all-pairs constructions ------------------------


def _reference_lattice(elements, leq, tensor=None):
    """The exhaustive construction the up-set path replaced: every meet,
    join, bottom and top by search over all elements, and tensor
    monotonicity over every triple.  Returns (meet, join, bot, top)."""
    elements, leq = tuple(elements), frozenset(leq)

    def le(a, b):
        return (a, b) in leq

    els = set(elements)
    for a, b in leq:
        if a not in els or b not in els:
            raise MalformedInputError("order mentions unknown element")
    for a in elements:
        if (a, a) not in leq:
            raise MalformedInputError(f"order not reflexive at {a!r}")
    for a, b in leq:
        if a != b and (b, a) in leq:
            raise MalformedInputError("order not antisymmetric")
        for b2, c in leq:
            if b2 == b and (a, c) not in leq:
                raise MalformedInputError("order not transitive")
    meet, join = {}, {}
    for a in elements:
        for b in elements:
            lower = [x for x in elements if le(x, a) and le(x, b)]
            best = [x for x in lower if all(le(y, x) for y in lower)]
            if len(best) != 1:
                raise MalformedInputError(f"no meet for ({a!r}, {b!r})")
            meet[(a, b)] = best[0]
            upper = [x for x in elements if le(a, x) and le(b, x)]
            best = [x for x in upper if all(le(x, y) for y in upper)]
            if len(best) != 1:
                raise MalformedInputError(f"no join for ({a!r}, {b!r})")
            join[(a, b)] = best[0]
    bots = [x for x in elements if all(le(x, y) for y in elements)]
    tops = [x for x in elements if all(le(y, x) for y in elements)]
    if len(bots) != 1 or len(tops) != 1:
        raise MalformedInputError("lattice must be bounded")
    if tensor is not None:
        for a in elements:
            for b in elements:
                for b2 in elements:
                    if le(b, b2) and not le(tensor[(a, b)], tensor[(a, b2)]):
                        raise MalformedInputError("tensor not monotone in second slot")
                    if le(b, b2) and not le(tensor[(b, a)], tensor[(b2, a)]):
                        raise MalformedInputError("tensor not monotone in first slot")
    return meet, join, bots[0], tops[0]


# messages whose witness the reference finds in the same order
_ORDERED_KINDS = ("order not reflexive", "no meet", "no join", "lattice must be bounded", "tensor not")


def _outcome(build):
    try:
        return build(), None
    except MalformedInputError as exc:
        return None, str(exc)


def _assert_same_lattice(elements, leq, tensor=None):
    ref, ref_err = _outcome(lambda: _reference_lattice(elements, leq, tensor))
    got, err = _outcome(lambda: FiniteLattice(elements, frozenset(leq), tensor))
    assert (ref_err is None) == (err is None), (ref_err, err)
    if ref_err is not None:
        if ref_err.startswith(_ORDERED_KINDS):
            assert err == ref_err
        return
    meet, join, bot, top = ref
    assert {p: meet_of(got, *p) for p in meet} == meet
    assert {p: got.join(*p) for p in join} == join
    assert (got.bot, got.top) == (bot, top)


@st.composite
def small_relations(draw):
    """Up to five elements in a drawn order with a drawn relation: either
    arbitrary pairs, or the reflexive-transitive closure of upward pairs
    (always a partial order, often a lattice) with a few pairs removed."""
    n = draw(st.integers(0, 5))
    elements = draw(st.permutations([f"e{i}" for i in range(n)]))
    if draw(st.booleans()):
        if elements and draw(st.booleans()):
            # repeat one element
            elements = elements + [draw(st.sampled_from(elements))]
        pairs = [(a, b) for a in elements for b in elements]
        return elements, set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    names = sorted(elements)
    up = {(a, b) for i, a in enumerate(names) for b in names[i + 1 :]}
    leq = set(draw(st.lists(st.sampled_from(sorted(up)), unique=True))) if up else set()
    leq |= {(a, a) for a in names}
    changed = True
    while changed:
        closed = leq | {(a, c) for a, b in leq for b2, c in leq if b == b2}
        changed = closed != leq
        leq = closed
    drop = draw(st.lists(st.sampled_from(sorted(leq)), max_size=2)) if leq else []
    return elements, leq - set(drop)


@settings(max_examples=300, deadline=None)
@given(small_relations())
def test_lattice_tables_match_exhaustive_search(rel):
    _assert_same_lattice(*rel)


def _small_lattices():
    return [
        chain_lattice(0),
        chain_lattice(1),
        chain_lattice(2),
        n5_lattice(),
        m3_lattice(),
        power_lattice(chain_lattice(1), 2),
    ]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tensor_monotonicity_matches_exhaustive_scan(data):
    L = data.draw(st.sampled_from(_small_lattices()))
    pairs = [(a, b) for a in L.elements for b in L.elements]
    kind = data.draw(st.sampled_from(("meet", "join", "random")))
    if kind == "meet":
        tensor = {p: meet_of(L, *p) for p in pairs}
    elif kind == "join":
        tensor = {p: L.join(*p) for p in pairs}
    else:
        values = data.draw(st.lists(st.sampled_from(L.elements), min_size=len(pairs), max_size=len(pairs)))
        tensor = dict(zip(pairs, values))
    _assert_same_lattice(L.elements, L.leq, tensor)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lattice_map_monotonicity_matches_all_pairs(data):
    L = data.draw(st.sampled_from(_small_lattices()))
    M = data.draw(st.sampled_from(_small_lattices()))
    values = data.draw(st.lists(st.sampled_from(M.elements), min_size=len(L.elements), max_size=len(L.elements)))
    table = dict(zip(L.elements, values))
    witness = next(
        ((a, b) for a in L.elements for b in L.elements if (a, b) in L.leq and (table[a], table[b]) not in M.leq),
        None,
    )
    _, err = _outcome(lambda: named_map(L, M, table))
    if witness is None:
        assert err is None
    else:
        assert err == f"not monotone on ({witness[0]!r}, {witness[1]!r})"


# -- the adjoint layer against the all-pairs law ----------------------------


_ACCEPTANCE_LATTICES = (chain_lattice(1), chain_lattice(2), n5_lattice())


def test_unit_counit_matches_all_pairs_law_exhaustively():
    # every monotone map between the acceptance lattices, against every
    # monotone candidate back, adjoint or not
    for L in _ACCEPTANCE_LATTICES:
        for M in _ACCEPTANCE_LATTICES:
            back = list(monotone_maps_between(M, L))
            for m in monotone_maps_between(L, M):
                for cand in back:
                    assert _unit_counit(cand, m) == adjunction_holds_left(cand, m)
                    assert _unit_counit(m, cand) == adjunction_holds_right(cand, m)


@functools.lru_cache(maxsize=None)
def _monotone_maps(i: int, j: int) -> list:
    """Every monotone map between two of the small lattices."""
    lats = _small_lattices()
    return list(monotone_maps_between(lats[i], lats[j]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unit_counit_matches_all_pairs_law_on_drawn_maps(data):
    # the small lattices add M3, a one-element chain and the square to
    # the exhaustive sweep; most drawn candidates are not adjoints
    i, j = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    m = data.draw(st.sampled_from(_monotone_maps(i, j)))
    cand = data.draw(st.sampled_from(_monotone_maps(j, i)))
    assert _unit_counit(cand, m) == adjunction_holds_left(cand, m)
    assert _unit_counit(m, cand) == adjunction_holds_right(cand, m)
    # the adjoints found are the ones the law admits
    for adj, holds in ((left_adjoint(m), adjunction_holds_left), (right_adjoint(m), adjunction_holds_right)):
        if adj is None:
            assert not holds(cand, m)
        else:
            assert holds(adj, m) and holds(cand, m) == cand.same_table(adj)


def test_each_adjoint_is_computed_once_per_map(monkeypatch):
    sys = frame_system(GeometricSetup(finset_skeleton(2), all_class(finset_skeleton(2))), chain_lattice(2))
    builds = []
    original = LatticeMap.__post_init__
    monkeypatch.setattr(LatticeMap, "__post_init__", lambda self: (builds.append(self), original(self)))
    for f in sys.category.morphism_ids:
        first = (sys.galois(f).sharp, sys.galois(f).star)
        assert len(builds) == 2
        check_triangles(sys.galois(f))
        check_projection_formula(sys, f, "sharp")
        check_projection_formula(sys, f, "star")
        assert (left_adjoint(sys.pull(f)), right_adjoint(sys.pull(f))) == first
        assert sys.galois(f).sharp is first[0] and sys.galois(f).star is first[1]
        assert len(builds) == 2
        builds.clear()
    # a missing adjoint is remembered too
    L = chain_lattice(1)
    const_bot = named_map(L, L, {"0": "0", "1": "0"})
    builds.clear()
    assert left_adjoint(const_bot) is None and left_adjoint(const_bot) is None
    assert len(builds) == 1


# -- tensor monotonicity along covers ---------------------------------------


def _covers_by_search(L):
    lt = [(a, b) for a in L.elements for b in L.elements if a != b and (a, b) in L.leq]
    return [(a, b) for a, b in lt if not any({(a, c), (c, b)} <= L.leq and c not in (a, b) for c in L.elements)]


def test_covers_match_search():
    for L in _small_lattices() + [power_lattice(n5_lattice(), 2), power_lattice(chain_lattice(2), 2)]:
        assert [(L.elements[b], L.elements[c]) for b, c in L._covers] == _covers_by_search(L)


def _join_tensor_powers():
    return [
        power_lattice(n5_lattice("join"), 1),
        power_lattice(n5_lattice("join"), 2),
        power_lattice(FiniteLattice(("0", "1"), frozenset({("0", "0"), ("1", "1"), ("0", "1")}),
                                    {(a, b): max(a, b) for a in "01" for b in "01"}), 3),
    ]


def test_cover_scan_accepts_join_tensor_powers():
    for L in _join_tensor_powers():
        _assert_same_lattice(L.elements, L.leq, L.tensor_table)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cover_scan_message_matches_exhaustive_scan(data):
    # a join tensor with a few entries overwritten, so that it may fail in
    # either slot or in both
    L = data.draw(st.sampled_from(_join_tensor_powers()))
    tensor = dict(L.tensor_table)
    keys = sorted(tensor)
    for key in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3)):
        tensor[key] = data.draw(st.sampled_from(L.elements))
    if data.draw(st.booleans()):
        # overwrite the mirrored entries too, so both slots can break
        for (a, b), v in list(tensor.items()):
            if v != L.tensor_table[(a, b)]:
                tensor[(b, a)] = v
    _assert_same_lattice(L.elements, L.leq, tensor)


def test_tensor_failing_in_both_slots_reports_the_first():
    L = n5_lattice()
    for slot, message in ((0, "first"), (1, "second")):
        # drop to the bottom once the given slot reaches the top
        tensor = {(a, b): "0" if (a, b)[slot] == "1" else meet_of(L, a, b) for a in L.elements for b in L.elements}
        _assert_same_lattice(L.elements, L.leq, tensor)
        with pytest.raises(MalformedInputError, match=message):
            FiniteLattice(L.elements, L.leq, tensor)
    both = {(a, b): "0" if "1" in (a, b) else meet_of(L, a, b) for a in L.elements for b in L.elements}
    _assert_same_lattice(L.elements, L.leq, both)


def test_tensor_table_keys_and_values_must_be_elements():
    L = chain_lattice(1)
    tensor = {(a, b): meet_of(L, a, b) for a in L.elements for b in L.elements}
    with pytest.raises(MalformedInputError, match="outside the lattice"):
        FiniteLattice(L.elements, L.leq, {**tensor, ("q", "q"): "0"})
    with pytest.raises(MalformedInputError, match="tensor value 'q' outside the lattice"):
        FiniteLattice(L.elements, L.leq, {**tensor, ("0", "1"): "q"})


# -- first witnesses, pinned as digests of whole reports ---------------------


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _commuting_squares(sys):
    """Every square pull(f), pull(g), pull(a), pull(b) with f.a == g.b."""
    c = sys.category
    ids = c.morphism_ids
    for f in ids:
        for g in ids:
            if c.dst(f) != c.dst(g):
                continue
            for a in ids:
                for b in ids:
                    if c.dst(a) != c.src(f) or c.dst(b) != c.src(g) or c.src(a) != c.src(b):
                        continue
                    if c.comp(f, a) == c.comp(g, b):
                        yield SquareData(p=sys.pull(f), u=sys.pull(g), v=sys.pull(a), q=sys.pull(b))


_PINNED = {
    "n5-join": {
        "projection": "36bdd60d0403d4d3011f297f71bebbe090ca4135a86d1ef76aee1b13253b3ce3",
        "comparison": "faef626befe41246d9f0335c0ce2cdcdec88930a320f1bcd09478b1ae42d79ab",
        "adjointable": "b3532f28c85f6053be123cfd38d294289886a2d3f7535a4e7575012e9dd203fd",
    },
    "n5": {
        "projection": "74b52eba2ded52c5ec340b335a4bd0d55739a9fda366ceea0aa0ece380c14387",
        "comparison": "a7fec1477442c56bac188cc68989826450ef11d8f052e81d9ce55ea0262ca5d9",
        "adjointable": "b3532f28c85f6053be123cfd38d294289886a2d3f7535a4e7575012e9dd203fd",
    },
    "chain2": {
        "projection": "9d5b856e50483f19a90afdec4e0c403d076c2462e221093eab0e9419054f53d0",
        "comparison": "0baef7456960ecf311c5d1cc893ffab57d0a648e3bb3a01b218a34257da1a3ec",
        "adjointable": "d683d78cd6aebde1f2db42413a0da4cf77caf6ada8411c14be4e3cb3450f390a",
    },
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_first_witnesses_are_pinned(name):
    L = {"n5-join": n5_lattice("join"), "n5": n5_lattice(), "chain2": chain_lattice(2)}[name]
    c = finset_skeleton(2)
    sys = frame_system(GeometricSetup(c, all_class(c)), L)
    projection = [check_projection_formula(sys, f, fl).to_dict() for f in c.morphism_ids for fl in ("sharp", "star")]
    comparison = [
        projection_witness(sys, f, push(sys.pull(f)), rel)
        for f in c.morphism_ids
        for push in (left_adjoint, right_adjoint)
        for rel in ("<=", ">=")
    ]
    adjointable = [check_adjointable(sq, side).to_dict() for sq in _commuting_squares(sys) for side in ("left", "right")]
    assert len(adjointable) == 498
    got = {"projection": _digest(projection), "comparison": _digest(comparison), "adjointable": _digest(adjointable)}
    assert got == _PINNED[name]
    triangles = [check_triangles(sys.galois(f)).to_dict() for f in c.morphism_ids]
    assert _digest(triangles) == "28c624a4667d16cb9587259d82df8bcd0c831bd9eb5bab7729e298efcd6f07bf"


def test_triangle_witnesses_on_false_adjoints_are_pinned():
    # constant maps stand in for the adjoints, so the triangles can fail
    sys = frame2()
    reports = []
    for f in sys.category.morphism_ids:
        pull = sys.pull(f)
        top = named_map(pull.dst, pull.src, {x: pull.src.top for x in pull.dst.elements})
        bot = named_map(pull.dst, pull.src, {x: pull.src.bot for x in pull.dst.elements})
        reports.append(check_triangles(SimpleNamespace(pullback=pull, sharp=top, star=bot)).to_dict())
    assert _digest(reports) == "a1eb993a58653f086e6e6920a0c81d9dcc74d198ad9adcc0b1eb52f82150966f"
    assert [ch["name"] for ch in reports[3]["checks"] if ch["status"] == "fail"] == [
        "triangle-sharp-inner",
        "triangle-star-inner",
    ]


def test_projection_witness_rejects_unknown_relation():
    sys = frame2()
    with pytest.raises(MalformedInputError, match="relation"):
        projection_witness(sys, "1>1:0", left_adjoint(sys.pull("1>1:0")), "<")


# -- the position core against references keyed by names --------------------


def _first_error_by_names(elements, leq, tensor=None):
    """The first message of a validation over names, check by check in the
    order `FiniteLattice` runs them; None for a lattice."""
    elements, leq = tuple(elements), frozenset(leq)
    index: dict = {}
    for i, x in enumerate(elements):
        index.setdefault(x, i)
    unknown = [(a, b) for a, b in leq if a not in index or b not in index]
    if unknown:
        a, b = min(unknown, key=repr)
        return f"order mentions unknown element ({a!r}, {b!r})"
    for a in elements:
        if (a, a) not in leq:
            return f"order not reflexive at {a!r}"
    names = list(index)
    above = {a: [b for b in names if (a, b) in leq] for a in names}
    for a in elements:
        for b in above[a]:
            if a != b and (b, a) in leq:
                return f"order not antisymmetric on ({a!r}, {b!r})"
            if any(c not in above[a] for c in above[b]):
                return f"order not transitive via {b!r}"
    below = {a: {b for b in names if (b, a) in leq} for a in names}
    repeated = {x for i, x in enumerate(elements) if index[x] != i}

    def unique(cone, target):
        found = [x for x in names if cone[x] == target]
        return len(found) == 1 and found[0] not in repeated

    ups = {a: set(above[a]) for a in names}
    for a in elements:
        for b in elements:
            if not unique(below, below[a] & below[b]):
                return f"no meet for ({a!r}, {b!r})"
            if not unique(ups, ups[a] & ups[b]):
                return f"no join for ({a!r}, {b!r})"
    if not unique(ups, set(names)) or not unique(below, set(names)):
        return "lattice must be bounded"
    if tensor is None:
        return None
    for a in elements:
        for b in elements:
            if (a, b) not in tensor:
                return f"tensor table missing ({a!r}, {b!r})"
    if len(tensor) != len(names) ** 2:
        extra = sorted((p for p in tensor if p[0] not in index or p[1] not in index), key=repr)
        return f"tensor table defined outside the lattice: {extra[:3]}"
    for a in elements:
        for b in elements:
            if tensor[(a, b)] not in index:
                return f"tensor value {tensor[(a, b)]!r} outside the lattice"
    for a in elements:
        for b in elements:
            for b2 in above[b]:
                if (tensor[(a, b)], tensor[(a, b2)]) not in leq:
                    return "tensor not monotone in second slot"
                if (tensor[(b, a)], tensor[(b2, a)]) not in leq:
                    return "tensor not monotone in first slot"
    return None


@st.composite
def tensor_tables(draw, elements):
    """None, or a table over the elements: the pointwise max or min in a
    drawn ranking, or arbitrary values, then perhaps one entry dropped,
    one added outside, or one value sent outside."""
    names = sorted(set(elements))
    kind = draw(st.sampled_from(("none", "rank-max", "rank-min", "random")))
    if kind == "none" or not names:
        return None
    pairs = [(a, b) for a in names for b in names]
    if kind == "random":
        table = dict(zip(pairs, draw(st.lists(st.sampled_from(names), min_size=len(pairs), max_size=len(pairs)))))
    else:
        rank = {x: i for i, x in enumerate(draw(st.permutations(names)))}
        pick = max if kind == "rank-max" else min
        table = {(a, b): pick(a, b, key=rank.__getitem__) for a, b in pairs}
    edit = draw(st.sampled_from(("keep", "keep", "drop", "extra", "outside")))
    if edit == "drop":
        del table[draw(st.sampled_from(pairs))]
    elif edit == "extra":
        table[("zz", draw(st.sampled_from(names)))] = names[0]
    elif edit == "outside":
        table[draw(st.sampled_from(pairs))] = "zz"
    return table


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_relations(), st.data())
def test_validation_raises_the_first_message_of_the_name_sweep(rel, data):
    elements, leq = rel
    if elements and data.draw(st.booleans()):
        leq = leq | {(data.draw(st.sampled_from(elements)), "zz")}
    tensor = data.draw(tensor_tables(elements))
    _, err = _outcome(lambda: FiniteLattice(elements, frozenset(leq), tensor))
    assert err == _first_error_by_names(elements, leq, tensor)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_relations(), st.data())
def test_order_and_tables_match_the_relation_by_names(rel, data):
    elements, leq = rel
    tensor = data.draw(tensor_tables(elements))
    L, err = _outcome(lambda: FiniteLattice(elements, frozenset(leq), tensor))
    if err is not None:
        return
    meet, join, bot, top = _reference_lattice(elements, leq)
    assert {(a, b): (a, b) in L.leq for a in elements for b in elements} == {
        (a, b): (a, b) in leq for a in elements for b in elements
    }
    assert L.leq == frozenset(leq)
    assert {p: meet_of(L, *p) for p in meet} == meet and {p: L.join(*p) for p in join} == join
    assert (L.bot, L.top) == (bot, top)
    assert L.tensor_table == tensor
    assert {p: tensor_of(L, *p) for p in meet} == (meet if tensor is None else tensor)


def _reordered(L, order):
    """L with its elements listed in another order; the same lattice."""
    return FiniteLattice(tuple(L.elements[i] for i in order), L.leq, L.tensor_table)


@st.composite
def listed_lattices(draw):
    """One of the small lattices or a join-tensor power, its elements in a
    drawn order."""
    L = draw(st.sampled_from(_small_lattices() + _join_tensor_powers()[:2]))
    return _reordered(L, draw(st.permutations(range(len(L.elements)))))


def _bound_by_names(L, xs, lower):
    """The meet (lower) or join of the names xs, by search over L's order."""
    le = (lambda a, b: (a, b) in L.leq) if lower else (lambda a, b: (b, a) in L.leq)
    bounds = [z for z in L.elements if all(le(z, x) for x in xs)]
    return next(z for z in bounds if all(le(w, z) for w in bounds))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(listed_lattices(), listed_lattices(), st.data())
def test_adjoints_of_drawn_maps_match_the_formulas_by_names(L, M, data):
    values = data.draw(st.lists(st.sampled_from(M.elements), min_size=len(L.elements), max_size=len(L.elements)))
    m, err = _outcome(lambda: named_map(L, M, dict(zip(L.elements, values))))
    if err is not None:
        return
    left = {x: _bound_by_names(L, [y for y in L.elements if (x, m.table[y]) in M.leq], True) for x in M.elements}
    right = {x: _bound_by_names(L, [y for y in L.elements if (m.table[y], x) in M.leq], False) for x in M.elements}
    for adj, ref, holds in ((left_adjoint(m), left, adjunction_holds_left), (right_adjoint(m), right, adjunction_holds_right)):
        cand = named_map(M, L, ref)
        assert (adj is None) == (not holds(cand, m))
        if adj is not None:
            assert adj.table == ref


def _projection_by_names(sys, L, f, push, relation):
    """The first (E, B) of a sweep over names of powers of L, with the
    tensor and the order taken coordinatewise from L's names."""
    x, y = sys.category.morphisms[f]
    DX, DY = sys.lattice(x), sys.lattice(y)
    pull, pushed_of = sys.pull(f).table, push.table

    def coords(name):
        return name[1:-1].split(",") if name != "()" else []

    def tensor(s, t):
        return "(" + ",".join(tensor_of(L, a, b) for a, b in zip(coords(s), coords(t))) + ")"

    def le(s, t):
        return all((a, b) in L.leq for a, b in zip(coords(s), coords(t)))

    holds = {"==": lambda a, b: a == b, "<=": le, ">=": lambda a, b: le(b, a)}[relation]
    for E in DX.elements:
        for B in DY.elements:
            pushed, tensored = pushed_of[tensor(E, pull[B])], tensor(pushed_of[E], B)
            if not holds(pushed, tensored):
                return {"E": E, "B": B, "pushed-tensor": pushed, "tensor-pushed": tensored}
    return None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(listed_lattices(), st.data())
def test_projection_witness_matches_the_sweep_by_names(L, data):
    # the reference splits tuple names at commas, and L^2 stays small
    if len(L.elements) ** 2 > 36 or any("," in x for x in L.elements):
        L = _reordered(chain_lattice(2), data.draw(st.permutations(range(3))))
    c = finset_skeleton(2)
    sys = frame_system(GeometricSetup(c, all_class(c)), L)
    for f in c.morphism_ids:
        pull = sys.pull(f)
        const = named_map(pull.dst, pull.src, dict.fromkeys(pull.dst.elements, pull.src.top))
        for push in (left_adjoint(pull), right_adjoint(pull), const):
            if push is None:
                continue
            for relation in ("==", "<=", ">="):
                assert projection_witness(sys, f, push, relation) == _projection_by_names(sys, L, f, push, relation)
