"""Factorization setups, exceptional maps, hypotheses, and assembly."""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from corrkit.cli import _pushforwards
from corrkit.corpus import corpus
from corrkit.fincat import (
    FinCategory,
    finset_category,
    finset_skeleton,
    fn_values,
    injections,
    surjections,
)
from corrkit.lattices import (
    chain_lattice,
    compose_maps,
    fiberwise_join_map,
    fiberwise_meet_map,
    frame_system,
    n5_lattice,
)
from corrkit.report import MalformedInputError
from corrkit.setups import EdgeClass, GeometricSetup, all_class, iso_class
from corrkit.shriek import (
    NagataSetup,
    ShriekAssignment,
    assemble_formalism,
    build_shriek,
    cartesian_squares,
    check_base_change_shriek,
    check_class_consistency,
    check_formalism,
    check_independence,
    check_nagata,
    check_shriek_projection,
    span_value,
    verify_hypotheses,
)
from corrkit.spans import Span
from test_cli import _product_lattice
from test_grid import _CLASSES, _grids_by_search, _small_carriers
from test_lattice import m3_lattice


def _setup(max_size=2):
    c = finset_skeleton(max_size)
    return GeometricSetup(c, all_class(c))


def ns_open(s=None):
    # everything open-like, only isomorphisms proper-like
    s = s or _setup()
    c = s.category
    return NagataSetup(s, all_class(c), iso_class(c))


def ns_proper(s=None):
    s = s or _setup()
    c = s.category
    return NagataSetup(s, iso_class(c), all_class(c))


def ns_inj_surj(s=None):
    # marked class inj + surj so every marked map factors inside the
    # truncated carrier; non-bijective endos of the top object would not
    s = s or _setup()
    c = s.category
    e = EdgeClass(c, injections(c) | surjections(c))
    return NagataSetup(
        GeometricSetup(c, e), EdgeClass(c, injections(c)), EdgeClass(c, surjections(c))
    )


def ns_inj_all(s=None):
    s = s or _setup()
    c = s.category
    return NagataSetup(s, EdgeClass(c, injections(c)), all_class(c))


# -- axioms ---------------------------------------------------------------


def test_nagata_positive_instances():
    assert check_nagata(ns_open()).passed
    assert check_nagata(ns_proper()).passed


def test_nagata_inj_surj_fails_exactly_cancellation():
    rep = check_nagata(ns_inj_surj())
    failed = [f.name for f in rep.failures]
    assert failed == ["cancellation-p"]
    w = rep.failures[0].witness
    # a non-surjective map becomes surjective after collapsing
    g, f = w["pair"]
    c = finset_skeleton(2)
    assert c.comp(g, f) == w["composite"]


def test_nagata_inj_all_passes_axioms():
    assert check_nagata(ns_inj_all()).passed


def test_factorizations_of_iso():
    ns = ns_open()
    out = _facts(ns, "2>2:1.0")
    assert ("2", "2>2:1.0", "2>2:0.1") in out  # swap then swap back
    assert all(p in ns.p_class.members for _, _, p in out)


def _facts(ns, f):
    from corrkit.shriek import factorizations

    return factorizations(ns, f)


def _reference_factorizations(ns, f):
    """The per-map scan of hom(x, k) x hom(k, y) for every object k."""
    c = ns.setup.category
    x, y = c.morphisms[f]
    out = []
    for k in c.objects:
        for j in c.hom(x, k):
            if j not in ns.i_class.members:
                continue
            for p in c.hom(k, y):
                if p in ns.p_class.members and c.comp(p, j) == f:
                    out.append((k, j, p))
    return sorted(out)


def test_factorizations_match_comp_loop():
    s3 = _setup(3)
    for ns in (ns_open(), ns_proper(), ns_inj_surj(), ns_inj_all(), ns_inj_surj(s3), ns_open(s3)):
        for f in ns.setup.category.morphism_ids:
            assert _facts(ns, f) == _reference_factorizations(ns, f)


def test_canonical_factorization_is_least():
    ns = ns_inj_surj(_setup(3))
    facts = _facts(ns, "1>2:0")
    assert facts[0][0] == "2"
    assert {k for k, _, _ in facts} == {"2", "3"}


def _square_setups():
    """The corpus factorization setups, and all/iso, iso/all and inj/all on
    the all-function carrier with sizes {0, 1, 1, 2, 2}."""
    out = [inst.build() for inst in corpus() if inst.kind == "nagata"]
    c = finset_category({"a": 0, "b": 1, "c": 1, "d": 2, "e": 2})
    everything, isos, inj = all_class(c), iso_class(c), EdgeClass(c, injections(c))
    for i, p in ((everything, isos), (isos, everything), (inj, everything)):
        out.append(NagataSetup(GeometricSetup(c, everything), i, p))
    return out


def _assert_squares_match_the_grid_search(ns):
    """The squares constructed once over the union of the marked classes,
    filtered, against one backtracking grid search per pair of classes,
    square for square and in order."""
    s = ns.setup
    classes = (s.e, ns.i_class, ns.p_class)
    for a in classes:
        for b in classes:
            per_pair = [
                (g.edges[((0, 1), 0)], g.edges[((1, 0), 1)], g.edges[((0, 0), 0)], g.edges[((0, 0), 1)])
                for g in _grids_by_search(s, [a, b], 2, 1)
            ]
            assert cartesian_squares(ns, a, b) == per_pair


def test_one_square_search_serves_every_class_pair():
    # the four corpus factorization setups among them
    for ns in _square_setups():
        _assert_squares_match_the_grid_search(ns)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_small_carriers(), st.data())
def test_constructed_squares_match_the_grid_search_on_small_carriers(c, data):
    def marked():
        return EdgeClass(c, frozenset(m for m in c.morphism_ids if data.draw(st.booleans())))

    # marked classes drawn at random: they need not hold the isomorphisms
    # or be closed, and the construction keeps exactly the marked squares
    everything = all_class(c)
    e = data.draw(st.sampled_from([everything, marked()]))
    _assert_squares_match_the_grid_search(NagataSetup(GeometricSetup(c, e), marked(), marked()))


# a class of maps between finite sets, read off whether a map is injective
# and whether it is surjective
_BY_KIND = {
    "all": lambda inj, surj: True,
    "iso": lambda inj, surj: inj and surj,
    "inj": lambda inj, surj: inj,
    "surj": lambda inj, surj: surj,
}


def _square_count(c, a="all", b="all") -> int:
    """The cartesian squares with right and bottom in class a, top and left
    in class b, with no pullback taken.  Over every cospan (right, top) of
    maps into one object, n(s) * s! squares, where s = sum over z of
    |right^-1(z)| * |top^-1(z)| is the size of the fiber product and n(s)
    the number of objects of that size: each apex of that size is the fiber
    product through s! bijections, and the classes are closed under them.
    The base change of right along top (bottom) has fiber right^-1(top(y))
    over y, so it is injective exactly when |right^-1(z)| <= 1 on the image
    of top, and surjective exactly when |right^-1(z)| >= 1 there; left is
    the same with right and top swapped."""
    sizes = Counter(c.object_size.values())
    fibers = {m: Counter(fn_values(m)) for m in c.morphism_ids}

    def marked(kind, fiber, over):
        return _BY_KIND[kind](all(fiber[z] <= 1 for z in over), all(fiber[z] >= 1 for z in over))

    count = 0
    for right, top in itertools.product(c.morphism_ids, repeat=2):
        z = c.morphisms[right][1]
        if z != c.morphisms[top][1]:
            continue
        points, f, g = range(c.object_size[z]), fibers[right], fibers[top]
        if marked(a, f, points) and marked(b, g, points) and marked(a, f, g) and marked(b, g, f):
            s = sum(k * g[z] for z, k in f.items())
            count += sizes[s] * math.factorial(s)
    return count


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(lambda sizes: sum(sizes) <= 6))
@example([0, 1, 2])  # 74 squares
@example([1, 2, 3])  # 4,016 squares
@example([0, 1, 1, 2])  # 170 squares
def test_cartesian_squares_of_all_maps_match_the_count_from_fiber_sizes(sizes):
    c = finset_category({f"o{i}": n for i, n in enumerate(sizes)})
    everything = all_class(c)
    ns = NagataSetup(GeometricSetup(c, everything), everything, everything)
    assert len(cartesian_squares(ns, everything, everything)) == _square_count(c)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(lambda sizes: sum(sizes) <= 6),
    st.sampled_from(sorted(_BY_KIND)),
    st.sampled_from(sorted(_BY_KIND)),
)
def test_cartesian_squares_of_marked_classes_match_the_count_from_fiber_sizes(sizes, a, b):
    c = finset_category({f"o{i}": n for i, n in enumerate(sizes)})
    classes = {kind: _CLASSES[kind](c) for kind in _BY_KIND}
    ns = NagataSetup(GeometricSetup(c, classes["all"]), classes[a], classes[b])
    assert len(cartesian_squares(ns, classes[a], classes[b])) == _square_count(c, a, b)


@pytest.mark.parametrize(
    "i, p, squares",
    [
        ("inj", "surj", {"i-base-change": 1926, "p-base-change": 1369, "support-property": 417}),
        ("iso", "all", {"i-base-change": 1223, "p-base-change": 4016, "support-property": 1223}),
        ("all", "iso", {"i-base-change": 4016, "p-base-change": 1223, "support-property": 1223}),
    ],
)
def test_hypotheses_count_the_squares_of_their_classes_from_fiber_sizes(i, p, squares):
    # {1,2,3} with every map marked: each square check reports the count
    # of cartesian_squares(ns, a, b) for its classes (a, b)
    c = finset_category({"1": 1, "2": 2, "3": 3})
    classes = {kind: _CLASSES[kind](c) for kind in _BY_KIND}
    ns = NagataSetup(GeometricSetup(c, classes["all"]), classes[i], classes[p])
    sys = frame_system(ns.setup, chain_lattice(1))
    rep = verify_hypotheses(ns, sys)
    found = {ch.name: ch.witness["squares"] for ch in rep.checks if "squares" in ch.witness}
    pairs = {"i-base-change": (i, "all"), "p-base-change": (p, "all"), "support-property": (i, p)}
    assert found == {name: _square_count(c, *pair) for name, pair in pairs.items()} == squares


def test_exceptional_base_change_counts_the_squares_of_all_maps():
    c = finset_category({"1": 1, "2": 2, "3": 3})
    ns = NagataSetup(GeometricSetup(c, all_class(c)), all_class(c), iso_class(c))
    base_change = check_base_change_shriek(ns, build_shriek(ns, frame_system(ns.setup, chain_lattice(1)))).checks[0]
    assert base_change.witness == {"squares": _square_count(c)} == {"squares": 4016}


def _objects_reversed(ns):
    """The same setup on a carrier that lists its objects in reverse, so
    that factorizations are found out of order."""
    c = ns.setup.category
    rev = FinCategory(tuple(reversed(c.objects)), c.morphisms, c.identity, c.compose, c.object_size)
    s = GeometricSetup(rev, EdgeClass(rev, ns.setup.e.members))
    return NagataSetup(s, EdgeClass(rev, ns.i_class.members), EdgeClass(rev, ns.p_class.members))


def test_factorization_index_matches_the_per_map_scan_for_every_class_pair():
    # one index per hom-set serves every map in it; a fresh setup per pair
    # of classes, so no index is shared between class pairs
    setups = _square_setups()
    for ns in setups + [_objects_reversed(ns) for ns in setups]:
        s = ns.setup
        classes = (s.e, ns.i_class, ns.p_class)
        for a in classes:
            for b in classes:
                fresh = NagataSetup(s, a, b)
                for f in s.category.morphism_ids:
                    assert _facts(fresh, f) == _reference_factorizations(fresh, f)


# -- hypotheses and construction ------------------------------------------


def test_hypotheses_pass_for_open_instance():
    s = _setup()
    sys = frame_system(s, chain_lattice(1))
    rep = verify_hypotheses(ns_open(s), sys)
    assert rep.passed
    counts = {ch.name: ch.witness for ch in rep.checks}
    assert counts["support-property"]["squares"] > 0


def test_hypotheses_pass_for_proper_instance():
    s = _setup()
    sys = frame_system(s, chain_lattice(1))
    assert verify_hypotheses(ns_proper(s), sys).passed


def test_hypotheses_pass_for_inj_surj_despite_axiom_failure():
    # the hypothesis layer is independent of the axiom layer
    s = _setup()
    sys = frame_system(s, chain_lattice(1))
    assert verify_hypotheses(ns_inj_surj(s), sys).passed


def test_support_property_fails_for_inj_all():
    s = _setup()
    sys = frame_system(s, chain_lattice(1))
    rep = verify_hypotheses(ns_inj_all(s), sys)
    assert not rep.passed
    bad = rep.first_failure()
    assert bad.name == "support-property"
    w = bad.witness["witness"]
    # the mate disagrees at the point missing from the open image: the
    # extension-by-bottom side against the empty-fiber-top side
    assert "0" in w["via-adjoint-then-down"] and "1" in w["via-down-then-adjoint"]


def _all_iso_over(L):
    """The gate's hypotheses on the all/iso carrier {a: 1, b: 2} with base
    lattice L, which the theorem suite fixes to a 2-chain."""
    c = finset_category({"a": 1, "b": 2})
    ns = NagataSetup(GeometricSetup(c, all_class(c)), all_class(c), iso_class(c))
    return verify_hypotheses(ns, frame_system(ns.setup, L))


@pytest.mark.parametrize(
    "L, pushed",
    [(n5_lattice(), "(a)"), (m3_lattice(), "(0)")],
    ids=["n5", "m3"],
)
def test_the_sharp_hypothesis_fails_over_a_non_distributive_base(L, pushed):
    # the map merging b's two points pushes E = (a,b) to a v b = 1, so
    # f_#E ^ (c) = c, while f_#(E ^ f^*(c)) joins a ^ c and b ^ c
    bad = _all_iso_over(L).first_failure()
    assert bad.name == "projection-formula-sharp"
    assert bad.witness == {
        "morphism": "b>a:0.0",
        "witness": {"E": "(a,b)", "B": "(c)", "pushed-tensor": pushed, "tensor-pushed": "(c)"},
    }


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.lists(st.integers(2, 4), min_size=1, max_size=2))
@example([2])
@example([2, 2])
@example([4, 4])
def test_the_hypotheses_hold_over_products_of_chains(sizes):
    # a product of chains is distributive, so the sharp equality holds
    rep = _all_iso_over(_product_lattice([f"C{n}" for n in sizes], "meet"))
    assert rep.passed, rep.first_failure().witness


def test_build_shriek_open_is_fiberwise_join():
    for L in (chain_lattice(1), chain_lattice(2)):
        s = _setup()
        sys = frame_system(s, L)
        sa = build_shriek(ns_open(s), sys)
        for f in s.category.morphism_ids:
            x, y = s.category.morphisms[f]
            oracle = fiberwise_join_map(f, sys.lattice(x), sys.lattice(y), L)
            assert sa.shriek[f].same_table(oracle)


def test_build_shriek_proper_is_fiberwise_meet():
    for L in (chain_lattice(1), chain_lattice(2)):
        s = _setup()
        sys = frame_system(s, L)
        sa = build_shriek(ns_proper(s), sys)
        for f in s.category.morphism_ids:
            x, y = s.category.morphisms[f]
            oracle = fiberwise_meet_map(f, sys.lattice(x), sys.lattice(y), L)
            assert sa.shriek[f].same_table(oracle)


def test_build_shriek_leaves_class_consistency_to_its_caller():
    # injections open-like and everything proper-like fail the support
    # property, and the maps along the canonical factorizations break class
    # consistency; the callers that report these checks gate on them, so
    # building the maps checks neither
    s = _setup()
    sys = frame_system(s, chain_lattice(1))
    rep = check_class_consistency(build_shriek(ns_inj_all(s), sys))
    assert rep.first_failure().witness == {"morphism": "0>1:", "class": "open-like"}


def test_class_consistency():
    s = _setup()
    sys = frame_system(s, chain_lattice(1))
    sa = build_shriek(ns_open(s), sys)
    assert check_class_consistency(sa).passed
    mutated = dict(sa.shriek)
    f = "2>1:0.0"
    x, y = s.category.morphisms[f]
    mutated[f] = fiberwise_meet_map(f, sys.lattice(x), sys.lattice(y), chain_lattice(1))
    broken = ShriekAssignment(sa.ns, sys, mutated)
    assert not check_class_consistency(broken).passed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    st.sampled_from([chain_lattice(1), chain_lattice(2), n5_lattice("meet"), n5_lattice("join")]),
)
def test_all_open_iso_proper_maps_are_class_consistent_by_construction(sizes, L):
    # f_! = p_* j_# with p an isomorphism, and p_* = p_# for one, so f_! is
    # f_#, and f_* too when f is an isomorphism: an exceptional pair builds
    # its maps this way and needs no class-consistency gate
    c = finset_category({f"o{i}": n for i, n in enumerate(sizes)})
    s = GeometricSetup(c, all_class(c))
    sa = build_shriek(NagataSetup(s, all_class(c), iso_class(c)), frame_system(s, L))
    assert check_class_consistency(sa).passed


@st.composite
def _carriers_to_three(draw):
    """All-function carriers of object size at most 3, some with two
    objects of one size."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    if draw(st.booleans()):
        sizes.append(draw(st.sampled_from(sizes)))
    return finset_category({f"o{i}": n for i, n in enumerate(sizes)})


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_carriers_to_three(), st.sampled_from([chain_lattice(1), chain_lattice(2)]))
def test_the_exceptional_pair_tables_are_the_maps_all_iso_builds(c, L):
    # an exceptional pair reads f_# where all/iso builds p_* j_# from the
    # least factorization; where two objects have one size, that
    # factorization may pass through an isomorphism between them
    s = GeometricSetup(c, all_class(c))
    ns = NagataSetup(s, all_class(c), iso_class(c))
    sys = frame_system(s, L)
    sa = build_shriek(ns, sys)
    push = _pushforwards(sys, c.morphism_ids)
    assert sorted(push) == sorted(sa.shriek)
    assert [f for f in sorted(push) if not sa.shriek[f].same_table(push[f])] == []
    if len(set(c.object_size.values())) < len(c.objects):
        least = (_facts(ns, f)[0] for f in c.morphism_ids)
        assert any(c.src(p) != c.dst(p) for _, _, p in least)


# -- independence ---------------------------------------------------------


def test_independence_holds_on_valid_instances():
    s = _setup()
    sys = frame_system(s, chain_lattice(1))
    for ns in (ns_open(s), ns_proper(s)):
        for f in s.category.morphism_ids:
            assert check_independence(ns, sys, f).passed


def test_independence_fails_for_padded_factorization():
    # image factorization K=2 against the padded K=3: the extra point takes
    # bottom on one route and collapses the estimate on the other
    s = _setup(3)
    sys = frame_system(s, chain_lattice(1))
    rep = check_independence(ns_inj_surj(s), sys, "1>2:0")
    assert not rep.passed
    w = rep.first_failure().witness
    assert w["factorization"][0] == "3"
    assert w["canonical"] != w["candidate"]


# -- base change and projection for the assembled maps --------------------


def test_base_change_shriek_passes():
    s = _setup()
    sys = frame_system(s, chain_lattice(1))
    for ns in (ns_open(s), ns_proper(s)):
        sa = build_shriek(ns, sys)
        rep = check_base_change_shriek(ns, sa)
        assert rep.passed
        assert rep.checks[0].witness["squares"] > 0


def test_base_change_shriek_detects_mutation():
    s = _setup()
    sys = frame_system(s, chain_lattice(1))
    ns = ns_open(s)
    sa = build_shriek(ns, sys)
    mutated = dict(sa.shriek)
    f = "2>1:0.0"
    x, y = s.category.morphisms[f]
    mutated[f] = fiberwise_meet_map(f, sys.lattice(x), sys.lattice(y), chain_lattice(1))
    broken = ShriekAssignment(ns, sys, mutated)
    rep = check_base_change_shriek(ns, broken)
    assert not rep.passed
    assert rep.first_failure().witness["square"]


def test_shriek_projection_formula():
    s = _setup()
    sys = frame_system(s, chain_lattice(2))
    for ns in (ns_open(s), ns_proper(s)):
        sa = build_shriek(ns, sys)
        assert check_shriek_projection(ns, sa).passed


def test_shriek_projection_fails_on_pentagon():
    s = _setup()
    sys = frame_system(s, n5_lattice())
    ns = ns_open(s)
    sa = build_shriek(ns, sys)
    rep = check_shriek_projection(ns, sa)
    assert not rep.passed
    w = rep.first_failure().witness["witness"]
    assert w["E"] and w["B"]


# -- formalism assembly ---------------------------------------------------


def test_formalism_open_instance():
    s = _setup()
    sys = frame_system(s, chain_lattice(1))
    ns = ns_open(s)
    sa = build_shriek(ns, sys)
    fm = assemble_formalism(ns, sa)
    rep = check_formalism(fm)
    assert rep.passed
    comp = next(ch for ch in rep.checks if ch.name == "composition")
    assert comp.witness["covered"] > 0


def test_formalism_proper_instance():
    s = _setup()
    sys = frame_system(s, chain_lattice(1))
    ns = ns_proper(s)
    sa = build_shriek(ns, sys)
    assert check_formalism(assemble_formalism(ns, sa)).passed


def test_formalism_mutation_located():
    s = _setup()
    sys = frame_system(s, chain_lattice(1))
    ns = ns_open(s)
    sa = build_shriek(ns, sys)
    fm = assemble_formalism(ns, sa)
    target = fm.hcorr.class_id(Span("2>1:0.0", "2>2:0.0"))
    fm.mor_map[target] = compose_maps(sys.pull("2>2:1.0"), fm.mor_map[target])
    rep = check_formalism(fm)
    assert not rep.passed
    failed = {f.name for f in rep.failures}
    assert "composition" in failed


def _composition_counts(sizes) -> tuple[int, int]:
    """`formalism:composition`'s (pairs, covered) over the all-function
    carrier on `sizes` with every map marked, with no span composed.  A span
    class x -> y is an |x| by |y| matrix over N whose entries sum to an
    object size (stars and bars).  Classes a: x -> y and b: y -> z compose
    through the fiber product of a's right leg and b's left leg, whose size
    is a's column sums dotted with b's row sums; the pair is covered
    exactly when some object has that size."""
    apexes = set(sizes)
    cols, rows = {}, {}
    for x, y in itertools.product(range(len(sizes)), repeat=2):
        m, n = sizes[x], sizes[y]
        cols[(x, y)], rows[(x, y)] = Counter(), Counter()
        for total in apexes:
            for cells in itertools.combinations_with_replacement(range(m * n), total):
                cols[(x, y)][tuple(sum(1 for k in cells if k % n == j) for j in range(n))] += 1
                rows[(x, y)][tuple(sum(1 for k in cells if k // n == i) for i in range(m))] += 1
    pairs = covered = 0
    for x, y, z in itertools.product(range(len(sizes)), repeat=3):
        pairs += cols[(x, y)].total() * rows[(y, z)].total()
        for col, a_count in cols[(x, y)].items():
            for row, b_count in rows[(y, z)].items():
                if sum(i * j for i, j in zip(col, row)) in apexes:
                    covered += a_count * b_count
    return pairs, covered


def _composition_report(sizes) -> tuple[int, int]:
    c = finset_category({f"o{i}": n for i, n in enumerate(sizes)})
    s = GeometricSetup(c, all_class(c))
    ns = NagataSetup(s, all_class(c), iso_class(c))
    rep = check_formalism(assemble_formalism(ns, build_shriek(ns, frame_system(s, chain_lattice(1)))))
    note = next(ch for ch in rep.checks if ch.name == "composition").witness
    return note["pairs"], note["covered"]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(lambda sizes: sum(sizes) <= 6))
def test_formalism_composition_matches_the_count_from_span_matrices(sizes):
    assert _composition_report(sizes) == _composition_counts(sizes)


@pytest.mark.parametrize(
    "sizes, counts",
    [
        ([1, 2], (410, 264)),
        ([0, 1, 2], (593, 545)),
        ([1, 1, 2], (738, 476)),
        ([2, 2], (800, 512)),
        ([1, 2, 3], (119878, 72786)),
    ],
)
def test_formalism_composition_on_five_carriers(sizes, counts):
    assert _composition_report(sizes) == _composition_counts(sizes) == counts


def test_span_value_requires_marked_right_leg():
    s = _setup()
    sys = frame_system(s, chain_lattice(1))
    ns = NagataSetup(
        GeometricSetup(s.category, iso_class(s.category)),
        iso_class(s.category),
        iso_class(s.category),
    )
    sa = build_shriek(ns, sys)
    with pytest.raises(MalformedInputError):
        span_value(sa, Span("1>1:0", "1>2:0"))
