"""Span composition, the homotopy category, coproducts, tensor edges."""

import hashlib
import itertools
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from corrkit.fincat import (
    FunctorData,
    check_category,
    check_functor,
    finset_category,
    finset_skeleton,
    injections,
    opposite,
    surjections,
    verify_pullback_square,
    wide_subcategory,
)
from corrkit.grid import cp_name, cp_parse, exact_squares
from corrkit.report import MalformedInputError, ResourceLimitError
from corrkit.setups import EdgeClass, GeometricSetup, all_class, iso_class
from corrkit.spans import (
    HCorr,
    Span,
    TensorEdge,
    check_coproduct,
    check_span_laws,
    classify_cocartesian,
    compose_spans,
    corr_simplices,
    homotopy_category,
    identity_span,
    is_cocartesian,
    span_class_key,
    spans_between,
)

from helpers import find_span_iso, simplex_edge, spans_isomorphic


def setup_all(max_size=2):
    c = finset_skeleton(max_size)
    return GeometricSetup(c, all_class(c))


def setup_isos(max_size=2):
    c = finset_skeleton(max_size)
    return GeometricSetup(c, iso_class(c))


# -- composition ----------------------------------------------------------


def test_spans_are_equal_hashed_and_ordered_as_their_leg_pairs():
    # `HCorr.classes` keeps min(rep, span) as a class representative, and
    # span maps key dicts by spans
    pairs = [*itertools.product(("1>1:0", "2>1:0.0", "2>2:0.1"), repeat=2), ("2>1:0.0", "1>1:0")]
    spans = [Span(*p) for p in pairs]
    for (p, s), (q, t) in itertools.product(zip(pairs, spans), repeat=2):
        assert (s == t, s != t, s < t) == (p == q, p != q, p < q)
    assert [hash(s) for s in spans] == [hash(p) for p in pairs]
    assert sorted(spans) == [Span(*p) for p in sorted(pairs)]
    assert min(Span("2>1:0.0", "1>1:0"), Span("1>1:0", "2>2:0.1")) == Span("1>1:0", "2>2:0.1")
    assert len(set(spans)) == len(set(pairs)) == len(pairs) - 1
    assert Span("1>1:0", "1>1:0") != ("1>1:0", "1>1:0")


def test_compose_fiber_product_example():
    # {a,b} <- {w} -> {y} then {y} <- {v1,v2} -> {z}: apex has 2 elements
    s = setup_all()
    c = s.category
    a = Span("1>2:0", "1>1:0")
    b = Span("2>1:0.0", "2>1:0.0")
    ab = compose_spans(s, a, b)
    assert c.object_size[c.src(ab.left)] == 2


def test_compose_with_identity_span_is_unit():
    s = setup_all()
    c = s.category
    sp = Span("2>1:0.0", "2>2:1.0")
    lhs = compose_spans(s, identity_span(c, "1"), sp)
    rhs = compose_spans(s, sp, identity_span(c, "2"))
    assert spans_isomorphic(c, lhs, sp)
    assert spans_isomorphic(c, rhs, sp)


def test_compose_left_iso_is_postcomposition():
    s = setup_all()
    c = s.category
    a = Span("2>1:0.0", "2>2:0.1")
    swap = Span("2>2:1.0", "2>2:0.1")  # left leg iso
    ab = compose_spans(s, a, swap)
    inverse = next(n for n in c.hom("2", "2") if c.comp(n, "2>2:1.0") == c.identity["2"])
    assert spans_isomorphic(c, ab, Span(a.left, c.comp("2>2:0.1", c.comp(inverse, a.right))))


def test_class_key_agrees_with_iso_search():
    s = setup_all()
    c = s.category
    spans = spans_between(s, "2", "2", max_apex=2)
    for a in spans:
        for b in spans:
            assert (span_class_key(c, a) == span_class_key(c, b)) == spans_isomorphic(c, a, b)


def test_class_key_generic_carrier():
    from corrkit.fincat import chain_category

    c = chain_category(2)
    s = GeometricSetup(c, all_class(c))
    a = Span("0<=1", "0<=2")
    b = Span("0<=1", "0<=2")
    assert span_class_key(c, a) == span_class_key(c, b)
    assert find_span_iso(c, a, b) == "0<=0"


# -- homotopy category ----------------------------------------------------


def test_hcorr_classes_over_tiny_carrier():
    s = setup_all(1)
    hc = HCorr(s)
    assert len(hc.classes("1", "1")) == 2  # empty apex and singleton apex


def _span_class_counts(sizes) -> dict:
    """(x, y) -> the number of span classes x -> y over the all-function
    carrier on `sizes` with every map marked, read from `HCorr.classes`
    and in closed form.  A span x <- w -> y is a map w -> x * y, so its
    class is a multiset of |w| points of x * y: stars and bars gives
    C(|w| + |x||y| - 1, |w|) classes per apex size, and when |x||y| = 0
    only the empty span is left."""
    c = finset_category({f"o{i}": n for i, n in enumerate(sizes)})
    hc = HCorr(GeometricSetup(c, all_class(c)))
    counts = {}
    for x in c.objects:
        for y in c.objects:
            points = c.object_size[x] * c.object_size[y]
            closed = 1 if points == 0 else sum(math.comb(k + points - 1, k) for k in set(sizes))
            counts[(x, y)] = (len(hc.classes(x, y)), closed)
    return counts


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_span_classes_of_all_maps_match_the_count_by_stars_and_bars(sizes):
    counts = _span_class_counts(sizes)
    assert all(found == closed for found, closed in counts.values()), counts


def test_span_classes_over_sizes_1_2_4():
    counts = _span_class_counts([1, 2, 4])
    assert all(found == closed for found, closed in counts.values()), counts
    assert sum(found for found, _ in counts.values()) == 4946


def test_homotopy_category_is_a_category():
    s = setup_all(1)
    hc = homotopy_category(s)
    assert check_category(hc).passed


def test_homotopy_category_isos_matches_opposite():
    s = setup_isos(2)
    hc = homotopy_category(s)
    assert check_category(hc).passed
    c = s.category
    cop = opposite(c)
    for x in c.objects:
        for y in c.objects:
            assert len(hc.hom(x, y)) == len(cop.hom(x, y))


def test_identity_class_is_unit():
    s = setup_all(1)
    hc = homotopy_category(s)
    for m in hc.morphism_ids:
        x, y = hc.morphisms[m]
        assert hc.comp(m, hc.identity[x]) == m
        assert hc.comp(hc.identity[y], m) == m


def test_spans_through_every_apex_have_classes():
    # the 5-element apex is past every former bound on span apexes
    c = finset_category({"1": 1, "5": 5})
    hc = HCorr(GeometricSetup(c, all_class(c)))
    assert len(hc.classes("1", "1")) == 2
    assert hc.class_id(Span("5>5:0.1.2.3.4", "5>1:0.0.0.0.0")) == "[5>5:0.1.2.3.4;5>1:0.0.0.0.0]"


def test_a_missing_fiber_product_is_a_gap_and_a_malformed_span_is_not():
    s = setup_all(2)
    # 2 x_1 2 needs a 4-element carrier, absent from this skeleton
    with pytest.raises(ResourceLimitError, match="no pullback exists"):
        s.pullback("2>1:0.0", "2>1:0.0")
    hc = HCorr(s)
    down, up = Span("2>2:0.1", "2>1:0.0"), Span("2>1:0.0", "2>2:0.1")
    with pytest.raises(ResourceLimitError, match=r"no pullback exists for cospan \('2>1:0.0', '2>1:0.0'\)"):
        hc.compose_reps(down, up)
    # up ends at 2 and starts at 1, so up then up does not compose
    with pytest.raises(MalformedInputError, match="not composable") as err:
        hc.compose_reps(up, up)
    assert not isinstance(err.value, ResourceLimitError)


def test_pi_functors():
    # C^op -> hCorr sends f to the span (f, id); C_E -> hCorr sends f to (id, f)
    for s in (setup_all(1), setup_isos(2)):
        hc = HCorr(s)
        c, target = s.category, hc.category()
        objs = {x: x for x in c.objects}
        pi_all = FunctorData(
            opposite(c), target, objs, {m: hc.class_id(Span(m, c.identity[c.src(m)])) for m in c.morphism_ids}
        )
        c_e = wide_subcategory(c, s.e.members)
        pi_e = FunctorData(c_e, target, objs, {m: hc.class_id(Span(c.identity[c.src(m)], m)) for m in c_e.morphism_ids})
        assert check_functor(pi_all).passed
        assert check_functor(pi_e).passed


def test_span_laws_small():
    s = setup_all(2)
    rep = check_span_laws(s, ["0", "1", "2"], apex_bound=1)
    assert rep.passed
    cov = next(ch for ch in rep.checks if ch.name == "associativity-up-to-iso")
    assert cov.witness["covered"] > 0


def _span_law_counts(sizes: dict, feet, apex_bound: int) -> tuple[int, int]:
    """`associativity-up-to-iso`'s (triples, covered) over the all-function
    carrier on `sizes` with every map marked, with no span composed.  A span
    x <- w -> y is an |x| by |y| matrix M over N whose entries sum to |w|,
    and |w|!/prod M_ij! spans with apex w share it.  The apex of a then b
    has colsums(M_a).rowsums(M_b) points, and that of (a then b) then d has
    colsums(M_a).M_b.rowsums(M_d), since a then b has the matrix M_a M_b.  A
    triple is covered when a then b, b then d and (a then b) then d each
    have an object of their size."""
    held = set(sizes.values())
    apexes = Counter(n for n in sizes.values() if n <= apex_bound)
    spans = {}
    for x, y in itertools.product(feet, repeat=2):
        m, n = sizes[x], sizes[y]
        spans[(x, y)] = Counter()
        for w, objects in apexes.items():
            for cells in itertools.combinations_with_replacement(range(m * n), w):
                M = tuple(tuple(cells.count(i * n + j) for j in range(n)) for i in range(m))
                shared = math.factorial(w) // math.prod(math.factorial(k) for row in M for k in row)
                spans[(x, y)][M] += objects * shared

    def cols(M, n):
        return tuple(sum(row[j] for row in M) for j in range(n))

    def dot(u, v):
        return sum(p * q for p, q in zip(u, v))

    triples = covered = 0
    for x, y, z, t in itertools.product(feet, repeat=4):
        a = Counter()
        for M, k in spans[(x, y)].items():
            a[cols(M, sizes[y])] += k
        d = Counter()
        for M, k in spans[(z, t)].items():
            d[tuple(map(sum, M))] += k
        triples += a.total() * spans[(y, z)].total() * d.total()
        for b, kb in spans[(y, z)].items():
            b_cols, b_rows = cols(b, sizes[z]), tuple(map(sum, b))
            for u, ka in a.items():
                ub = tuple(sum(p * row[k] for p, row in zip(u, b)) for k in range(sizes[z]))
                if dot(u, b_rows) in held:
                    covered += ka * kb * sum(kd for v, kd in d.items() if dot(b_cols, v) in held and dot(ub, v) in held)
    return triples, covered


def _span_law_report(sizes: dict, feet, apex_bound: int) -> tuple[int, int]:
    c = finset_category(sizes)
    rep = check_span_laws(GeometricSetup(c, all_class(c)), feet, apex_bound)
    assert rep.passed
    note = next(ch for ch in rep.checks if ch.name == "associativity-up-to-iso").witness
    return note["triples"], note["covered"]


def test_span_law_coverage_on_the_two_skeleton_matches_the_count_from_span_matrices():
    # the carrier and feet of `corr hocat`
    sizes = {"0": 0, "1": 1, "2": 2}
    assert _span_law_report(sizes, sizes, 2) == _span_law_counts(sizes, sizes, 2) == (22739, 18729)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(lambda sizes: sizes.count(2) <= 1), st.data())
def test_span_law_coverage_matches_the_count_from_span_matrices(sizes, data):
    named = {f"o{i}": n for i, n in enumerate(sizes)}
    feet = data.draw(st.lists(st.sampled_from(sorted(named)), min_size=1, max_size=3, unique=True))
    bound = data.draw(st.integers(0, 2))
    assert _span_law_report(named, feet, bound) == _span_law_counts(named, feet, bound)


def test_span_laws_report_first_failing_triple(monkeypatch):
    # a key that tells every span apart breaks associativity on every
    # covered triple; the witness must be the first in scan order
    import corrkit.spans as spans_mod

    s = setup_all(1)
    keys = itertools.count()
    monkeypatch.setattr(spans_mod, "span_class_key", lambda c, sp: next(keys))
    rep = check_span_laws(s, ["1"], apex_bound=1)
    first = spans_between(s, "1", "1", 1)[0]
    assoc = next(ch for ch in rep.checks if ch.name == "associativity-up-to-iso")
    assert assoc.status == "fail"
    assert assoc.witness == {"triple": [[first.left, first.right]] * 3}


# -- correspondence simplices ---------------------------------------------


def test_corr_simplices_dim0():
    s = setup_all(1)
    cells = corr_simplices(s, 0)
    assert len(cells) == len(s.category.objects)


def test_corr_simplices_dim1_are_spans():
    s = setup_all(1)
    cells = corr_simplices(s, 1)
    total_spans = sum(
        len(spans_between(s, x, y)) for x in s.category.objects for y in s.category.objects
    )
    assert len(cells) == total_spans


def test_corr_simplices_dim1_isos_marking():
    s = setup_isos(2)
    for cs in corr_simplices(s, 1):
        sp = simplex_edge(cs, (0, 0), (1, 1))
        assert sp.right in s.category.iso_ids


def test_corr_2_cells_outer_edge_composite():
    s = setup_all(1)
    cells = corr_simplices(s, 2)
    assert cells
    for cs in cells:
        e01 = simplex_edge(cs, (0, 0), (1, 1))
        e12 = simplex_edge(cs, (1, 1), (2, 2))
        e02 = simplex_edge(cs, (0, 0), (2, 2))
        assert spans_isomorphic(s.category, compose_spans(s, e01, e12), e02)


def test_corr_2_cells_cover_composable_pairs():
    s = setup_all(1)
    c = s.category
    cells = corr_simplices(s, 2)
    found = {
        (span_class_key(c, simplex_edge(cs, (0, 0), (1, 1))), span_class_key(c, simplex_edge(cs, (1, 1), (2, 2))))
        for cs in cells
    }
    for x in c.objects:
        for y in c.objects:
            for z in c.objects:
                for a in spans_between(s, x, y):
                    for b in spans_between(s, y, z):
                        assert (span_class_key(c, a), span_class_key(c, b)) in found



def _cell_rows(cells) -> list[dict]:
    """The cells as `corr enumerate` writes them."""
    return [{"objects": cs.functor.obj_map, "morphisms": cs.functor.mor_map} for cs in cells]


def _vertical_relations(cs) -> list[str]:
    """Images of the relations (i, j) <= (i', j) with i < i'."""
    out = []
    for name, m in cs.functor.mor_map.items():
        a, b = (cp_parse(v) for v in name.split("<="))
        if a[1] == b[1] and a[0] < b[0]:
            out.append(m)
    return out


def _two_cell_count(s) -> int:
    """Over composable spine pairs x <- w -> y <- v -> z with right legs in
    E, |P|! cones into each object of |P| elements, P = w x_y v."""
    c = s.category
    values, sizes = c.function_values, c.object_size
    spines = {
        (x, y): [(l, r) for w in c.objects for l in c.hom(w, x) for r in c.hom(w, y) if r in s.e.members]
        for x in c.objects
        for y in c.objects
    }
    count = 0
    for x, y, z in itertools.product(c.objects, repeat=3):
        for (_, r), (l, _) in itertools.product(spines[(x, y)], spines[(y, z)]):
            over = Counter(values[l])
            p = sum(over[u] for u in values[r])
            count += math.factorial(p) * sum(1 for o in c.objects if sizes[o] == p)
    return count


CLASSES = {"all": all_class, "iso": iso_class, "inj": lambda c: EdgeClass(c, injections(c)),
           "surj": lambda c: EdgeClass(c, surjections(c))}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(lambda sizes: sum(sizes) <= 4),
    st.sampled_from(sorted(CLASSES)),
)
def test_constructed_2_cells_are_the_marked_staircase_functors(sizes, e):
    c = finset_category({f"o{k}": size for k, size in enumerate(sizes)})
    s = GeometricSetup(c, CLASSES[e](c))
    cells = corr_simplices(s, 2)
    for cs in cells:
        F = cs.functor
        assert check_functor(F).passed
        assert all(m in s.e.members for m in _vertical_relations(cs))
        for sq in exact_squares(2):
            tl, bl, tr, br = (cp_name(v) for v in sq.corners())
            cospan = (F.mor_map[f"{bl}<={br}"], F.mor_map[f"{tr}<={br}"])
            cone = (F.obj_map[tl], F.mor_map[f"{tl}<={bl}"], F.mor_map[f"{tl}<={tr}"])
            assert verify_pullback_square(c, *cospan, *cone)
    rows = _cell_rows(cells)
    assert len({json.dumps(r, sort_keys=True) for r in rows}) == len(rows)
    assert len(cells) == _two_cell_count(s)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.sampled_from([{"a": 0, "b": 1, "c": 2}, {"a": 0, "b": 2}, {"a": 1, "b": 1}]), st.data())
def test_the_cells_of_any_class_are_the_cells_of_all_maps_with_vertical_relations_in_it(sizes, data):
    # a drawn class need not be stable under pullback, so a cone's vertical
    # edge may leave it; such a cell is dropped and the order is kept
    c = finset_category(sizes)
    marked = data.draw(st.sets(st.sampled_from(c.morphism_ids)))
    s = GeometricSetup(c, EdgeClass(c, frozenset(marked)))
    for n in (1, 2):
        every = corr_simplices(GeometricSetup(c, all_class(c)), n)
        kept = [cs for cs in every if all(m in marked for m in _vertical_relations(cs))]
        assert _cell_rows(corr_simplices(s, n)) == _cell_rows(kept)


# the 2-cells `corr enumerate` writes for these carriers, recorded from the
# staircase-functor search before the cells were constructed from their spine
CORR_2_CELL_SHA256 = {
    "{a: 0, b: 1, c: 1}, all maps": (
        lambda: finset_category({"a": 0, "b": 1, "c": 1}), all_class,
        139, "1ae52b5579db0566dab45d1340b7ebe98ca6c8cab091aea5095bf5753713fb4c"),
    "2-skeleton, injections": (
        lambda: finset_skeleton(2), lambda c: EdgeClass(c, injections(c)),
        478, "84ed8502ea93790fc5bd66c4df1ed0df3fd0c6e51f3302e2a58d5582637c1cae"),
}


@pytest.mark.parametrize("setup", list(CORR_2_CELL_SHA256))
def test_corr_2_cell_bytes_are_pinned(setup):
    carrier, marking, count, digest = CORR_2_CELL_SHA256[setup]
    c = carrier()
    rows = _cell_rows(corr_simplices(GeometricSetup(c, marking(c)), 2))
    text = json.dumps(rows, sort_keys=True, indent=2)
    assert (len(rows), hashlib.sha256(text.encode()).hexdigest()) == (count, digest)


# -- coproducts -----------------------------------------------------------


def carrier_with_sums():
    return finset_category({str(k): k for k in range(5)})


def test_coproduct_singletons():
    c = carrier_with_sums()
    s = GeometricSetup(c, all_class(c))
    rep = check_coproduct(s, "1", "1", targets=["0", "1", "2"])
    assert rep.passed


def test_coproduct_with_empty_factor():
    c = carrier_with_sums()
    s = GeometricSetup(c, all_class(c))
    rep = check_coproduct(s, "0", "2", targets=["1", "2"])
    assert rep.passed


def test_coproduct_fails_with_iso_class():
    c = finset_skeleton(2)
    s = GeometricSetup(c, iso_class(c))
    rep = check_coproduct(s, "1", "1")
    assert not rep.passed
    failed = rep.first_failure()
    assert failed.name == "inclusion-spans-marked"
    assert failed.witness["legs"]


def test_coproduct_missing_carrier_object():
    c = finset_skeleton(2)
    s = GeometricSetup(c, all_class(c))
    rep = check_coproduct(s, "1", "2")  # 1 + 2 = 3 is outside the carrier
    assert not rep.passed
    assert rep.first_failure().name == "carrier-coproduct-exists"


# -- tensor edges ---------------------------------------------------------


def _product_edge(c, iso="2>2:0.1"):
    # alpha: <2> -> <1> active; apex 2 = 1 x 2 with genuine projections
    return TensorEdge(
        category=c,
        alpha=(1, 1),
        sources=("1", "2"),
        targets=("2",),
        apexes=("2",),
        to_sources={(1, 1): "2>1:0.0", (1, 2): "2>2:0.1"},
        to_targets=(iso,),
    )


def test_cocartesian_identity_edge():
    s = setup_all(2)
    c = s.category
    e = TensorEdge(c, (1,), ("2",), ("2",), ("2",), {(1, 1): c.identity["2"]}, (c.identity["2"],))
    assert is_cocartesian(s, e)


def test_cocartesian_product_edge():
    s = setup_all(2)
    assert is_cocartesian(s, _product_edge(s.category))


def test_not_cocartesian_non_iso_target():
    s = setup_all(2)
    e = TensorEdge(
        s.category,
        (1, 1),
        ("1", "2"),
        ("1",),
        ("2",),
        {(1, 1): "2>1:0.0", (1, 2): "2>2:0.1"},
        ("2>1:0.0",),
    )
    rep = classify_cocartesian(s, e)
    assert not rep.passed
    assert rep.first_failure().name == "target-maps-iso"


def test_not_cocartesian_wrong_apex():
    s = setup_all(2)
    # apex 1 cannot be the product 1 x 2
    e = TensorEdge(
        s.category,
        (1, 1),
        ("1", "2"),
        ("1",),
        ("1",),
        {(1, 1): "1>1:0", (1, 2): "1>2:0"},
        ("1>1:0",),
    )
    rep = classify_cocartesian(s, e)
    assert not rep.passed
    assert rep.first_failure().name == "apex-is-fiber-product"


def test_tensor_edge_validation():
    s = setup_all(2)
    with pytest.raises(MalformedInputError):
        TensorEdge(s.category, (2,), ("1",), ("1",), ("1",), {(1, 1): "1>1:0"}, ("1>1:0",))


def test_cocartesian_invariant_under_iso_replacement():
    s = setup_all(2)
    c = s.category
    base = _product_edge(c)
    # replace the apex data along the swap automorphism of the apex
    swapped = TensorEdge(
        c,
        (1, 1),
        ("1", "2"),
        ("2",),
        ("2",),
        {(1, 1): c.comp("2>1:0.0", "2>2:1.0"), (1, 2): c.comp("2>2:0.1", "2>2:1.0")},
        (c.comp("2>2:0.1", "2>2:1.0"),),
    )
    assert is_cocartesian(s, base) == is_cocartesian(s, swapped)
