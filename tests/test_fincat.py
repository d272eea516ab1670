"""Table-level category checks against hand-computed oracles."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, seed, settings, strategies as st

from corrkit.fincat import (
    FinCategory,
    FunctorData,
    canonical_coproduct,
    canonical_product,
    canonical_pullback,
    chain_category,
    check_category,
    check_functor,
    discrete_category,
    enumerate_functors,
    finset_category,
    finset_skeleton,
    fn_values,
    full_subcategory,
    function_table,
    injections,
    opposite,
    poset_category,
    pullback_candidates,
    surjections,
    terminal_category,
    verify_product,
    verify_pullback_square,
    wide_subcategory,
)
from corrkit import serialization as ser
from corrkit.fincat import _ByValue, _associative_on_generators, _associativity_witness
from corrkit.report import MalformedInputError
from corrkit.setups import GeometricSetup, iso_class


def test_terminal_category_is_valid():
    c = terminal_category()
    assert check_category(c).passed
    assert c.objects == ("*",)
    assert len(c.morphism_ids) == 1


def test_chain_category_counts():
    # chain on 0<1<2: morphism count is the number of pairs i<=j
    c = chain_category(2)
    assert check_category(c).passed
    assert len(c.morphism_ids) == 6
    assert c.comp("1<=2", "0<=1") == "0<=2"


def test_discrete_category_no_cross_morphisms():
    c = discrete_category(["a", "b"])
    assert check_category(c).passed
    assert c.hom("a", "b") == []


def test_broken_associativity_is_caught():
    c = chain_category(2)
    bad = FinCategory(c.objects, dict(c.morphisms), dict(c.identity), dict(c.compose))
    bad.compose[("1<=2", "0<=1")] = "0<=1"  # wrong typing
    rep = check_category(bad)
    assert not rep.passed
    assert rep.first_failure().name == "composition-table-closed"


def test_broken_unit_is_caught():
    # two parallel endomorphisms on one object, identity law violated
    c = FinCategory(
        objects=("x",),
        morphisms={"i": ("x", "x"), "e": ("x", "x")},
        identity={"x": "i"},
        compose={("i", "i"): "i", ("i", "e"): "i", ("e", "i"): "e", ("e", "e"): "e"},
    )
    rep = check_category(c)
    assert not rep.passed
    assert rep.first_failure().name == "identity-units"
    assert rep.first_failure().witness == {"morphism": "e"}


def test_dangling_identity_is_caught():
    c = FinCategory(("x",), {"i": ("x", "x")}, {"x": "j"}, {("i", "i"): "i"})
    rep = check_category(c)
    assert rep.first_failure().name == "well-formed-ids"


# -- finite-set categories ----------------------------------------------


def test_finset_skeleton_sizes():
    c = finset_skeleton(2)
    assert check_category(c).passed
    # hom(a, b) has size^size elements: 1,1,1 / 0,1,2 / 0,1,4 along rows
    assert len(c.hom("0", "0")) == 1
    assert len(c.hom("2", "0")) == 0
    assert len(c.hom("0", "2")) == 1
    assert len(c.hom("2", "2")) == 4
    assert len(c.hom("2", "1")) == 1


def test_finset_morphism_encoding_roundtrip():
    c = finset_skeleton(2)
    swap = "2>2:1.0"
    assert swap in c.morphisms
    assert fn_values(swap) == (1, 0)
    assert c.comp(swap, swap) == c.identity["2"]


def test_finset_iso_mono_classes():
    c = finset_skeleton(2)
    # isos: the three identities plus the swap on the 2-element carrier
    assert c.iso_ids == frozenset({"0>0:", "1>1:0", "2>2:0.1", "2>2:1.0"})
    inj = injections(c)
    assert "1>2:0" in inj and "2>2:1.0" in inj and "2>1:0.0" not in inj
    # in these categories monos are exactly the injections
    assert c.mono_ids == inj
    surj = surjections(c)
    assert "2>1:0.0" in surj and "1>2:0" not in surj
    assert "0>0:" in surj


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.dictionaries(st.sampled_from("abcd"), st.integers(0, 3), min_size=1, max_size=3), st.data())
def test_isomorphisms_by_values_match_the_table_scan(sizes, data):
    # an all-function carrier reads its isomorphisms off the function values;
    # the same category without sizes scans the composition table
    c = finset_category(sizes)
    order = tuple(data.draw(st.permutations(c.objects)))
    listed = FinCategory(order, c.morphisms, c.identity, c.compose, c.object_size)
    scanned = FinCategory(order, c.morphisms, c.identity, c.compose)
    assert listed.iso_ids == scanned.iso_ids
    assert all(listed.object_size[listed.src(m)] == listed.object_size[listed.dst(m)] for m in listed.iso_ids)


def test_finset_duplicate_cardinalities():
    c = finset_category({"a": 2, "b": 2, "p": 1})
    assert check_category(c).passed
    assert c.object_size["b"] == 2
    assert len(c.hom("a", "b")) == 4
    assert "a>b:0.1" in c.iso_ids


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3), st.randoms(use_true_random=False))
def test_finset_compose_is_function_composition_in_scan_order(sizes, rng):
    names = [f"o{i}" for i in range(len(sizes))]
    rng.shuffle(names)
    c = finset_category(dict(zip(names, sizes)))
    # one entry per composable pair, in the order of a scan over g and then
    # over the ids into its source, each the composite of the values
    pairs = [(g, f) for g in c.morphisms for f in c.morphisms if c.dst(f) == c.src(g)]
    table = function_table(c)
    assert list(table) == pairs
    for g, f in pairs:
        assert fn_values(table[(g, f)]) == tuple(fn_values(g)[v] for v in fn_values(f))
        assert c.morphisms[table[(g, f)]] == (c.src(f), c.dst(g))


def _bulk_compose(sizes):
    """The composition table of the all-function carrier on `sizes`, built
    whole the way a bulk construction lists it: for each g, the composites
    with every hom(a, b) into its source, as a product of g's values."""
    objects = tuple(sorted(sizes))
    morphisms, values, homs = {}, {}, {}
    for a in objects:
        for b in objects:
            hom = homs[(a, b)] = {}
            for vals in itertools.product(range(sizes[b]), repeat=sizes[a]):
                m = f"{a}>{b}:" + ".".join(str(v) for v in vals)
                morphisms[m] = (a, b)
                values[m] = vals
                hom[vals] = m
    compose = {}
    for g, (b, c) in morphisms.items():
        for a in objects:
            composites = map(homs[(a, c)].__getitem__, itertools.product(values[g], repeat=sizes[a]))
            compose.update(zip(zip(itertools.repeat(g), homs[(a, b)].values()), composites))
    return compose


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=4), st.data())
def test_composites_by_value_match_the_bulk_table(size_list, data):
    names = data.draw(st.permutations([f"o{i}" for i in range(len(size_list))]))
    sizes = dict(zip(names, size_list))
    oracle = _bulk_compose(sizes)
    # the whole table, built in bulk, in the order of the bulk build
    assert list(function_table(finset_category(sizes)).items()) == list(oracle.items())
    # read entry by entry: the memo holds exactly the composites read
    lazy = finset_category(sizes)
    some = data.draw(st.lists(st.sampled_from(sorted(oracle)), max_size=20))
    assert [lazy.compose[k] for k in some] == [oracle[k] for k in some]
    assert len(lazy.compose) == len(set(some)) and type(lazy.compose) is _ByValue
    assert all(lazy.compose[k] == h for k, h in oracle.items())
    assert len(lazy.compose) == len(oracle) and type(lazy.compose) is _ByValue
    c = finset_category(sizes)
    ids = sorted(c.morphisms)
    outside = [(g, f) for g in ids for f in ids if c.dst(f) != c.src(g)][:1] + [("nothing", ids[0])]
    for pair in outside:
        assert c.compose.get(pair) is None and pair not in c.compose
        with pytest.raises(KeyError):
            c.compose[pair]
    assert len(c.compose) == 0
    plain = FinCategory(c.objects, c.morphisms, c.identity, oracle, c.object_size)
    for d in (finset_category(sizes), c):
        assert ser.dumps(ser.category_to_dict(d)) == ser.dumps(ser.category_to_dict(plain))
        assert opposite(d).compose == {(f, g): h for (g, f), h in oracle.items()}
    assert finset_category(sizes) == plain and finset_category(sizes) == finset_category(sizes)
    # a full subcategory composes by value over its own hom-sets and reads
    # nothing of the carrier's table
    kept = data.draw(st.sets(st.sampled_from(names), min_size=1))
    big = finset_category(sizes)
    sub = full_subcategory(big, kept)
    inside = {(g, f): h for (g, f), h in oracle.items() if {*c.morphisms[g], *c.morphisms[f]} <= kept}
    assert all(sub.compose[k] == h for k, h in inside.items())
    if len(kept) < len(names):
        assert len(big.compose) == 0
    assert sub.compose == inside


def test_an_all_function_carrier_builds_no_composition_table():
    # the whole {1, 2, 4} table has 75,831 entries and 6.6 MB
    tracemalloc.start()
    try:
        c = finset_category({"1": 1, "2": 2, "4": 4})
        assert c.compose[("4>2:0.1.1.0", "2>4:3.0")] == "2>2:0.0"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_carriers_of_equal_sizes_are_equal_whatever_their_memos_hold():
    a, b = finset_skeleton(2), finset_skeleton(2)
    assert a.compose[("2>2:1.0", "2>2:1.0")] == "2>2:0.1"
    assert check_category(b).passed
    assert len(a.compose) == 1 and len(b.compose) == len(b.composable_pairs)
    assert a == b and b == a and not a != b
    # a setup's guard compares its carrier with the class's through `!=`
    GeometricSetup(a, iso_class(b))
    assert a != finset_skeleton(1) and a != finset_category({"0": 0, "1": 1, "3": 2})


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3), st.data())
def test_check_category_reports_a_built_carrier_as_its_loaded_twin(size_list, data):
    names = data.draw(st.permutations([f"o{i}" for i in range(len(size_list))]))
    sizes = dict(zip(names, size_list))
    # the twin holds the whole table as a plain dict; the built carrier's
    # memo is filled one entry at a time as the checks read it
    twin = ser.category_from_dict(ser.category_to_dict(finset_category(sizes)))
    assert type(twin.compose) is dict
    built = finset_category(sizes)
    assert check_category(built).to_json() == check_category(twin).to_json()
    assert type(built.compose) is _ByValue and len(built.compose) == len(built.composable_pairs)


# -- duality and subcategories -------------------------------------------


def test_opposite_involution():
    c = chain_category(2)
    assert opposite(opposite(c)) == c
    assert opposite(c).morphisms["0<=2"] == ("2", "0")
    assert check_category(opposite(c)).passed


def test_core_groupoid_of_finset():
    c = finset_skeleton(2)
    g = wide_subcategory(c, c.iso_ids)
    assert check_category(g).passed
    assert set(g.morphism_ids) == set(c.iso_ids)


def test_wide_subcategory_rejects_unclosed_selection():
    c = finset_skeleton(2)
    with pytest.raises(MalformedInputError):
        wide_subcategory(c, {"2>1:0.0"} | {"1>2:0"})  # composite 2>2:0.0 missing


def test_wide_subcategory_of_injections():
    c = finset_skeleton(2)
    sub = wide_subcategory(c, injections(c))
    assert check_category(sub).passed
    assert "2>1:0.0" not in sub.morphisms


def test_full_subcategory():
    c = finset_skeleton(2)
    sub = full_subcategory(c, ["0", "1"])
    assert check_category(sub).passed
    assert sub.objects == ("0", "1")
    assert len(sub.morphism_ids) == 3


def test_object_size_through_subcategories():
    # a full subcategory of an all-function carrier is one again; the
    # opposite and a wide subcategory are not, so they carry no sizes
    c = finset_skeleton(3)
    assert full_subcategory(c, ["3", "0", "2"]).object_size == {"0": 0, "2": 2, "3": 3}
    assert full_subcategory(chain_category(2), ["0", "1"]).object_size is None
    assert opposite(c).object_size is None
    assert wide_subcategory(c, injections(c)).object_size is None
    assert chain_category(2).object_size is None
    # sizes take no part in equality
    assert FinCategory(c.objects, c.morphisms, c.identity, function_table(c)) == c


def test_equality_does_not_depend_on_what_the_memo_holds():
    # a carrier without sizes compares its table with the whole table of an
    # all-function carrier, before and after every composite is read
    c = finset_skeleton(1)
    copy = FinCategory(c.objects, c.morphisms, c.identity, function_table(c))
    assert c == copy and copy == c
    for g, f in c.composable_pairs:
        c.comp(g, f)
    assert c == copy and copy == c
    wrong = {**function_table(c), ("1>1:0", "0>1:"): "1>1:0"}
    assert c != FinCategory(c.objects, c.morphisms, c.identity, wrong)


# -- limits --------------------------------------------------------------


def test_terminal_objects():
    def terminal_objects(c):
        return [t for t in c.objects if all(len(c.hom(x, t)) == 1 for x in c.objects)]

    assert terminal_objects(finset_skeleton(2)) == ["1"]
    assert terminal_objects(chain_category(2)) == ["2"]
    assert terminal_objects(discrete_category(["a", "b"])) == []


def test_pullback_of_cospan_in_finset():
    c = finset_skeleton(2)
    # oracle: fiber product of the two constant maps 1 -> 2 at distinct points
    f = "1>2:0"
    g = "1>2:1"
    assert canonical_pullback(c, f, g) == ("0", "0>1:", "0>1:")
    # same point: apex is a single element
    pb = canonical_pullback(c, f, f)
    assert pb is not None and pb[0] == "1"


def test_pullback_of_diagonal_cospan():
    c = finset_skeleton(2)
    # oracle: 2 x_2 2 along identities is 2 with identity projections
    i = c.identity["2"]
    apex, p, q = canonical_pullback(c, i, i)
    assert apex == "2" and verify_pullback_square(c, i, i, apex, p, q)


def test_missing_pullback_reported_as_none():
    c = finset_skeleton(2)
    # oracle: 2 x_1 2 needs a 4-element carrier, absent from this skeleton
    f = "2>1:0.0"
    assert canonical_pullback(c, f, f) is None


def test_pullback_in_poset_is_meet():
    # in a poset every pullback is a meet; diamond a < b,c < d
    leq = {
        ("a", "a"), ("b", "b"), ("c", "c"), ("d", "d"),
        ("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d"),
    }
    c = poset_category(["a", "b", "c", "d"], lambda x, y: (x, y) in leq)
    apex, p, q = canonical_pullback(c, "b<=d", "c<=d")
    assert apex == "a"


def test_pullback_candidates_unique_up_to_iso():
    c = finset_category({"a": 2, "b": 2, "p": 1, "e": 0})
    # the two constant maps disagree pointwise, so the fiber product is empty
    f = "p>a:0"
    g = "p>a:1"
    cands = pullback_candidates(c, f, g)
    assert cands and all(c.object_size[apex] == 0 for apex, _, _ in cands)
    # equal legs: the fiber product is the point, and both 1-element
    # carriers of the category qualify as representatives
    assert {apex for apex, _, _ in pullback_candidates(c, f, f)} == {"p"}


def test_binary_product_in_finset():
    c = finset_skeleton(3)
    # oracle: 1 x 2 = 2, 1 x 3 = 3, 0 x n = 0
    apex, legs = canonical_product(c, ["1", "2"])
    assert apex == "2"
    assert verify_product(c, apex, legs, ["1", "2"])
    assert canonical_product(c, ["0", "3"])[0] == "0"
    # 2 x 2 = 4 is out of carrier
    assert canonical_product(c, ["2", "2"]) is None


def test_empty_product_is_terminal():
    c = finset_skeleton(2)
    apex, legs = canonical_product(c, [])
    assert apex == "1" and legs == ()


# -- functors ------------------------------------------------------------


def test_identity_and_constant_functor_check():
    c = chain_category(2)
    d = finset_skeleton(1)
    const = FunctorData(
        c,
        d,
        {x: "1" for x in c.objects},
        {m: d.identity["1"] for m in c.morphism_ids},
    )
    assert check_functor(const).passed


def test_non_functor_is_caught():
    c = chain_category(1)
    d = finset_skeleton(2)
    bad = FunctorData(
        c,
        d,
        {"0": "2", "1": "2"},
        {"0<=0": d.identity["2"], "1<=1": "2>2:1.0", "0<=1": "2>2:0.1"},
    )
    rep = check_functor(bad)
    assert rep.first_failure().name == "identities"


def test_enumerate_functors_chain_to_chain():
    # oracle: monotone maps [1] -> [2] number C(2+2-1... ) = 6
    fs = list(enumerate_functors(chain_category(1), chain_category(2)))
    assert len(fs) == 6
    assert all(check_functor(F).passed for F in fs)


def test_enumerate_functors_square_to_finset():
    # commuting squares of functions demand the two composites agree
    leq = {(a, b) for a in "abcd" for b in "abcd" if a == b}
    leq |= {("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")}
    square = poset_category(list("abcd"), lambda x, y: (x, y) in leq)
    fs = list(enumerate_functors(square, finset_skeleton(1)))
    assert all(check_functor(F).passed for F in fs)
    # oracle: object images in {0,1} must be upward closed toward 1... check count
    # against a direct recount of commuting squares in a 2-object carrier
    expected = 0
    c = finset_skeleton(1)
    import itertools
    for oa, ob, oc, od in itertools.product(c.objects, repeat=4):
        for mab in c.hom(oa, ob):
            for mbd in c.hom(ob, od):
                for mac in c.hom(oa, oc):
                    for mcd in c.hom(oc, od):
                        if c.comp(mbd, mab) == c.comp(mcd, mac):
                            expected += 1
    assert len(fs) == expected


def test_enumerate_functors_edge_filter_prunes():
    fs = list(
        enumerate_functors(
            chain_category(1),
            finset_skeleton(2),
            edge_filter=lambda x, y, m: m in finset_skeleton(2).iso_ids,
        )
    )
    assert fs and all(F.mor_map["0<=1"] in finset_skeleton(2).iso_ids for F in fs)


def test_hom_index_matches_linear_scan():
    for c in (finset_skeleton(3), finset_category({"1": 1, "2": 2, "4": 4})):
        for x in c.objects:
            for y in c.objects:
                scan = [m for m in c.morphism_ids if c.morphisms[m] == (x, y)]
                got = c.hom(x, y)
                assert got == scan
                # callers may mutate what they get back
                got.append("junk")
                assert c.hom(x, y) == scan
        assert c.hom("no-such-object", c.objects[0]) == []


# -- constructed and indexed paths vs the searches they replaced ------------


def _search_pullback(c, f, g):
    """The hom-set search the finset fiber product used to run."""
    sizes = c.object_size
    fx, gy = fn_values(f), fn_values(g)
    size = sum(1 for x in fx for y in gy if x == y)
    for apex in c.objects:
        if sizes[apex] != size:
            continue
        for p in c.hom(apex, c.src(f)):
            pv = fn_values(p)
            for q in c.hom(apex, c.src(g)):
                qv = fn_values(q)
                if (
                    all(fx[pv[i]] == gy[qv[i]] for i in range(size))
                    and len({(pv[i], qv[i]) for i in range(size)}) == size
                ):
                    return (apex, p, q)
    return None


def _scan_is_pullback(c, f, g, apex, p, q):
    """The universal-property check as a rescan for mediators per (u, v)."""
    if c.comp(f, p) != c.comp(g, q):
        return False
    for t in c.objects:
        for u in c.hom(t, c.src(f)):
            fu = c.comp(f, u)
            for v in c.hom(t, c.src(g)):
                if fu != c.comp(g, v):
                    continue
                mediators = [w for w in c.hom(t, apex) if c.comp(p, w) == u and c.comp(q, w) == v]
                if len(mediators) != 1:
                    return False
    return True


def _scan_associativity(c):
    """The first associativity witness of a scan over every id."""
    pairs = [(g, f) for g in c.morphism_ids for f in c.morphism_ids if c.dst(f) == c.src(g)]
    for g, f in pairs:
        for h in c.morphism_ids:
            if c.dst(g) != c.src(h):
                continue
            if c.comp(h, c.comp(g, f)) != c.comp(c.comp(h, g), f):
                return {"triple": [h, g, f]}
    return None


SKEL2 = finset_skeleton(2)
SKEL3 = finset_skeleton(3)
# two objects of each of the sizes 1 and 2, named out of size order
TWINS = finset_category({"a": 2, "b": 1, "c": 2, "d": 0, "e": 1})
CHAIN = chain_category(3)


def _cospans(c):
    return [(f, g) for f in c.morphism_ids for g in c.morphism_ids if c.dst(f) == c.dst(g)]


def test_constructed_pullback_matches_search_on_every_skeleton2_cospan():
    for c in (SKEL2, TWINS):
        for f, g in _cospans(c):
            got = canonical_pullback(c, f, g)
            assert got == _search_pullback(c, f, g)
            cands = pullback_candidates(c, f, g)
            assert got == (min(cands) if cands else None)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_cospans(SKEL3)))
def test_constructed_pullback_matches_search_on_skeleton3(fg):
    f, g = fg
    got = canonical_pullback(SKEL3, f, g)
    assert got == _search_pullback(SKEL3, f, g)
    cands = pullback_candidates(SKEL3, f, g)
    assert got == (min(cands) if cands else None)


# every proper full subcategory of finset-3: the sizes carry over, so the
# fiber product is constructed there, and some fiber sets have no object
SKEL3_SUBS = [
    full_subcategory(SKEL3, objs) for r in (1, 2, 3) for objs in itertools.combinations(SKEL3.objects, r)
]


def _matches_search(c, f, g):
    cands = pullback_candidates(c, f, g)
    return canonical_pullback(c, f, g) == (min(cands) if cands else None)


def test_constructed_pullback_matches_search_on_full_subcategories():
    for sub in SKEL3_SUBS:
        assert sub.object_size == {x: int(x) for x in sub.objects}
        if "3" in sub.objects and sub.objects != ("1", "3"):
            continue  # sampled below: their cospans take about 10 s together
        assert all(_matches_search(sub, f, g) for f, g in _cospans(sub)), sub.objects


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_constructed_pullback_matches_search_on_sampled_full_subcategories(data):
    sub = data.draw(st.sampled_from(SKEL3_SUBS))
    f, g = data.draw(st.sampled_from(_cospans(sub)))
    assert _matches_search(sub, f, g)


# two objects of size 2, so the apex of a constructed limit is a choice
RELISTED = finset_category({"a": 2, "b": 2, "p": 1, "q": 0})


def test_constructed_limits_match_search_in_every_listing_order():
    # a sizes envelope loads in its own object order; the search returns
    # the least-named apex whatever that order is
    c = RELISTED
    for objects in itertools.permutations(c.objects):
        sized = FinCategory(objects, c.morphisms, c.identity, c.compose, c.object_size)
        free = FinCategory(objects, c.morphisms, c.identity, c.compose)
        for f, g in _cospans(c):
            assert canonical_pullback(sized, f, g) == canonical_pullback(free, f, g), (objects, f, g)
        for factors in (["p", "p"], ["q", "a"], ["p", "q"], ["q", "q"]):
            assert canonical_coproduct(sized, factors) == canonical_coproduct(free, factors), (objects, factors)


def test_a_coproduct_of_an_object_outside_the_carrier_is_refused():
    # the constructed coproduct of an all-function carrier and the dual
    # search alike
    for c in (SKEL2, CHAIN):
        with pytest.raises(MalformedInputError, match=r"^unknown objects \['9'\]$"):
            canonical_coproduct(c, ["9", c.objects[0]])


def test_constructed_coproduct_matches_the_dual_search_on_full_subcategories():
    # the opposite carries no sizes, so its product is the generic search;
    # without an object of two elements nothing tells elements apart, and
    # 1 + 1 is the one-element set
    for sub in (SKEL3, TWINS, *SKEL3_SUBS):
        for xy in itertools.product(sub.objects, repeat=2):
            assert canonical_coproduct(sub, xy) == canonical_product(opposite(sub), xy), (sub.objects, xy)
    assert canonical_coproduct(full_subcategory(SKEL3, ["0", "1"]), ["1", "1"]) == ("1", ("1>1:0", "1>1:0"))


@st.composite
def spans_over_cospans(draw, c):
    f, g = draw(st.sampled_from(_cospans(c)))
    apex = draw(st.sampled_from(c.objects))
    ps, qs = c.hom(apex, c.src(f)), c.hom(apex, c.src(g))
    if not ps or not qs:
        return f, g, apex, None, None
    p = draw(st.sampled_from(ps))
    commuting = [q for q in qs if c.comp(f, p) == c.comp(g, q)]
    if commuting and draw(st.booleans()):
        return f, g, apex, p, draw(st.sampled_from(commuting))
    return f, g, apex, p, draw(st.sampled_from(qs))


@pytest.mark.parametrize("c", [SKEL2, TWINS, CHAIN], ids=["finset-2", "twins", "chain-3"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mediator_count_matches_rescan(c, data):
    f, g, apex, p, q = data.draw(spans_over_cospans(c))
    if p is None:
        return
    assert verify_pullback_square(c, f, g, apex, p, q) == _scan_is_pullback(c, f, g, apex, p, q)


def test_pullback_legs_must_start_at_the_apex():
    c = SKEL2
    i = c.identity["1"]
    with pytest.raises(MalformedInputError):
        verify_pullback_square(c, i, i, "2", i, i)


def test_composable_pairs_keep_scan_order():
    for c in (SKEL2, TWINS, CHAIN):
        scan = [(g, f) for g in c.morphism_ids for f in c.morphism_ids if c.dst(f) == c.src(g)]
        assert list(c.composable_pairs) == scan


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_first_associativity_witness_matches_scan(data):
    c = TWINS
    bad = FinCategory(c.objects, dict(c.morphisms), dict(c.identity), dict(c.compose))
    # rewire a few entries to other ids of the same typing: still a closed
    # table, but no longer associative (or unital)
    for g, f in data.draw(st.lists(st.sampled_from(c.composable_pairs), min_size=1, max_size=3)):
        bad.compose[(g, f)] = data.draw(st.sampled_from(c.hom(c.src(f), c.dst(g))))
    rep = check_category(bad)
    closed, _, assoc = rep.checks[1], rep.checks[2], rep.checks[3]
    assert closed.name == "composition-table-closed" and closed.status == "pass"
    assert assoc.name == "associativity"
    expected = _scan_associativity(bad)
    assert (assoc.status == "pass") == (expected is None)
    assert assoc.witness == (expected or {})


# -- laws checked on a generating set --------------------------------------


def _closure(c, ids):
    """Every composite of the given ids, by fixpoint over all pairs."""
    reached = set(ids)
    while True:
        more = {c.compose[(g, f)] for g in reached for f in reached if c.dst(f) == c.src(g)} - reached
        if not more:
            return reached
        reached |= more


def _rewired(c, data):
    """A copy of c with up to four compose entries sent to other ids of the
    same typing: still closed and typed, often neither associative nor
    unital.  Half the draws rewire a unit entry on purpose."""
    bad = FinCategory(c.objects, dict(c.morphisms), dict(c.identity), dict(c.compose))
    pairs = data.draw(st.lists(st.sampled_from(c.composable_pairs), min_size=1, max_size=3))
    if data.draw(st.booleans()):
        m = data.draw(st.sampled_from(c.morphism_ids))
        pairs.append(data.draw(st.sampled_from([(m, c.identity[c.src(m)]), (c.identity[c.dst(m)], m)])))
    for g, f in pairs:
        bad.compose[(g, f)] = data.draw(st.sampled_from(c.hom(c.src(f), c.dst(g))))
    return bad


def _assert_greedy_generators(c):
    gens = c.generators
    assert _closure(c, gens) == set(c.morphism_ids)
    # an id is a generator exactly when the generators before it, in the
    # order isomorphisms first and then the rest, each by id, do not reach it
    order = [m for m in c.morphism_ids if m in c.iso_ids] + [m for m in c.morphism_ids if m not in c.iso_ids]
    for i, m in enumerate(order):
        earlier = [g for g in order[:i] if g in gens]
        assert (m in gens) == (m not in _closure(c, earlier)), m


@pytest.mark.parametrize("c", [SKEL2, SKEL3, TWINS, CHAIN], ids=["finset-2", "finset-3", "twins", "chain-3"])
def test_generators_close_to_every_id(c):
    _assert_greedy_generators(c)


@seed(8)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_generators_close_to_every_id_of_rewired_tables(data):
    _assert_greedy_generators(_rewired(SKEL2, data))


@seed(8)
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_generator_sweep_agrees_with_the_full_scan(data):
    bad = _rewired(SKEL3, data)
    rep = check_category(bad)
    closed, assoc = rep.checks[1], rep.checks[3]
    assert closed.name == "composition-table-closed" and closed.status == "pass"
    expected = _associativity_witness(bad)
    assert _associative_on_generators(bad) == (expected is None)
    assert assoc.name == "associativity" and assoc.witness == (expected or {})


def test_generator_sweep_agrees_with_the_scan_on_every_magma_of_order_3():
    # one object, so every operation on three ids is a closed typed table;
    # most fail the unit laws, and 113 of the 3^9 are associative (the
    # labeled semigroups of order 3, OEIS A023814)
    ids = ("e", "a", "b")
    pairs = list(itertools.product(ids, repeat=2))
    associative = 0
    for table in itertools.product(ids, repeat=len(pairs)):
        c = FinCategory(("*",), dict.fromkeys(ids, ("*", "*")), {"*": "e"}, dict(zip(pairs, table)))
        expected = _scan_associativity(c)
        assert _associative_on_generators(c) == (expected is None)
        assert check_category(c).checks[3].witness == (expected or {})
        associative += expected is None
    assert associative == 113
