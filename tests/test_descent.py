"""Atlases, Čech nerves, descent/codescent extension, localization premises."""

from collections import Counter
from functools import lru_cache

import pytest

from corrkit import cli, descent
from corrkit.corpus import instance
from corrkit.descent import (
    Atlas,
    CechDiagram,
    LocalizationProblem,
    PairDeclaration,
    best_nerve,
    cech_nerve,
    check_atlas,
    check_codescent,
    check_descent,
    check_exceptional_pair,
    check_localization_premises,
    check_nice_pair,
    compare_atlases,
    descent_elements,
    descent_lattice,
    extend_system_C,
    extend_system_E,
    extended_shriek_map,
    fiber_category,
    find_hypercovers,
    has_section,
)
from corrkit.descent import _level_index, _search_hypercovers
from corrkit.fincat import (
    FunctorData,
    chain_category,
    check_category,
    discrete_category,
    finset_category,
    finset_skeleton,
    fn_values,
    function_table,
    injections,
    poset_category,
    surjections,
    terminal_category,
)
from corrkit.lattices import chain_lattice, frame_system
from corrkit.report import MalformedInputError, ResourceLimitError
from corrkit.setups import EdgeClass, GeometricSetup, all_class, iso_class
from corrkit.shriek import NagataSetup, build_shriek


@lru_cache(maxsize=None)
def big():
    # the smallest all-function carrier holding the overlap of a 2-to-1 cover
    c = finset_category({"1": 1, "2": 2, "4": 4})
    return GeometricSetup(c, all_class(c))


@lru_cache(maxsize=None)
def big_sys():
    return frame_system(big(), chain_lattice(1))


@lru_cache(maxsize=None)
def big_sa():
    c = big().category
    ns = NagataSetup(big(), all_class(c), iso_class(c))
    return build_shriek(ns, big_sys())


@lru_cache(maxsize=None)
def skel2():
    c = finset_skeleton(2)
    return GeometricSetup(c, all_class(c))


def surj_cover(s):
    return EdgeClass(s.category, surjections(s.category))


def atlas21():
    return Atlas(big(), "2>1:0.0", surj_cover(big()), ("1", "2"))


def _level_size(vals, k):
    # raw-set oracle: tuples with constant image, counted fiber by fiber
    return sum(n ** (k + 1) for n in Counter(vals).values())


# -- atlases ---------------------------------------------------------------


def test_check_atlas_surjective_cover():
    assert check_atlas(atlas21()).passed


def test_check_atlas_identity():
    s = big()
    for o in s.category.objects:
        assert check_atlas(Atlas(s, s.category.identity[o], surj_cover(s), s.category.objects)).passed


def test_check_atlas_failure_with_iso_cover():
    a = Atlas(big(), "2>1:0.0", EdgeClass(big().category, big().category.iso_ids), ("1", "2"))
    rep = check_atlas(a)
    assert not rep.passed
    assert rep.first_failure().witness["base-change"] == "2>1:0.0"


def test_atlas_validation():
    with pytest.raises(MalformedInputError):
        Atlas(big(), "nope", surj_cover(big()), ("1",))


# -- Čech nerves -----------------------------------------------------------


def test_nerve_identity_atlas_is_constant():
    s = big()
    a = Atlas(s, s.category.identity["2"], surj_cover(s), s.category.objects)
    n = cech_nerve(s, a, 2)
    assert set(n.objects) == {"2"}
    ident = s.category.identity["2"]
    assert all(d == ident for d in n.faces.values())
    assert all(d == ident for d in n.degeneracies.values())


def test_nerve_overlap_size_matches_raw_oracle():
    n = cech_nerve(big(), atlas21(), 1)
    vals = fn_values("2>1:0.0")
    assert n.objects == ("2", "4")
    assert big().category.object_size[n.objects[1]] == _level_size(vals, 1) == 4
    # the level-two object would need 8 points, which the carrier lacks
    assert _level_size(vals, 2) == 8
    with pytest.raises(ResourceLimitError):
        cech_nerve(big(), atlas21(), 2)
    assert best_nerve(big(), atlas21()).m == 1


def test_nerve_faces_are_the_two_projections():
    n = cech_nerve(big(), atlas21(), 1)
    c = big().category
    assert {fn_values(n.faces[(1, 0)]), fn_values(n.faces[(1, 1)])} == {
        (0, 1, 0, 1),
        (0, 0, 1, 1),
    }
    for i in (0, 1):
        assert c.comp(n.faces[(1, i)], n.degeneracies[(0, 0)]) == c.identity["2"]


def test_nerve_rejects_broken_identities():
    s = big()
    a = Atlas(s, s.category.identity["2"], surj_cover(s), s.category.objects)
    n = cech_nerve(s, a, 1)
    bad = dict(n.faces)
    bad[(1, 0)] = "2>2:0.0"  # no longer retracts the degeneracy
    with pytest.raises(MalformedInputError):
        CechDiagram(s.category, a.x, 1, n.objects, bad, n.degeneracies, n.aug)


def test_nerve_truncation_bound():
    with pytest.raises(MalformedInputError):
        cech_nerve(big(), atlas21(), 3)


def test_nerve_is_built_once_per_setup_atlas_and_level(monkeypatch):
    checks = []
    original = CechDiagram._check_identities
    monkeypatch.setattr(CechDiagram, "_check_identities", lambda self: (checks.append(self.m), original(self)))
    # a fresh carrier, since the nerves of big()'s carrier are memoized on it
    c = finset_category(big().category.object_size)
    s = GeometricSetup(c, all_class(c))
    a = Atlas(s, "2>1:0.0", surj_cover(s), ("1", "2"))
    first = cech_nerve(s, a, 1)
    assert cech_nerve(s, a, 1) is first and best_nerve(s, a).m == 1
    assert checks == [1]
    # a level the carrier lacks is rebuilt on each call, and fails the same way
    messages = []
    for _ in range(2):
        with pytest.raises(ResourceLimitError) as exc:
            cech_nerve(s, a, 2)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] and "no pullback" in messages[0]
    assert checks == [1]
    # another atlas with the same morphism shares the nerve, and so does a
    # setup of another class over the same carrier; another carrier, even an
    # equal one, builds its own
    assert cech_nerve(s, Atlas(s, "2>1:0.0", surj_cover(s), ("1", "2")), 1) is first
    assert cech_nerve(GeometricSetup(c, iso_class(c)), a, 1) is first and first.category is c
    assert checks == [1]
    other = GeometricSetup(finset_category(c.object_size), big().e)
    assert cech_nerve(other, a, 1) is not first
    assert checks == [1, 1]


def test_a_missing_nerve_level_stays_a_missing_pullback():
    a = atlas21()
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            cech_nerve(big(), a, 2)
    # a carrier without the overlap object has no nerve past level zero
    c = finset_category({"1": 1, "2": 2})
    small = GeometricSetup(c, all_class(c))
    with pytest.raises(ResourceLimitError, match="no overlap object"):
        best_nerve(small, Atlas(small, "2>1:0.0", surj_cover(small), ("1", "2")))


def test_a_malformed_nerve_is_not_reported_as_a_limit(monkeypatch):
    # only a missing fiber product is "outside the carrier"; a nerve that
    # breaks a simplicial identity is an error
    def broken(self):
        raise MalformedInputError("simplicial identity fails: d0s0")

    monkeypatch.setattr(CechDiagram, "_check_identities", broken)
    # a fresh carrier, since the nerves of big()'s carrier are memoized on it
    c = finset_category(big().category.object_size)
    s = GeometricSetup(c, all_class(c))
    with pytest.raises(MalformedInputError, match="simplicial identity fails"):
        check_descent(s, frame_system(s, chain_lattice(1)), Atlas(s, "2>1:0.0", surj_cover(s), ("1", "2")))


# -- pair declarations -----------------------------------------------------


def degenerate_pair(s=None, kind="nice", s_members=None, e_members=None):
    s = s or skel2()
    c = s.category
    sm = frozenset(surjections(c) if s_members is None else s_members)
    em = frozenset(c.morphism_ids if e_members is None else e_members)
    atl = {o: (c.identity[o],) for o in c.objects}
    return PairDeclaration(kind, GeometricSetup(c, EdgeClass(c, em)), c.objects, sm, sm, em, atl)


@lru_cache(maxsize=None)
def transport_setup():
    c = finset_category({"0": 0, "1": 1, "2": 2, "X": 2})
    return GeometricSetup(c, all_class(c))


def transport_pair():
    s = transport_setup()
    c = s.category
    small = ("0", "1", "2")
    small_m = frozenset(m for m in c.morphism_ids if c.src(m) in small and c.dst(m) in small)
    atl = {o: (c.identity[o],) for o in small}
    atl["X"] = ("2>X:0.1",)
    return PairDeclaration(
        "nice", s, small, surjections(c) & small_m, surjections(c), small_m, atl
    )


@lru_cache(maxsize=None)
def transport_sys():
    pd = transport_pair()
    return frame_system(pd.small_setup(pd.e_small), chain_lattice(1))


def test_nice_pair_degenerate_passes():
    assert check_nice_pair(degenerate_pair()).passed


def test_nice_pair_transport_object_passes():
    assert check_nice_pair(transport_pair()).passed


def test_the_big_cover_setup_reads_the_class_the_atlases_hold(monkeypatch):
    # the pair builds and validates its big cover class once
    checked = {}
    monkeypatch.setattr(descent, "merge_sub_setup", lambda rep, name, s, anchor: checked.setdefault(name, s))
    pd = transport_pair()
    check_nice_pair(pd)
    cover = checked["setup-big-cover"].e
    assert cover is pd.big_cover
    assert all(a.s is cover for atl in pd.atlases.values() for a in atl)


def test_nice_pair_missing_atlas_names_object():
    pd = degenerate_pair()
    del pd.atlases["2"]
    rep = check_nice_pair(pd)
    bad = rep.first_failure()
    assert bad.name == "atlases-exist"
    assert bad.witness["object"] == "2"


def test_nice_pair_cover_restriction_mismatch():
    pd = degenerate_pair()
    pd.s_small = frozenset(pd.s_small - {"2>1:0.0"})
    rep = check_nice_pair(pd)
    names = {f.name for f in rep.failures}
    assert names == {"cover-class-restricts"}
    assert rep.first_failure().witness["morphism"] == "2>1:0.0"


def test_pair_kind_validated():
    with pytest.raises(MalformedInputError):
        degenerate_pair(kind="weird")


def test_a_repeated_small_object_is_rejected():
    pd = degenerate_pair()
    with pytest.raises(MalformedInputError, match="^duplicate small object '2'$"):
        PairDeclaration("nice", pd.big, ("0", "1", "2", "2"), pd.s_small, pd.s_big, pd.e_small, {})


# -- descent of restrictions -----------------------------------------------


def test_descent_elements_are_the_diagonal():
    n = cech_nerve(big(), atlas21(), 1)
    assert descent_elements(big_sys(), n) == ["(0,0)", "(1,1)"]
    L = descent_lattice(big_sys(), n)
    assert len(L.elements) == 2 and L.bot == "(0,0)" and L.top == "(1,1)"


def test_descent_comparison_surjective_atlas():
    rep = check_descent(big(), big_sys(), atlas21())
    assert rep.passed
    by_name = {ch.name: ch.witness for ch in rep.checks}
    assert by_name["descent-comparison"]["matched"] == 2
    assert by_name["cocycle-condition"]["vacuous"] is True  # carrier has no level two


def test_descent_cocycle_asserted_at_level_two():
    s = big()
    a = Atlas(s, s.category.identity["2"], surj_cover(s), s.category.objects)
    rep = check_descent(s, big_sys(), a)
    by_name = {ch.name: ch.witness for ch in rep.checks}
    assert rep.passed and by_name["cocycle-condition"] == {"level": 2, "vacuous": False}


def test_descent_fails_for_non_cover():
    a = Atlas(big(), "2>2:0.0", all_class(big().category), ("1", "2"))
    rep = check_descent(big(), big_sys(), a)
    assert not rep.passed
    assert rep.first_failure().witness["reason"] == "restriction not injective"


def test_descent_limit_without_overlap_object():
    a = Atlas(big(), "4>1:0.0.0.0", all_class(big().category), ("1",))
    rep = check_descent(big(), big_sys(), a)
    assert rep.checks[0].status == "resource-limit"


def test_split_atlases_always_descend():
    s = big()
    c = s.category
    split = [
        m
        for m in c.morphism_ids
        if c.src(m) in ("1", "2") and c.dst(m) in ("1", "2") and has_section(c, m)
    ]
    assert len(split) == 4  # both identities, the swap, and the 2-to-1 cover
    for x in split:
        a = Atlas(s, x, all_class(c), ("1", "2"))
        assert check_descent(s, big_sys(), a).passed


def descent_pair():
    s = big()
    c = s.category
    atl = {o: (c.identity[o],) for o in c.objects}
    atl["1"] += ("2>1:0.0",)
    return PairDeclaration(
        "nice", s, c.objects, frozenset(surjections(c)), frozenset(surjections(c)), frozenset(c.morphism_ids), atl
    )


def test_atlas_independence_product_comparison():
    pd = descent_pair()
    ident = pd.atlases["1"][0]
    rep = compare_atlases(pd, big_sys(), ident, atlas21())
    assert rep.passed
    assert rep.checks[0].witness["size"] == 2  # the two-chain over the point
    assert compare_atlases(pd, big_sys(), atlas21(), atlas21()).passed


def test_atlas_independence_needs_shared_target():
    pd = descent_pair()
    with pytest.raises(MalformedInputError):
        compare_atlases(pd, big_sys(), pd.atlases["2"][0], atlas21())


def test_extend_restrictions_degenerate_is_identity():
    ext = extend_system_C(descent_pair(), big_sys())
    for f in ("2>1:0.0", "4>2:0.1.0.1", "2>2:1.0", "1>4:2"):
        assert ext.pull(f).same_table(big_sys().pull(f))


def test_extend_restrictions_new_object():
    pd = transport_pair()
    sys = transport_sys()
    ext = extend_system_C(pd, sys)
    assert ext.lattice("X").elements == sys.lattice("2").elements
    assert ext.pull("2>X:0.1").table == {l: l for l in sys.lattice("2").elements}
    for f in ("2>1:0.0", "2>2:1.0", "0>1:"):
        assert ext.pull(f).same_table(sys.pull(f))
    # round trip through the presented object is the identity
    c = pd.big.category
    back = next(n for n in c.hom("X", "2") if c.comp("2>X:0.1", n) == c.identity["X"])
    assert ext.pull(c.comp(back, "2>X:0.1")).table == {
        l: l for l in sys.lattice("2").elements
    }


def test_extend_restrictions_needs_nice_kind():
    with pytest.raises(MalformedInputError):
        extend_system_C(degenerate_pair(kind="exceptional"), frame_system(skel2(), chain_lattice(1)))


def test_extend_restrictions_gate_reports_witness():
    # the suite reports the pair axioms and extends only when they pass
    pd = degenerate_pair()
    del pd.atlases["2"]
    rep = cli._pair_theorem_suite("no-atlas", pd, {})
    assert [(c.name, c.witness) for c in rep.failures] == [
        ("pair:atlases-exist", {"object": "2", "reason": "no atlas declared"})
    ]
    assert "extension-functorial" not in [c.name for c in rep.checks]


# -- exceptional pairs and codescent ---------------------------------------


def exceptional_pair(e_small=None):
    s = big()
    c = s.category
    atl = {o: (c.identity[o],) for o in c.objects}
    atl["1"] += ("2>1:0.0",)
    em = frozenset(c.morphism_ids if e_small is None else e_small)
    return PairDeclaration(
        "exceptional", s, c.objects, frozenset(surjections(c)), frozenset(surjections(c)), em, atl
    )


def test_exceptional_pair_constant_hypercovers():
    rep = check_exceptional_pair(exceptional_pair())
    assert rep.passed
    c = big().category
    by_name = {ch.name: ch.witness for ch in rep.checks}
    for f in ("2>1:0.0", "4>4:0.1.2.3"):
        assert by_name[f"hypercover:{f}"]["levels"] == [f, f]


def test_exceptional_pair_cover_outside_class():
    rep = check_exceptional_pair(exceptional_pair(e_small=big().category.iso_ids))
    failed = {f.name for f in rep.failures}
    assert "cover-inside-exceptional" in failed
    assert "hypercover:2>1:0.0" in failed


@pytest.mark.parametrize("name", ["nice-pair-cover", "exceptional-pair-cover"])
def test_level_maps_agree_with_the_scan(name):
    # both tables of every atlas pair whose overlap the carrier holds, at
    # every key the search can ask and every key they store, against a scan
    # of hom ∩ E_small at each level; E_small is the declared class (every
    # map) and two proper ones, so that a table that drops the filter shows
    declared = instance(name).build()
    c = declared.big.category
    atlases = [a for lst in declared.atlases.values() for a in lst]
    compared = 0
    for e_small in (declared.e_small, frozenset(surjections(c)), frozenset(injections(c))):
        pd = PairDeclaration(
            declared.kind,
            declared.big,
            declared.small_objects,
            declared.s_small,
            declared.s_big,
            e_small,
            {obj: tuple(a.x for a in lst) for obj, lst in declared.atlases.items()},
        )
        for xa in atlases:
            for ya in atlases:
                try:
                    nx, ny = cech_nerve(pd.big, xa, 1), cech_nerve(pd.big, ya, 1)
                except MalformedInputError:
                    continue
                level0, level1 = _level_index(pd, nx, ny)
                maps0, maps1 = ([m for m in c.hom(nx.objects[n], ny.objects[n]) if m in e_small] for n in (0, 1))
                yf0 = {f0: c.comp(ya.x, f0) for f0 in maps0}
                for g in c.hom(nx.objects[0], ya.target):
                    assert list(level0.get(g, [])) == [f0 for f0 in maps0 if yf0[f0] == g], (xa.x, ya.x, g)
                assert set(level0) <= set(c.hom(nx.objects[0], ya.target))
                faces = {f1: (c.comp(ny.faces[(1, 0)], f1), c.comp(ny.faces[(1, 1)], f1)) for f1 in maps1}
                asked = {
                    (c.comp(f0, nx.faces[(1, 0)]), c.comp(f0, nx.faces[(1, 1)]))
                    for f0 in c.hom(nx.objects[0], ny.objects[0])
                }
                for key in asked | set(level1):
                    want = [f1 for f1 in maps1 if faces[f1] == key]
                    assert list(level1.get(key, [])) == want, (xa.x, ya.x, key)
                    compared += bool(want)
                assert sum(map(len, level1.values())) == len(maps1)
    assert compared > 0


def test_hypercover_search_reports_limit():
    s = big()
    c = s.category
    atl = {o: (c.identity[o],) for o in c.objects}
    atl["1"] = ("4>1:0.0.0.0",)  # overlap needs 16 points
    pd = PairDeclaration(
        "exceptional", s, c.objects, frozenset(), surjections(c), frozenset(c.morphism_ids), atl
    )
    assert find_hypercovers(pd, "1>1:0") == (None, True)
    with pytest.raises(ResourceLimitError):
        extend_system_E(pd, big_sa())
    rep = check_exceptional_pair(pd)
    statuses = {ch.name: ch.status for ch in rep.checks}
    assert statuses["hypercover:1>1:0"] == "resource-limit"


def test_the_hypercover_search_stops_at_its_first_match(monkeypatch):
    pd = exceptional_pair()
    every = {f: list(_search_hypercovers(pd, f)) for f in sorted(pd.big.e.members)}
    read = Counter()
    search = descent._search_hypercovers

    def counted(pd, f):
        for hc in search(pd, f):
            read[f] += 1
            yield hc

    monkeypatch.setattr(descent, "_search_hypercovers", counted)
    for f, items in every.items():
        hc, _ = find_hypercovers(pd, f)
        first = next(i for i, h in enumerate(items) if h is not None)
        want = items[first]
        assert hc.levels == want.levels and hc.src_nerve is want.src_nerve and hc.dst_nerve is want.dst_nerve, f
        assert read[f] == first + 1, f
    # some map has a hypercover past its first
    assert any(read[f] < len(items) for f, items in every.items())


def test_codescent_collapses_overlap():
    n = cech_nerve(big(), atlas21(), 1)
    rep = check_codescent(big_sa(), n)
    assert rep.passed
    assert rep.checks[0].witness["classes"] == 2  # the two-chain, rebuilt as classes


def test_extension_matches_construction_everywhere():
    pd = exceptional_pair()
    ext = extend_system_E(pd, big_sa())
    sa = big_sa()
    assert set(ext) == set(big().category.morphism_ids)
    for f, m in ext.items():
        assert m.same_table(sa.shriek[f])


def test_extension_independent_of_hypercover():
    pd = exceptional_pair()
    sa = big_sa()
    for f in ("1>1:0", "2>1:0.0", "2>2:0.1"):
        found = list(_search_hypercovers(pd, f))
        assert found and None not in found
        tables = {tuple(sorted(extended_shriek_map(pd, sa, hc).table.items())) for hc in found}
        assert len(tables) == 1


def test_extension_through_surjective_atlas():
    # the induced map on colimits along the 2-to-1 cover is the fiber join
    pd = exceptional_pair()
    sa = big_sa()
    found = _search_hypercovers(pd, "1>1:0")
    via_cover = [hc for hc in found if hc.src_nerve.x == "2>1:0.0"]
    assert via_cover
    for hc in via_cover:
        assert extended_shriek_map(pd, sa, hc).same_table(sa.shriek["1>1:0"])


def test_extension_needs_exceptional_kind():
    with pytest.raises(MalformedInputError):
        extend_system_E(descent_pair(), big_sa())


def test_extension_fails_without_hypercovers():
    pd = exceptional_pair(e_small=big().category.iso_ids)
    with pytest.raises(MalformedInputError):
        extend_system_E(pd, big_sa())


# -- localization premises -------------------------------------------------


def interval_problem():
    c = chain_category(1)
    t = terminal_category()
    p = FunctorData(c, t, {"0": "*", "1": "*"}, {m: "id_*" for m in c.morphism_ids})
    return LocalizationProblem(p, frozenset({"0<=1"}))


def cech_pair_problem():
    c = finset_skeleton(1)
    t = terminal_category()
    p = FunctorData(c, t, {x: "*" for x in c.objects}, {m: "id_*" for m in c.morphism_ids})
    return LocalizationProblem(p, frozenset({"0>1:"}))


def test_localization_interval_passes():
    assert check_localization_premises(interval_problem()).passed


def test_localization_cech_pair_passes():
    assert check_localization_premises(cech_pair_problem()).passed


def test_fiber_category_is_a_category():
    fib = fiber_category(interval_problem(), "*")
    assert check_category(fib).passed
    assert len(fib.morphism_ids) == 3


def test_fiber_category_keeps_what_the_filters_kept():
    # a, b, c relabelled as the sets 1, 2, 2: the fiber over 2 holds b and c
    # and the maps over the identity of 2, not the swaps or constants
    src, dst = finset_category({"a": 1, "b": 2, "c": 2}), finset_category({"1": 1, "2": 2})
    obj_map = {"a": "1", "b": "2", "c": "2"}
    relabel = {m: f"{obj_map[x]}>{obj_map[y]}:{m.partition(':')[2]}" for m, (x, y) in src.morphisms.items()}
    lp = LocalizationProblem(FunctorData(src, dst, obj_map, relabel), frozenset())
    for d in dst.objects:
        # the fiber as the object and morphism filters built it
        objs = tuple(x for x in src.objects if obj_map[x] == d)
        keep = {m for m in src.morphism_ids if src.src(m) in objs and src.dst(m) in objs and relabel[m] == dst.identity[d]}
        compose = {(g, f): h for (g, f), h in function_table(src).items() if g in keep and f in keep}
        fib = fiber_category(lp, d)
        assert (fib.objects, fib.morphisms, fib.identity, fib.compose) == (
            objs, {m: src.morphisms[m] for m in sorted(keep)}, {x: src.identity[x] for x in objs}, compose
        )
    assert sorted(fiber_category(lp, "2").morphisms) == ["b>b:0.1", "b>c:0.1", "c>b:0.1", "c>c:0.1"]


def test_localization_class_must_invert():
    c = chain_category(1)
    p = FunctorData(c, c, {"0": "0", "1": "1"}, {m: m for m in c.morphism_ids})
    with pytest.raises(MalformedInputError):
        LocalizationProblem(p, frozenset({"0<=1"}))


def test_localization_fails_object_surjectivity_alone():
    c = terminal_category()
    d = chain_category(1)
    p = FunctorData(c, d, {"*": "0"}, {"id_*": "0<=0"})
    rep = check_localization_premises(LocalizationProblem(p, frozenset()))
    failed = {f.name for f in rep.failures}
    assert failed == {"nerve-surjectivity"}
    assert rep.first_failure().witness == {"dimension": 0, "simplex": "1"}


def test_localization_fails_morphism_surjectivity_alone():
    c = discrete_category(("x", "y"))
    d = chain_category(1)
    p = FunctorData(c, d, {"x": "0", "y": "1"}, {"id_x": "0<=0", "id_y": "1<=1"})
    rep = check_localization_premises(LocalizationProblem(p, frozenset()))
    failed = {f.name for f in rep.failures}
    assert failed == {"nerve-surjectivity"}
    assert rep.first_failure().witness == {"dimension": 1, "simplex": "0<=1"}


def test_localization_fails_pair_surjectivity():
    order = {("a", "b1"), ("a", "c"), ("b2", "c")}
    c = poset_category(("a", "b1", "b2", "c"), lambda x, y: x == y or (x, y) in order)
    d = chain_category(2)
    obj = {"a": "0", "b1": "1", "b2": "1", "c": "2"}
    p = FunctorData(
        c, d, obj, {m: f"{obj[c.src(m)]}<={obj[c.dst(m)]}" for m in c.morphism_ids}
    )
    rep = check_localization_premises(LocalizationProblem(p, frozenset()))
    bad = next(f for f in rep.failures if f.name == "nerve-surjectivity")
    assert bad.witness["dimension"] == 2


def test_localization_fails_fiber_products_alone():
    c = discrete_category(("x", "y"))
    t = terminal_category()
    p = FunctorData(c, t, {"x": "*", "y": "*"}, {"id_x": "id_*", "id_y": "id_*"})
    rep = check_localization_premises(LocalizationProblem(p, frozenset()))
    failed = {f.name for f in rep.failures}
    assert failed == {"fiber-products"}
    assert rep.first_failure().witness["pair"] == ["x", "y"]
