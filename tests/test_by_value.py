"""Sweeps that read each composite once, against the loops they replaced,
transcribed here.

On an all-function carrier `generators` grows its closure by left
multiplication, and the composition-closure sweep of
`check_geometric_setup`, the index of `shriek.factorizations`, the
cancellation sweep of `check_nagata`, `FinCategory.mono_ids`, the
functoriality sweep of `CoefficientSystem` and
`serialization.category_to_dict` read composites by value; none of them
stores a composite in the memo `FinCategory.comp` keeps.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from corrkit import corpus, serialization as ser
from corrkit.corpus import instance
from corrkit.descent import check_nice_pair
from corrkit.fincat import FinCategory, finset_category, full_subcategory, function_table, injections
from corrkit.lattices import chain_lattice, frame_system
from corrkit.setups import EdgeClass, GeometricSetup, NagataSetup, all_class, check_geometric_setup
from corrkit.shriek import check_nagata, factorizations

DERANDOMIZED = settings(max_examples=60, deadline=None, derandomize=True)


def _stored(c: FinCategory) -> int:
    return len(c.__dict__.get("_memo", {}))


def _pairwise_generators(c: FinCategory) -> tuple:
    """The greedy isomorphisms-first generating set, grown by composing
    every pair of reached ids through the table."""
    composite, typing = c.composite, c.morphisms
    reached: set[str] = set()
    out_of: dict[str, list[str]] = {}
    into: dict[str, list[str]] = {}
    gens = []
    for m in sorted(c.morphism_ids, key=lambda m: m not in c.iso_ids):
        if m in reached:
            continue
        gens.append(m)
        reached.add(m)
        work = [m]
        while work and len(reached) < len(typing):
            n = work.pop()
            x, y = typing[n]
            out_of.setdefault(x, []).append(n)
            into.setdefault(y, []).append(n)
            found = [composite(n, f) for f in into.get(x, ())]
            found += [composite(h, n) for h in out_of.get(y, ())]
            for k in found:
                if k not in reached:
                    reached.add(k)
                    work.append(k)
    return tuple(gens)


def _scan_composition_witness(c: FinCategory, members) -> dict | None:
    for g, f in c.composable_pairs:
        if g in members and f in members and c.comp(g, f) not in members:
            return {"pair": [g, f], "composite": c.comp(g, f)}
    return None


def _scan_cancellation_witness(c: FinCategory, members) -> dict | None:
    for g, f in c.composable_pairs:
        if g in members and (f in members) != (c.comp(g, f) in members):
            return {"pair": [g, f], "composite": c.comp(g, f)}
    return None


# sizes 0-3, repeats allowed, under names drawn so that the listing order
# and the size order disagree
@st.composite
def sizes(draw, max_objects=3):
    size_list = draw(st.lists(st.integers(0, 3), min_size=1, max_size=max_objects))
    names = draw(st.permutations([f"o{i}" for i in range(len(size_list))]))
    return dict(zip(names, size_list))


@DERANDOMIZED
@given(sizes(), st.data())
def test_generators_by_left_multiplication_match_the_pairwise_closure(sizes, data):
    c = finset_category(sizes)
    assert c.generators == _pairwise_generators(finset_category(sizes))
    assert _stored(c) == 0
    # the dump reads every composite by value, in the order of the table
    d = ser.category_to_dict(c)
    assert _stored(c) == 0
    table = sorted(function_table(finset_category(sizes)).items())
    assert list(d["compose"].items()) == [(f"{g}{ser.COMPOSE_SEP}{f}", h) for (g, f), h in table]
    # a loaded sizes envelope lists its objects in the envelope's order
    d["objects"] = data.draw(st.permutations(d["objects"]))
    loaded = ser.category_from_dict(d)
    assert loaded.objects == tuple(d["objects"]) and loaded.object_size == sizes
    assert loaded.generators == c.generators
    kept = data.draw(st.sets(st.sampled_from(sorted(sizes)), min_size=1))
    sub = full_subcategory(finset_category(sizes), kept)
    assert sub.generators == _pairwise_generators(full_subcategory(finset_category(sizes), kept))
    assert _stored(sub) == 0


def test_the_generators_of_a_2_and_a_5_element_set_store_no_composite():
    # the pairwise closure stored 3,891,788 of the 9,945,594 composites
    c = finset_category({"a": 2, "b": 5})
    assert c.generators == (
        "a>a:0.1", "a>a:1.0", "b>b:0.1.2.3.4", "b>b:0.1.2.4.3", "b>b:0.1.3.2.4", "b>b:0.2.1.3.4",
        "b>b:1.0.2.3.4", "a>a:0.0", "a>b:0.0", "a>b:0.1", "b>a:0.0.0.0.0", "b>a:0.0.0.0.1",
        "b>a:0.0.0.1.1", "b>b:0.0.0.1.2", "b>b:0.0.1.1.2", "b>b:0.0.1.2.3",
    )
    assert _stored(c) == 0


@DERANDOMIZED
@given(sizes(), st.data())
def test_the_composition_witness_matches_the_scan_over_composable_pairs(sizes, data):
    c = finset_category(sizes)
    ids = sorted(c.morphisms)
    # small classes, classes with a few ids left out, and closed ones
    some = st.frozensets(st.sampled_from(ids))
    members = data.draw(st.one_of(some, some.map(frozenset(ids).difference), st.just(c.iso_ids)))
    rep = check_geometric_setup(GeometricSetup(c, EdgeClass(c, members)))
    closed = next(ch for ch in rep.checks if ch.name == "closed-under-composition")
    assert closed.witness == (_scan_composition_witness(finset_category(sizes), members) or {})
    assert _stored(c) == 0


@DERANDOMIZED
@given(sizes(), st.data())
def test_the_cancellation_witness_matches_the_scan_over_composable_pairs(sizes, data):
    c = finset_category(sizes)
    ids = sorted(c.morphisms)
    some = st.frozensets(st.sampled_from(ids))
    members = data.draw(st.one_of(some, some.map(frozenset(ids).difference), st.just(c.iso_ids)))
    cls = EdgeClass(c, members)
    rep = check_nagata(NagataSetup(GeometricSetup(c, EdgeClass(c, frozenset())), cls, cls))
    cancels = next(ch for ch in rep.checks if ch.name == "cancellation-i")
    assert cancels.witness == (_scan_cancellation_witness(finset_category(sizes), members) or {})
    assert _stored(c) == 0


@DERANDOMIZED
@given(sizes())
def test_the_monos_of_an_all_function_carrier_are_its_injections(sizes):
    c = finset_category(sizes)
    assert c.mono_ids == injections(c)
    assert _stored(c) == 0


def test_the_nagata_axioms_store_no_composite():
    # the cancellation sweeps and the monos stored all 75,831 composites
    c = finset_category({"1": 1, "2": 2, "4": 4})
    ns = NagataSetup(GeometricSetup(c, all_class(c)), all_class(c), EdgeClass(c, c.iso_ids))
    assert check_nagata(ns).passed
    assert _stored(c) == 0


def test_the_sweeps_that_read_each_composite_once_store_none():
    c = finset_category({"1": 1, "2": 2, "4": 4})
    c.generators
    rep = check_geometric_setup(GeometricSetup(c, EdgeClass(c, frozenset(c.morphism_ids) - {"4>2:0.1.1.0"})))
    assert next(ch for ch in rep.checks if ch.name == "closed-under-composition").status == "fail"
    s = GeometricSetup(c, all_class(c))
    frame_system(s, chain_lattice(1))
    ns = NagataSetup(s, EdgeClass(c, c.iso_ids), all_class(c))
    facts = factorizations(ns, "2>4:3.0")
    assert _stored(c) == 0
    fresh = finset_category({"1": 1, "2": 2, "4": 4})
    assert facts == sorted(
        (k, j, p)
        for k in fresh.objects
        for j in fresh.hom("2", k)
        for p in fresh.hom(k, "4")
        if j in fresh.iso_ids and fresh.comp(p, j) == "2>4:3.0"
    )
    assert [k for k, _, _ in facts] == ["2"] * 2


def test_the_nice_pair_gate_keeps_its_report_and_stores_no_composite(monkeypatch):
    # on a carrier of its own, not the one the corpus shares between runs
    monkeypatch.setattr(corpus, "_cover_carrier", corpus._cover_carrier.__wrapped__)
    pd = instance("nice-pair-cover").build()
    rep = check_nice_pair(pd)
    digest = hashlib.sha256(rep.to_json().encode("utf-8")).hexdigest()
    assert digest == "0fdd770424a8ce51046ee5148bc34dddfed2d9eb2c74d9390d0c15947b9bc5e3"
    assert _stored(pd.big.category) == _stored(pd.small) == 0
