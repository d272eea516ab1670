"""JSON envelopes: round-trips, schema tagging, strict field checking."""

import contextlib
import copy
import io

import pytest
from hypothesis import assume, given, settings, strategies as st

from corrkit import fincat, serialization as ser
from corrkit.cli import main
from corrkit.corpus import corpus, instance
from corrkit.descent import LocalizationProblem, PairDeclaration
from corrkit.fincat import FinCategory, FunctorData, chain_category, finset_category, finset_skeleton, surjections
from corrkit.lattices import chain_lattice, n5_lattice
from corrkit.report import MalformedInputError
from corrkit.setups import GeometricSetup, all_class, iso_class
from corrkit.shriek import NagataSetup

from helpers import localization_to_dict, pair_to_dict


def test_category_round_trip():
    c = finset_skeleton(2)
    d = ser.category_to_dict(c)
    back = ser.category_from_dict(d)
    assert back.objects == c.objects
    assert back.morphisms == c.morphisms
    assert back.compose is None and back == c
    assert back.object_size == c.object_size


def test_category_round_trip_without_sizes():
    c = chain_category(2)
    back = ser.category_from_dict(ser.category_to_dict(c))
    assert back.compose == c.compose
    assert back.object_size is None


def test_category_unknown_field_rejected():
    d = ser.category_to_dict(chain_category(1))
    d["extra"] = 1
    with pytest.raises(MalformedInputError, match="extra"):
        ser.category_from_dict(d)


def test_category_missing_field_rejected():
    d = ser.category_to_dict(chain_category(1))
    del d["identities"]
    with pytest.raises(MalformedInputError, match="identities"):
        ser.category_from_dict(d)


def test_category_wrong_schema_rejected():
    d = ser.category_to_dict(chain_category(1))
    d["schema"] = "corrkit-category/2"
    with pytest.raises(MalformedInputError, match="schema"):
        ser.category_from_dict(d)


def test_category_sizes_must_match_objects():
    d = ser.category_to_dict(finset_skeleton(1))
    d["sizes"]["ghost"] = 3
    with pytest.raises(MalformedInputError, match="ghost"):
        ser.category_from_dict(d)


def test_compose_separator_collision_rejected():
    c = chain_category(1)
    renamed = {m: m.replace("<=", ser.COMPOSE_SEP) for m in c.morphism_ids}
    bad = FinCategory(
        c.objects,
        {renamed[m]: c.morphisms[m] for m in c.morphism_ids},
        {x: renamed[m] for x, m in c.identity.items()},
        {(renamed[g], renamed[f]): renamed[h] for (g, f), h in c.compose.items()},
    )
    with pytest.raises(MalformedInputError, match="separator"):
        ser.category_to_dict(bad)


def test_lattice_round_trip_with_tensor():
    L = n5_lattice("join")
    back = ser.lattice_from_dict(ser.lattice_to_dict(L))
    assert back == L
    assert back.tensor_table == L.tensor_table


def test_lattice_frame_flag_mismatch_rejected():
    d = ser.lattice_to_dict(chain_lattice(2))
    d["frame"] = False
    with pytest.raises(MalformedInputError, match="frame"):
        ser.lattice_from_dict(d)


def test_nagata_round_trip():
    ns = instance("nagata-inj-surj").build()
    back = ser.nagata_from_dict(ser.nagata_to_dict(ns))
    assert back.setup.e.members == ns.setup.e.members
    assert back.i_class.members == ns.i_class.members
    assert back.p_class.members == ns.p_class.members


def test_pair_round_trip():
    pd = instance("nice-pair-identity").build()
    back = ser.pair_from_dict(pair_to_dict(pd))
    assert back.kind == pd.kind
    assert back.small_objects == pd.small_objects
    assert back.s_small == pd.s_small
    assert back.e_small == pd.e_small
    assert {o: [a.x for a in lst] for o, lst in back.atlases.items()} == {
        o: [a.x for a in lst] for o, lst in pd.atlases.items()
    }


def test_every_pair_envelope_survives_write_load_write():
    # the pair writes its own cover class, so a pair with no atlases keeps
    # its cover too
    pairs = {inst.name: inst.build() for inst in corpus() if inst.kind == "pair"}
    c = finset_skeleton(2)
    surj = surjections(c)
    pairs["no-atlas"] = PairDeclaration("nice", GeometricSetup(c, all_class(c)), c.objects, surj, surj, surj, surj, {})
    assert len(pairs) == 4 and pairs["no-atlas"].cover
    def declared(pd):
        atlases = {obj: [a.x for a in lst] for obj, lst in pd.atlases.items()}
        return pd.kind, pd.small_objects, pd.s_small, pd.s_big, pd.e_small, pd.big.e.members, pd.cover, atlases

    for name, pd in pairs.items():
        text = ser.dumps(pair_to_dict(pd))
        back = ser.loads(text)
        assert declared(back) == declared(pd), name
        assert ser.dumps(pair_to_dict(back)) == text, name


def test_localization_round_trip():
    lp = instance("localization-interval").build()
    back = ser.localization_from_dict(localization_to_dict(lp))
    assert back.r == lp.r
    assert back.p.mor_map == lp.p.mor_map


def test_generic_from_dict_dispatch():
    c = chain_category(1)
    obj = ser.from_dict(ser.category_to_dict(c))
    assert obj.objects == c.objects
    with pytest.raises(MalformedInputError, match="unknown schema"):
        ser.from_dict({"schema": "corrkit-nothing/1"})
    with pytest.raises(MalformedInputError, match="schema"):
        ser.from_dict({"objects": []})


def test_loads_reports_position():
    with pytest.raises(MalformedInputError, match="line 1"):
        ser.loads("{not json")


def test_dumps_deterministic():
    d = ser.lattice_to_dict(n5_lattice())
    assert ser.dumps(d) == ser.dumps(dict(reversed(list(d.items()))))


# -- sizes carriers are verified on load --------------------------------------


def _corpus_carriers():
    for inst in corpus():
        built = inst.build()
        if isinstance(built, GeometricSetup):
            yield inst.name, built.category
        elif isinstance(built, NagataSetup):
            yield inst.name, built.setup.category
        elif isinstance(built, PairDeclaration):
            yield inst.name, built.big.category
        elif isinstance(built, LocalizationProblem):
            yield inst.name, built.p.source


def test_every_corpus_finset_carrier_round_trips():
    seen = 0
    for name, c in _corpus_carriers():
        if c.object_size is None:
            continue
        seen += 1
        back = ser.loads(ser.dumps(ser.category_to_dict(c)))
        assert (back.objects, back.morphisms, back.identity) == (c.objects, c.morphisms, c.identity), name
        assert back.compose is None and back.object_size == c.object_size, name
    assert seen == 11


def _rename(d, old, new):
    """The envelope with one morphism id replaced everywhere it occurs."""
    sep = ser.COMPOSE_SEP
    for entry in d["morphisms"]:
        if entry["id"] == old:
            entry["id"] = new
    d["identities"] = {x: new if m == old else m for x, m in d["identities"].items()}
    compose = {}
    for key, h in d["compose"].items():
        g, _, f = key.partition(sep)
        g, f = (new if m == old else m for m in (g, f))
        compose[f"{g}{sep}{f}"] = new if h == old else h
    d["compose"] = compose
    return d


def _drop_function(d):
    d["morphisms"] = [e for e in d["morphisms"] if e["id"] != "1>2:1"]
    return d


def _wrong_composite(d):
    key = f"2>2:1.0{ser.COMPOSE_SEP}2>2:1.0"
    assert d["compose"][key] == "2>2:0.1"
    d["compose"][key] = "2>2:1.1"
    return d


def _drop_composite(d):
    del d["compose"][f"2>2:1.0{ser.COMPOSE_SEP}2>2:1.0"]
    return d


def _bad_size(d):
    d["sizes"]["0"] = "x"
    return d


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: _rename(d, "2>2:1.0", "swap"), "is not a function"),
        (lambda d: _rename(d, "2>2:1.0", "2>2:1.00"), "is not a function"),
        (lambda d: _rename(d, "1>2:1", "1>2:2"), "is not a function"),
        (lambda d: _rename(d, "2>1:0.0", "2>1:0"), "is not a function"),
        (lambda d: _rename(d, "2>2:0.1", "2>2:0.1.0"), "is not a function"),
        (_drop_function, "does not hold every function"),
        (lambda d: _rename(d, "1>1:0", "1>1:"), "is not a function"),
        (_wrong_composite, "compose entry"),
        (_drop_composite, "one per composable pair"),
        (_bad_size, "non-negative integer"),
    ],
    ids=[
        "not-a-function-id", "leading-zero", "out-of-range", "short", "long", "missing", "empty",
        "compose", "compose-missing", "size",
    ],
)
def test_malformed_sizes_carrier_exits_2(tmp_path, capsys, mutate, message):
    d = mutate(ser.category_to_dict(finset_skeleton(2)))
    path = tmp_path / "bad.json"
    path.write_text(ser.dumps(d))
    with pytest.raises(MalformedInputError, match=message):
        ser.category_from_dict(d)
    code = main(["run", "--input", str(path), "--format", "json"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


def test_wrong_identity_rejected():
    d = ser.category_to_dict(finset_skeleton(2))
    d["identities"]["2"] = "2>2:1.0"
    with pytest.raises(MalformedInputError, match="identity"):
        ser.category_from_dict(d)


def _sizes_mutations(d, data):
    """One mutation of a sizes envelope, drawn: each leaves it no longer the
    carrier its sizes name."""
    ids = [e["id"] for e in d["morphisms"]]
    kind = data.draw(st.sampled_from(["rename", "retarget", "drop-morphism", "drop-compose", "swap-identity"]))
    if kind == "rename":
        m = data.draw(st.sampled_from(ids))
        return _rename(d, m, m + "0")
    if kind == "retarget":
        key = data.draw(st.sampled_from(sorted(d["compose"])))
        others = [m for m in ids if m != d["compose"][key]]
        assume(others)
        d["compose"][key] = data.draw(st.sampled_from(others))
    elif kind == "drop-morphism":
        del d["morphisms"][data.draw(st.integers(0, len(ids) - 1))]
    elif kind == "drop-compose":
        del d["compose"][data.draw(st.sampled_from(sorted(d["compose"])))]
    else:
        x = data.draw(st.sampled_from(d["objects"]))
        others = [m for m in ids if m != d["identities"][x]]
        assume(others)
        d["identities"][x] = data.draw(st.sampled_from(others))
    return d


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_sizes_envelope_loads_as_the_built_carrier_and_no_mutation_loads(data):
    names = data.draw(st.permutations(data.draw(st.sampled_from(["a", "ab", "abc"]))))
    sizes = {x: data.draw(st.integers(0, 2)) for x in names}
    built = finset_category(sizes)
    d = ser.category_to_dict(built)
    d["objects"] = list(names)
    back = ser.category_from_dict(d)
    # field by field the built carrier, in the envelope's object order and
    # with no compose table
    assert back.objects == tuple(names)
    assert (back.morphisms, back.identity, back.compose, back.object_size) == (
        built.morphisms, built.identity, built.compose, built.object_size
    )
    assert back.compose is None and back.object_size == sizes
    mutated = _sizes_mutations(copy.deepcopy(d), data)
    with pytest.raises(MalformedInputError) as err:
        ser.category_from_dict(mutated)
    assert "\n" not in str(err.value)


def test_counts_are_checked_before_the_carrier_is_built(monkeypatch):
    complete = ser.category_to_dict(finset_category({"1": 1, "2": 2}))

    def refuse(sizes):
        raise AssertionError(f"finset_category({sizes}) called before the counts were checked")

    monkeypatch.setattr(fincat, "finset_category", refuse)
    # 40^40 functions claimed by three morphisms
    huge = {
        "schema": ser.CATEGORY_SCHEMA,
        "objects": ["a", "b"],
        "morphisms": [{"id": f"a>{y}:", "src": "a", "dst": y} for y in "ab"] + [{"id": "b>b:", "src": "b", "dst": "b"}],
        "identities": {"a": "a>a:", "b": "b>b:"},
        "compose": {},
        "sizes": {"a": 40, "b": 40},
    }
    with pytest.raises(MalformedInputError, match="hom-set 'a' -> 'a' does not hold every function"):
        ser.category_from_dict(huge)
    complete["compose"] = {}
    with pytest.raises(MalformedInputError, match="compose table has 0 entries"):
        ser.category_from_dict(complete)
    assert all(ser._is_power(c, n, k) == (c == n**k) for c in range(70) for n in range(6) for k in range(8))


@pytest.mark.parametrize("sizes", [True, False], ids=["sizes", "sizes-free"])
def test_duplicate_object_exits_2(tmp_path, capsys, sizes):
    d = ser.category_to_dict(finset_skeleton(1))
    if not sizes:
        del d["sizes"]
    d["objects"] = ["0", "1", "0"]
    _exits_2_with_one_line(tmp_path, capsys, d, "^duplicate object '0'$")


# -- lattice and sizes-free category envelopes are validated on load ----------


def _exits_2_with_one_line(tmp_path, capsys, d, message):
    path = tmp_path / "bad.json"
    path.write_text(ser.dumps(d))
    with pytest.raises(MalformedInputError, match=message):
        ser.from_dict(d)
    code = main(["run", "--input", str(path), "--format", "json"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


def _set(key, value):
    def mutate(d):
        d[key] = value
        return d

    return mutate


def _tensor_entry(i, entry):
    def mutate(d):
        d["tensor"][i] = entry
        return d

    return mutate


def _add_tensor_entry(entry):
    def mutate(d):
        d["tensor"].append(entry)
        return d

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: {**d, "leq": [["0"], *d["leq"][1:]]}, "leq entry"),
        (_set("leq", "01"), "leq must be a list"),
        (_tensor_entry(0, ["0", "0"]), "tensor entry"),
        (_set("elements", [0, 1, 2, 3, 4]), "lattice elements must be a list of strings"),
        (_set("frame", "no"), "frame flag must be true or false"),
        (_set("frame", 0), "frame flag must be true or false"),
        (_add_tensor_entry(["q", "q", "0"]), "tensor table defined outside the lattice"),
        (_tensor_entry(0, ["0", "0", "zz"]), "tensor value 'zz' outside the lattice"),
        (lambda d: _add_tensor_entry(list(d["tensor"][3]))(d), "duplicate tensor entry"),
        # a repeated name was reported as a missing meet
        (lambda d: {**d, "elements": [*d["elements"], "b"]}, "duplicate element 'b'"),
    ],
    ids=["leq-pair", "leq-string", "tensor-pair", "int-elements", "frame-string", "frame-int",
         "tensor-key", "tensor-value", "tensor-duplicate", "element-duplicate"],
)
def test_malformed_lattice_exits_2(tmp_path, capsys, mutate, message):
    d = mutate(ser.lattice_to_dict(n5_lattice("join")))
    _exits_2_with_one_line(tmp_path, capsys, d, message)


def _chain_nagata():
    c = chain_category(2)
    return ser.nagata_to_dict(NagataSetup(GeometricSetup(c, all_class(c)), all_class(c), iso_class(c)))


def _drop_key(d):
    del d["category"]["morphisms"][0]["id"]
    return d


def _drop_identity_square(d):
    del d["category"]["compose"][f"0<=0{ser.COMPOSE_SEP}0<=0"]
    return d


def _mistyped_composite(d):
    d["category"]["compose"][f"0<=0{ser.COMPOSE_SEP}0<=0"] = "1<=2"
    return d


def _non_composable_entry(d):
    d["category"]["compose"][f"0<=1{ser.COMPOSE_SEP}0<=1"] = "0<=1"
    return d


def _duplicate_morphism(d):
    d["category"]["morphisms"].append(dict(d["category"]["morphisms"][0]))
    return d


def _dangling_endpoint(d):
    # loaded before endpoints were checked on this path, and the category
    # suite then reported it as `well-formed-ids` (exit 1)
    d["category"]["morphisms"].append({"id": "0<=9", "src": "0", "dst": "9"})
    d["category"]["compose"][f"0<=9{ser.COMPOSE_SEP}0<=0"] = "0<=9"
    return d


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_drop_key, "morphism entry lacks 'id'"),
        (_drop_identity_square, "compose entry '0<=0' after '0<=0': missing entry"),
        (_mistyped_composite, r"compose entry '0<=0' after '0<=0': wrong typing \('1<=2'\)"),
        (_non_composable_entry, "compose entry '0<=1' after '0<=1': non-composable entry"),
        (_duplicate_morphism, "duplicate morphism id"),
        (lambda d: {**d, "category": {**d["category"], "objects": "012"}}, "objects must be a list"),
        (_dangling_endpoint, "^morphism '0<=9' has an endpoint outside the objects$"),
    ],
    ids=["no-id", "missing-entry", "mistyped", "non-composable", "duplicate", "objects", "dangling-endpoint"],
)
def test_malformed_sizes_free_category_exits_2(tmp_path, capsys, mutate, message):
    d = mutate(_chain_nagata())
    _exits_2_with_one_line(tmp_path, capsys, d, message)
    _exits_2_with_one_line(tmp_path, capsys, d["category"], message)


@pytest.mark.parametrize(
    "side, change, message",
    [
        # these two loaded before identities were checked: the first ended
        # in a KeyError inside check_functor, the second exited 0
        ("source", lambda ids: ids.pop("1"), "^identities do not match objects at '1'$"),
        ("target", lambda ids: ids.update(ghost="id_*"), "^identities do not match objects at 'ghost'$"),
        ("source", lambda ids: ids.update({"0": "0<=1"}), "^identity of '0' is not a loop at '0'$"),
        ("source", lambda ids: ids.update({"0": "0<=9"}), "^identity of '0' is not a loop at '0'$"),
    ],
    ids=["source-missing", "target-ghost", "not-a-loop", "unlisted"],
)
def test_identities_name_one_loop_per_object_or_exit_2(tmp_path, capsys, side, change, message):
    # the interval 0 <= 1 sent to the point *, as a localization envelope
    # and as the bare category envelope of the changed side
    d = _localization()
    change(d[side]["identities"])
    _exits_2_with_one_line(tmp_path, capsys, d, message)
    _exits_2_with_one_line(tmp_path, capsys, d[side], message)


def test_sizes_free_envelopes_still_load():
    d = _chain_nagata()
    back = ser.nagata_from_dict(d)
    assert back.setup.category.compose == chain_category(2).compose
    for inst in corpus():
        built = inst.build()
        if isinstance(built, LocalizationProblem):
            # the target is the terminal category, which carries no sizes
            assert ser.localization_from_dict(localization_to_dict(built)).p.target.compose == built.p.target.compose


# -- factorization-setup and pair envelopes are type-checked on load ----------


def _append(key, value):
    def mutate(d):
        d[key] = d[key] + [value]
        return d

    return mutate


def _pair():
    return pair_to_dict(instance("nice-pair-identity").build())


def _exceptional_pair():
    return pair_to_dict(instance("exceptional-pair-cover").build())


def _cover_pair():
    return pair_to_dict(instance("nice-pair-cover").build())


def _small_cut(*, s_small_too: bool):
    """small_objects cut to 1 and 2, with s_small cut to match if asked, so
    e_small is the first field to reach outside them."""

    def mutate(d):
        d["small_objects"] = ["1", "2"]
        if s_small_too:
            d["s_small"] = [m for m in d["s_small"] if m[0] in "12" and m[2] in "12"]
        return d

    return mutate


def _localization():
    # the interval 0 <= 1 sent to the point *
    return localization_to_dict(instance("localization-interval").build())


def _not_a_functor(source, target, obj_map, images):
    """A localization envelope whose mor_map sends each source morphism to
    `images[m]`, or to `m` itself when `images` has no entry for it."""
    mor_map = {m: images.get(m, m) for m in source.morphism_ids}
    return lambda: localization_to_dict(LocalizationProblem(FunctorData(source, target, obj_map, mor_map), frozenset()))


def _map_entry(key, entry, value):
    def mutate(d):
        d[key] = {k: v for k, v in d[key].items() if k != entry}
        if value is not None:
            d[key][entry] = value
        return d

    return mutate


@pytest.mark.parametrize(
    "envelope, mutate, message",
    [
        (_pair, lambda d: {**d, "atlases": list(d["atlases"])}, "atlases must map objects to lists of strings"),
        (_pair, lambda d: {**d, "atlases": {"2": "2>2:0.1"}}, "atlases of '2' must be a list of strings"),
        # an atlas under an object outside the carrier, for either kind of pair
        (_pair, _map_entry("atlases", "9", ["2>2:0.1"]), r"unknown objects \['9'\]"),
        (_exceptional_pair, _map_entry("atlases", "3", ["2>1:0.0"]), r"unknown objects \['3'\]"),
        # an atlas under an object that is not its target, for either kind
        (_pair, _map_entry("atlases", "2", ["1>1:0"]), "atlas '1>1:0' is listed under '2', not under its target '1'"),
        (
            _exceptional_pair,
            _map_entry("atlases", "4", ["1>1:0"]),
            "atlas '1>1:0' is listed under '4', not under its target '1'",
        ),
        # small classes reaching outside the full subcategory on small_objects
        (_cover_pair, _small_cut(s_small_too=False), r"s_small mentions morphisms outside small_objects \['4>1:0.0.0.0', "),
        (_cover_pair, _small_cut(s_small_too=True), r"e_small mentions morphisms outside small_objects \['1>4:0', "),
        (_pair, _append("s_big", {}), "s_big must be a list of strings"),
        (_pair, _append("e_big", []), "e_big must be a list of strings"),
        (_pair, _set("small_objects", "012"), "small_objects must be a list of strings"),
        (_pair, _append("small_objects", "2"), "^duplicate small object '2'$"),
        (_pair, _append("s_small", 0), "s_small must be a list of strings"),
        (_pair, _append("e_small", ["0>0:"]), "e_small must be a list of strings"),
        (_pair, _set("cover", "2>1:0.0"), "cover must be a list of strings"),
        (_pair, _append("cover", "2>3:0.1"), r"^cover mentions unknown morphisms \['2>3:0.1'\]$"),
        (_pair, _map_entry("atlases", "2", ["2>3:0.1"]), "^unknown atlas morphism '2>3:0.1'$"),
        (_chain_nagata, _append("i", []), "i must be a list of strings"),
        (_chain_nagata, _set("e", "0<=0"), "e must be a list of strings"),
        (_chain_nagata, _append("p", None), "p must be a list of strings"),
        (_pair, lambda d: {"schema": []}, r"unknown schema \[\]"),
        (_chain_nagata, _set("schema", {}), r"unknown schema \{\}"),
        (_localization, _map_entry("obj_map", "1", None), "obj_map has no entry for '1'"),
        (_localization, _map_entry("mor_map", "0<=1", None), "mor_map has no entry for '0<=1'"),
        (_localization, _set("obj_map", []), "obj_map must map strings to strings"),
        (_localization, _map_entry("mor_map", "0<=1", ["id_*"]), "mor_map must map strings to strings"),
        (_localization, _map_entry("obj_map", "2", "*"), "obj_map has an entry for unknown '2'"),
        (_localization, _map_entry("mor_map", "0<=1", "*"), "mor_map sends '0<=1' to '\\*', outside the target"),
        (_localization, _set("inverted", [["0<=1"]]), "inverted must be a list of strings"),
        (_localization, _set("inverted", "0<=1"), "inverted must be a list of strings"),
        (
            # the 2-chain sent to itself, but 0<=0 to 0<=1
            _not_a_functor(chain_category(1), chain_category(1), {"0": "0", "1": "1"}, {"0<=0": "0<=1"}),
            lambda d: d,
            r"mor_map is not a functor: check 'typing' fails at \{\"morphism\": \"0<=0\", ",
        ),
        (
            # the 3-chain sent to the swap of a 2-element set, 0<=2 too
            _not_a_functor(
                chain_category(2),
                finset_category({"2": 2}),
                {"0": "2", "1": "2", "2": "2"},
                {"0<=0": "2>2:0.1", "1<=1": "2>2:0.1", "2<=2": "2>2:0.1", "0<=1": "2>2:1.0", "1<=2": "2>2:1.0",
                 "0<=2": "2>2:1.0"},
            ),
            lambda d: d,
            r"mor_map is not a functor: check 'composites' fails at \{\"pair\": \[\"1<=2\", \"0<=1\"\]\}$",
        ),
    ],
    ids=["atlases-list", "atlas-string", "atlas-unknown-object", "exceptional-atlas-unknown-object",
         "atlas-other-target", "exceptional-atlas-other-target", "s-small-outside", "e-small-outside",
         "s-big-dict", "e-big-list", "small-objects-string", "small-objects-duplicate", "s-small-int",
         "e-small-list", "cover-string", "cover-unknown-morphism", "atlas-unknown-morphism", "i-list", "e-string", "p-null", "schema-list", "schema-dict",
         "obj-map-missing", "mor-map-missing", "obj-map-list", "mor-map-list-value", "obj-map-unknown",
         "mor-map-outside", "inverted-nested", "inverted-string", "functor-typing", "functor-composite"],
)
def test_mistyped_declaration_fields_exit_2(tmp_path, capsys, envelope, mutate, message):
    _exits_2_with_one_line(tmp_path, capsys, mutate(envelope()), message)


# -- one-edit mutations of corpus envelopes ------------------------------------


def _corpus_envelope(obj) -> dict:
    if isinstance(obj, GeometricSetup):
        return ser.category_to_dict(obj.category)
    if isinstance(obj, NagataSetup):
        return ser.nagata_to_dict(obj)
    if isinstance(obj, PairDeclaration):
        return pair_to_dict(obj)
    if isinstance(obj, LocalizationProblem):
        return localization_to_dict(obj)
    return ser.lattice_to_dict(obj)


# every corpus envelope but finset-3 and the two pair covers, which take
# from 0.01 s to 1.7 s a run where the others take a few milliseconds
_SMALL_ENVELOPES = {
    inst.name: _corpus_envelope(inst.build())
    for inst in corpus()
    if inst.name not in ("finset-3", "nice-pair-cover", "exceptional-pair-cover")
}


def _paths(node, path=()):
    """The path of every value under node, node itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _one_edit(d: dict, data) -> dict:
    """d with one edit: a value replaced by one of another JSON type, a key
    deleted or renamed, a list item duplicated, or two values swapped."""
    paths = list(_paths(d))[1:]
    path = data.draw(st.sampled_from(paths), label="path")
    *parent_path, key = path
    parent = d
    for k in parent_path:
        parent = parent[k]
    kinds = ["retype", "swap"] + (["delete", "rename"] if isinstance(parent, dict) else ["duplicate"])
    kind = data.draw(st.sampled_from(kinds), label="edit")
    if kind == "retype":
        old = type(parent[key])
        parent[key] = data.draw(st.sampled_from([v for v in (None, True, 7, 0.5, "x", [], {}) if type(v) is not old]))
    elif kind == "delete":
        del parent[key]
    elif kind == "rename":
        parent[data.draw(st.sampled_from(["x", *map(str, parent)]), label="new key")] = parent.pop(key)
    elif kind == "duplicate":
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        # neither path may run through the other, so both survive the swap
        others = [p for p in paths if p[: len(path)] != path and path[: len(p)] != p]
        assume(others)
        other = data.draw(st.sampled_from(others), label="other")
        *other_parent_path, other_key = other
        other_parent = d
        for k in other_parent_path:
            other_parent = other_parent[k]
        parent[key], other_parent[other_key] = other_parent[other_key], parent[key]
    return d


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_SMALL_ENVELOPES)), st.data())
def test_one_edit_to_a_corpus_envelope_exits_0_1_or_2_with_at_most_one_line(tmp_path_factory, name, data):
    d = _one_edit(copy.deepcopy(_SMALL_ENVELOPES[name]), data)
    path = tmp_path_factory.mktemp("edit") / "envelope.json"
    path.write_text(ser.dumps(d))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--input", str(path)])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1, err.getvalue()
