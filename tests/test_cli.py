"""Command line front end: exit codes, determinism, corpus wiring."""

import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import corrkit
from corrkit import cli, descent, shriek
from corrkit.cli import WorkspaceConfig, main, run
from corrkit.corpus import SUITE_ORDER, corpus, instance
from corrkit.fincat import FinCategory, check_category, finset_category, injections, surjections
from corrkit.lattices import FiniteLattice, chain_lattice, n5_lattice
from corrkit.report import MalformedInputError, VerificationReport
from corrkit.setups import EdgeClass, GeometricSetup, all_class, iso_class
from corrkit.shriek import NagataSetup
from corrkit import serialization as ser

from helpers import localization_to_dict, pair_to_dict


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- corpus ----------------------------------------------------------------


def test_corpus_size_and_stable_listing(capsys):
    insts = corpus()
    assert len(insts) >= 10
    names = [i.name for i in insts]
    assert len(set(names)) == len(names)
    code1, out1, _ = invoke(capsys, "corpus", "list", "--format", "json")
    code2, out2, _ = invoke(capsys, "corpus", "list", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert [row["name"] for row in json.loads(out1)] == names


def test_every_bundled_carrier_passes_category_check():
    # instances that do not declare the category suite sit on carriers where
    # the exhaustive associativity scan is deliberately out of scope
    for inst in corpus():
        if "category" not in inst.suites:
            continue
        built = inst.build()
        c = built.category if inst.kind == "category" else built.setup.category
        assert check_category(c).passed, inst.name


def test_every_instance_builds():
    for inst in corpus():
        assert inst.build() is not None
        for suite in inst.expect_fail:
            assert suite in inst.suites


def test_unknown_instance_is_input_error(capsys):
    code, _, err = invoke(capsys, "run", "--instance", "no-such-thing")
    assert code == 2
    assert "no-such-thing" in err


# -- run: exit codes -------------------------------------------------------


def test_missing_input_file_is_exit_2(capsys):
    code, _, err = invoke(capsys, "run", "--input", "/no/such/file.json")
    assert code == 2
    assert "file.json" in err


def test_unparseable_input_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = invoke(capsys, "run", "--input", str(bad))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "not UTF-8 at byte 0"),
        (b"[" * 100000 + b"]" * 100000, "nested too deeply"),
    ],
    ids=["utf-16-bom", "deep-nesting"],
)
def test_unreadable_input_is_exit_2_with_one_line(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = invoke(capsys, "run", "--input", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_clean_instance_run_is_exit_0(capsys):
    code, out, _ = invoke(capsys, "run", "--instance", "finset-1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "corrkit-run/1"
    assert payload["mode"] == "raw"
    assert all(payload["verdicts"].values())


def test_designed_negative_instance_is_exit_1_at_documented_check(capsys):
    # explicit selection runs raw: the documented failure makes the exit 1,
    # and the theorem suite locates it at the cancellation axiom
    code, out, _ = invoke(
        capsys, "run", "--instance", "nagata-inj-surj", "--suite", "theorem", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    (rep,) = payload["reports"]
    failed = [c for c in rep["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["axioms:cancellation-p"]
    assert failed[0]["witness"]["pair"]


def _pentagon_input(tmp_path) -> str:
    path = tmp_path / "pentagon.json"
    path.write_text(ser.dumps(ser.lattice_to_dict(instance("pentagon-join").build())))
    return str(path)


def test_input_file_runs_applicable_suites(tmp_path, capsys):
    code, out, _ = invoke(capsys, "run", "--input", _pentagon_input(tmp_path), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    (rep,) = payload["reports"]
    assert rep["suite"].endswith(":model")
    failed = {c["name"] for c in rep["checks"] if c["status"] == "fail"}
    assert failed == {"projection-sharp", "projection-star", "external-product"}


def _record_suites(monkeypatch) -> list:
    """(tag, suite) of each suite a run starts; each reports an empty pass."""
    ran = []
    plan = cli._plan

    def recording(tag, obj, options):
        runs = plan(tag, obj, options)
        return {s: runs[s] and (lambda s=s: ran.append((tag, s)) or VerificationReport(f"{tag}:{s}")) for s in runs}

    monkeypatch.setattr(cli, "_plan", recording)
    return ran


def test_inputs_and_instances_both_run_inputs_first(tmp_path, capsys):
    path = _pentagon_input(tmp_path)
    _, alone = run(WorkspaceConfig(instances=("finset-1",)))
    code, out, _ = invoke(capsys, "run", "--instance", "finset-1", "--input", path, "--format", "json")
    payload = json.loads(out)
    assert (code, payload["mode"]) == (1, "raw")
    assert payload["verdicts"] == {f"{path}:model": False, **alone["verdicts"]}
    assert list(payload["verdicts"]) == [f"{path}:model", *alone["verdicts"]]


def test_an_unknown_instance_beside_an_input_exits_2_before_any_suite(tmp_path, monkeypatch, capsys):
    ran = _record_suites(monkeypatch)
    code, out, err = invoke(capsys, "run", "--input", _pentagon_input(tmp_path), "--instance", "no-such-thing")
    assert (code, out, ran) == (2, "", [])
    assert err == "error: no bundled instance named 'no-such-thing'\n"


def test_a_named_input_no_selected_suite_applies_to_exits_2_before_any_suite(tmp_path, monkeypatch, capsys):
    ran = _record_suites(monkeypatch)
    path = _pentagon_input(tmp_path)
    code, out, err = invoke(capsys, "run", "--input", path, "--suite", "theorem", "--format", "json")
    assert (code, out, ran) == (2, "", [])
    assert err == f"error: no selected suite applies to --input {path}; its suites are model\n"
    argv = ("run", "--instance", "nagata-open", "--instance", "finset-1", "--input", path, "--suite", "theorem")
    code, out, err = invoke(capsys, *argv, "--suite", "model")
    assert (code, out, ran) == (2, "", [])
    assert err == "error: no selected suite applies to --instance finset-1; its suites are category, setup\n"


def _sizes_free_nagata_input(tmp_path) -> str:
    d = ser.nagata_to_dict(instance("nagata-open").build())
    del d["category"]["sizes"]
    path = tmp_path / "nagata.json"
    path.write_text(ser.dumps(d))
    return str(path)


def test_a_factorization_setup_without_sizes_runs_its_category_and_setup_suites(tmp_path, capsys):
    # the theorem suite builds frame systems, which read the carrier's
    # cardinalities, so a well-formed envelope without `sizes` takes the
    # other two suites, and selecting the theorem alone names them
    path = _sizes_free_nagata_input(tmp_path)
    code, out, err = invoke(capsys, "run", "--input", path, "--format", "json")
    assert (code, err) == (0, "")
    assert [rep["suite"] for rep in json.loads(out)["reports"]] == [f"{path}:category", f"{path}:setup"]
    code, out, err = invoke(capsys, "run", "--input", path, "--suite", "theorem")
    assert (code, out) == (2, "")
    assert err == (
        f"error: no selected suite applies to --input {path}; its suites are category, setup: "
        "its carrier declares no sizes, which the theorem suite reads\n"
    )


def test_shriek_build_on_a_factorization_setup_without_sizes_names_its_suites(tmp_path, monkeypatch, capsys):
    # the maps are built over a frame system, as the theorem suite builds
    # them, so the command refuses before building anything
    built = []
    monkeypatch.setattr(cli, "_gated_shriek", lambda *args: built.append(args))
    path = _sizes_free_nagata_input(tmp_path)
    code, out, err = invoke(capsys, "shriek", "build", "--input", path)
    assert (code, out, built) == (2, "", [])
    assert err == (
        f"error: cannot build: the theorem suite does not apply to --input {path}: "
        "its carrier declares no sizes, which the theorem suite reads\n"
    )


def test_a_bare_run_with_a_suite_only_filters_instances(monkeypatch):
    ran = _record_suites(monkeypatch)
    run(WorkspaceConfig(suites=("theorem",)))
    assert ran == [(inst.name, "theorem") for inst in corpus() if "theorem" in inst.suites]


def test_an_unreadable_input_after_a_good_one_exits_2_before_any_suite(tmp_path, monkeypatch, capsys):
    ran = _record_suites(monkeypatch)
    missing = str(tmp_path / "missing.json")
    code, out, err = invoke(capsys, "run", "--input", _pentagon_input(tmp_path), "--input", missing)
    assert (code, out, ran) == (2, "", [])
    assert err.startswith(f"error: cannot read {missing}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "selections",
    [
        # an input path equal to an instance name
        ("--input", "frame-2chain", "--instance", "frame-2chain"),
        ("--input", "pentagon.json", "--input", "pentagon.json"),
        ("--instance", "finset-1", "--instance", "finset-1"),
    ],
)
def test_two_selections_under_one_tag_exit_2_before_any_suite(tmp_path, monkeypatch, capsys, selections):
    # reports and verdicts are tagged by path or name, so a second selection
    # under one tag would be read back with the first one's verdict
    monkeypatch.chdir(tmp_path)
    pentagon = ser.dumps(ser.lattice_to_dict(instance("pentagon-join").build()))
    (tmp_path / "frame-2chain").write_text(pentagon)
    (tmp_path / "pentagon.json").write_text(pentagon)
    ran = _record_suites(monkeypatch)
    code, out, err = invoke(capsys, "run", *selections)
    assert (code, out, ran) == (2, "", [])
    assert err == f"error: two selections would report under one tag {selections[1]!r}\n"


# -- config validation -----------------------------------------------------


def test_config_rejects_out_of_range_bounds():
    with pytest.raises(MalformedInputError, match="suite"):
        WorkspaceConfig(suites=("algebra",))
    with pytest.raises(MalformedInputError, match="format"):
        WorkspaceConfig(fmt="xml")


@pytest.mark.parametrize(
    "argv",
    [
        # the model laws run in the model suite only, so no subcommand
        # reads a law
        ("run", "--law", "kunneth"),
        ("corr", "coproduct", "1", "1", "--input", "/nonexistent.json"),
        ("corr", "coproduct", "1", "1", "--max-dim", "0"),
        ("corr", "coproduct", "1", "1", "--max-apex", "1"),
        ("corr", "hocat", "--input", "/nonexistent.json"),
        ("corr", "hocat", "--max-dim", "0"),
        ("shriek", "build", "--format", "json"),
        # a nice pair's descent checks read every nerve level the carrier
        # holds, so no subcommand reads a nerve bound, even an in-range one
        ("run", "--max-dim", "3"),
        ("run", "--max-dim", "0"),
        ("run", "--max-dim", "2"),
        # the formalism reads every span class, so no subcommand reads an
        # apex bound of any value, even the one every carrier's objects fit
        # under
        ("run", "--max-apex", "4"),
        ("run", "--max-apex", "7"),
        ("run", "--max-apex", "0"),
        ("run", "--max-apex", "-1"),
        ("corr", "hocat", "--max-apex", "4"),
        ("corr", "hocat", "--max-apex", "1000000000"),
        ("corr", "hocat", "--max-apex", "0"),
        ("shriek", "build", "--max-apex", "4"),
        # only `run` selects suites
        ("shriek", "build", "--suite", "theorem"),
        ("shriek", "build", "--law", "adjointable"),
        # the search and the enumerations print JSON only, so they take no
        # format, and they read no declaration
        ("search", "nagata", "--format", "json"),
        ("grid", "enumerate", "--format", "json"),
        ("corr", "enumerate", "--format", "json"),
        ("search", "nagata", "--instance", "nagata-open"),
        ("corpus", "list", "--instance", "nagata-open"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    _assert_parser_error(capsys, argv, "unrecognized arguments")


# each theorem suite has one front end, `run --input F` or
# `run --instance N --suite theorem`, and so has each model law, with
# `--suite model`
@pytest.mark.parametrize(
    "argv",
    [
        ("shriek", "verify"),
        ("formalism", "assemble"),
        ("descend", "extend-c"),
        ("descend", "extend-e"),
        ("localize", "check"),
        ("model", "check"),
    ],
)
def test_a_theorem_suite_has_no_second_front_end(capsys, argv):
    _assert_parser_error(capsys, (*argv, "--format", "json"), "invalid choice")


def _assert_parser_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


def _nagata_open_with_e(tmp_path, keep) -> str:
    """nagata-open as an envelope, its marked class cut to the maps `keep`
    admits."""
    d = ser.nagata_to_dict(instance("nagata-open").build())
    d["e"] = [m["id"] for m in d["category"]["morphisms"] if keep(m)]
    path = tmp_path / "nagata.json"
    path.write_text(ser.dumps(d))
    return str(path)


@pytest.mark.parametrize(
    "keep, reason",
    [
        # 2>2:1.0 then 2>2:1.0 is the unmarked identity 2>2:0.1
        (lambda m: m["id"] != "2>2:0.1", "right leg '2>2:0.1' is not marked"),
        # no span into 2 is marked, so the identity span of 2 has no class
        (
            lambda m: m["dst"] != "2",
            "span ('2>2:0.1', '2>2:0.1') lies in no class: no span isomorphic to it has a marked right leg",
        ),
    ],
)
def test_a_span_no_class_holds_fails_the_formalism(tmp_path, capsys, keep, reason):
    code, out, err = invoke(capsys, "run", "--input", _nagata_open_with_e(tmp_path, keep), "--format", "json")
    assert (code, err) == (1, "")
    reports = json.loads(out)["reports"]
    assert [r["suite"].rsplit(":", 1)[1] for r in reports] == ["category", "setup", "theorem"]
    last = reports[-1]["checks"][-1]
    assert (last["name"], last["status"]) == ("formalism:span-classes", "fail")
    assert last["witness"] == {"reason": reason}


def test_run_api_mirrors_cli(capsys):
    code, payload = run(WorkspaceConfig(instances=("localization-interval",)))
    assert code == 0
    assert list(payload["verdicts"]) == ["localization-interval:theorem"]


# -- subcommands -----------------------------------------------------------


def test_shriek_build_emits_join_tables(capsys):
    code, out, _ = invoke(capsys, "shriek", "build", "--instance", "nagata-open")
    assert code == 0
    tables = json.loads(out)["tables"]
    # collapsing both points pushes forward by the join of the pair
    assert tables["2>1:0.0"]["(1,0)"] == "(1)"
    assert tables["2>1:0.0"]["(0,0)"] == "(0)"


def test_search_nagata_catalog(capsys):
    code, out, _ = invoke(capsys, "search", "nagata")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 16
    good = [r for r in rows if r["axioms"] and r["hypotheses"]]
    assert {("all", "isos"), ("isos", "all")} <= {(r["i"], r["p"]) for r in good}
    assert not any(r["mixed"] for r in good)


def test_corr_coproduct(capsys):
    code, _, _ = invoke(capsys, "corr", "coproduct", "1", "1")
    assert code == 0


def test_grid_enumerate_json(capsys):
    code, out, _ = invoke(capsys, "grid", "enumerate", "--k", "2", "--n", "1")
    assert code == 0
    rows = json.loads(out)
    assert rows and all("objects" in r and "edges" in r for r in rows)


def test_corr_enumerate_counts_cells(capsys):
    code, out, _ = invoke(capsys, "corr", "enumerate", "--dim", "0")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3  # one 0-cell per object of the carrier


@pytest.fixture
def no_hom_scan(monkeypatch):
    """Fail on any hom-set scan: an enumeration scans them from its first
    cell on, so a size it refuses must be refused before."""

    def scan(*args):
        raise AssertionError("scanned a hom-set")

    monkeypatch.setattr(FinCategory, "hom", scan)


@pytest.mark.parametrize("dim", ["-1", "3"])
def test_corr_enumerate_rejects_a_dimension_outside_0_to_2(capsys, no_hom_scan, dim):
    assert invoke(capsys, "corr", "enumerate", "--dim", dim) == (2, "", f"error: need 0 <= n <= 2, got {dim}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("corr", "enumerate", "--dim", "-1000000000"),
        ("corr", "enumerate", "--dim", "1000000000"),
        ("grid", "enumerate", "--k", "0"),
        ("grid", "enumerate", "--k", "4"),
        ("grid", "enumerate", "--n", "-1"),
        ("grid", "enumerate", "--n", "3"),
        # every size is in range, but a grid of 27 vertices never finishes
        ("grid", "enumerate", "--k", "3", "--n", "2"),
        ("grid", "enumerate", "--k", "-1000000000"),
        ("grid", "enumerate", "--k", "1000000"),
        ("grid", "enumerate", "--n", "1000000000"),
        ("grid", "enumerate", "--k", "1000000", "--n", "0"),
    ],
)
def test_out_of_range_bounds_exit_2_before_work(capsys, no_hom_scan, argv):
    # the largest sizes accepted, `corr enumerate --dim 2` and grids of 9
    # vertices, are pinned in SUBCOMMAND_SHA256
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: need ")


def test_localize_check(capsys):
    code, _, _ = invoke(capsys, "run", "--instance", "localization-interval", "--suite", "theorem")
    assert code == 0


def test_descend_extend_c_on_degenerate_pair(capsys):
    code, out, _ = invoke(
        capsys, "run", "--instance", "nice-pair-identity", "--suite", "theorem", "--format", "json"
    )
    assert code == 0
    (rep,) = json.loads(out)["reports"]
    names = [c["name"] for c in rep["checks"]]
    assert "extension-functorial" in names


def test_suite_order_is_dependency_order():
    assert SUITE_ORDER == ("category", "setup", "model", "theorem")


def test_each_instance_lists_the_suites_its_declaration_plans():
    # `corpus list` reads an instance's suites from its kind, and a run
    # reads them from the plan of its built declaration
    for inst in corpus():
        plan = cli._plan(inst.name, inst.build(), inst.options)
        assert list(inst.suites) == [s for s in SUITE_ORDER if s in plan], inst.name


def test_the_bundled_nice_pair_cover_alone_skips_the_pair_gate(tmp_path):
    # the instance sets `full_gate: False`, so `run --instance` prints its
    # theorem suite without the seven `pair:` checks that the same
    # declaration read through `--input` runs, and passes (ROADMAP item 2
    # drops the option and flips this test)
    path = tmp_path / "pair.json"
    path.write_text(ser.dumps(pair_to_dict(instance("nice-pair-cover").build())))
    routes = [run(WorkspaceConfig(instances=("nice-pair-cover",))), run(WorkspaceConfig(inputs=(str(path),)))]
    for (code, payload), lines in zip(routes, (14, 21)):
        text = io.StringIO()
        cli._render_run(payload, "text", text)
        assert (code, len(text.getvalue().splitlines())) == (0, lines)
    (bundled,), (read,) = (payload["reports"] for _, payload in routes)
    gate = [c for c in read["checks"] if c["name"].startswith("pair:")]
    assert len(gate) == 7 and all(c["status"] == "pass" for c in gate)
    assert [c for c in read["checks"] if c not in gate] == bundled["checks"]


def test_a_failed_codescent_precondition_is_a_failed_check(tmp_path, capsys):
    # every pair check passes, but the atlas 1>2:0 misses a point of its
    # target, so pushing forward along it misses an element of the target's
    # lattice and the extension cannot be built
    c = finset_category({"1": 1, "2": 2, "4": 4})
    s = GeometricSetup(c, all_class(c))
    every = frozenset(c.morphism_ids)
    atlases = {o: (c.identity[o],) for o in c.objects}
    atlases["2"] = ("1>2:0",) + atlases["2"]
    pd = descent.PairDeclaration("exceptional", s, c.objects, every, every, every, atlases)
    path = tmp_path / "pair.json"
    path.write_text(ser.dumps(pair_to_dict(pd)))
    code, out, err = invoke(capsys, "run", "--input", str(path), "--format", "json")
    assert code == 1 and err == ""
    (rep,) = json.loads(out)["reports"]
    *gates, last = rep["checks"]
    assert gates and all(ch["name"].startswith("pair:") and ch["status"] == "pass" for ch in gates)
    assert (last["name"], last["status"]) == ("extension-agrees", "fail")
    assert last["witness"] == {
        "reason": "codescent precondition fails for atlas '1>2:0': {'reason': 'not surjective', 'element': '(0,1)'}"
    }


def test_a_transport_the_carrier_cannot_hold_is_a_limit_not_malformed_input(tmp_path, capsys):
    # every pair and descent check passes on a proper small setup {2, 4},
    # but transporting 1's pull along its atlas 2>1:0.0 needs 4 x_1 2, an
    # 8-element set the carrier lacks: a gap, so exit 1 with a report
    c = finset_category({"1": 1, "2": 2, "4": 4})
    surj = surjections(c)
    s = GeometricSetup(c, EdgeClass(c, surj))
    small = ("2", "4")
    inside = frozenset(m for m in surj if c.src(m) in small and c.dst(m) in small)
    atlases = {o: (c.identity[o],) for o in small}
    atlases["1"] = ("2>1:0.0",)
    pd = descent.PairDeclaration("nice", s, small, inside, surj, inside, atlases)
    path = tmp_path / "pair.json"
    path.write_text(ser.dumps(pair_to_dict(pd)))
    code, out, err = invoke(capsys, "run", "--input", str(path), "--format", "json")
    assert code == 1 and err == ""
    (rep,) = json.loads(out)["reports"]
    *checks, last = rep["checks"]
    assert checks and all(ch["status"] == "pass" for ch in checks)
    assert (last["name"], last["status"]) == ("extension-functorial", "resource-limit")
    assert last["witness"] == {"reason": "no pullback exists for cospan ('4>1:0.0.0.0', '2>1:0.0')"}


def test_a_gap_no_check_counts_exits_1_with_one_line(monkeypatch, capsys):
    def gap(*_):
        # the pullback oracle's own error: 2 x_1 2 needs a 4-element object
        c = finset_category({"1": 1, "2": 2})
        GeometricSetup(c, all_class(c)).pullback("2>1:0.0", "2>1:0.0")

    monkeypatch.setattr(cli, "_category_suite", gap)
    code, out, err = invoke(capsys, "run", "--instance", "finset-1", "--suite", "category")
    assert code == 1 and out == ""
    assert err == "resource limit: no pullback exists for cospan ('2>1:0.0', '2>1:0.0')\n"


def _run_exceptional_pair(tmp_path, capsys, sizes, e_small_every, atlases):
    """`run --input` on an exceptional pair with the proper small setup
    {2, 4}: E is every map, covers and S are the surjections, S_small the
    surjections inside {2, 4}, E_small every map or every surjection inside
    it, and 2 and 4 carry identity atlases.  Returns the exit code, the
    check statuses and the checks."""
    c = finset_category({str(n): n for n in sizes})
    surj = surjections(c)
    s = GeometricSetup(c, all_class(c))
    small = ("2", "4")

    def inside(ms):
        return frozenset(m for m in ms if c.src(m) in small and c.dst(m) in small)

    e_small = inside(c.morphism_ids if e_small_every else surj)
    declared = {o: (c.identity[o],) for o in small}
    declared.update({o: (x,) for o, x in atlases.items()})
    pd = descent.PairDeclaration("exceptional", s, small, inside(surj), surj, e_small, declared)
    path = tmp_path / "pair.json"
    path.write_text(ser.dumps(pair_to_dict(pd)))
    code, out, err = invoke(capsys, "run", "--input", str(path), "--format", "json")
    assert err == ""
    (rep,) = json.loads(out)["reports"]
    return code, Counter(ch["status"] for ch in rep["checks"]), rep["checks"]


def test_an_exceptional_pair_with_a_proper_small_setup_extends(tmp_path, capsys):
    code, statuses, checks = _run_exceptional_pair(tmp_path, capsys, (1, 2, 4), True, {"1": "2>1:0.0"})
    assert code == 0 and statuses == {"pass": 303}
    assert (checks[-1]["name"], checks[-1]["witness"]) == ("extension-agrees", {"maps": 301})


def test_a_small_exceptional_class_of_surjections_matches_no_hypercover(tmp_path, capsys):
    code, statuses, checks = _run_exceptional_pair(tmp_path, capsys, (1, 2, 4), False, {"1": "2>1:0.0"})
    assert code == 1 and statuses == {"pass": 42, "fail": 260}
    bad = [ch for ch in checks if ch["status"] != "pass"]
    assert (bad[0]["name"], bad[0]["witness"]) == (
        "pair:hypercover:1>2:0",
        {"morphism": "1>2:0", "reason": "no levelwise exceptional matching"},
    )
    assert all(ch["name"].startswith("pair:hypercover:") for ch in bad)
    assert "extension-agrees" not in [ch["name"] for ch in checks]


def test_a_nerve_level_outside_the_carrier_is_a_limit_of_the_pair(tmp_path, capsys):
    atlases = {"1": "2>1:0.0", "3": "4>3:0.1.2.2"}
    code, statuses, checks = _run_exceptional_pair(tmp_path, capsys, (1, 2, 3, 4), True, atlases)
    assert code == 1 and statuses == {"pass": 302, "resource-limit": 193}
    limits = [ch for ch in checks if ch["status"] != "pass"]
    assert (limits[0]["name"], limits[0]["witness"]) == (
        "pair:hypercover:1>3:0",
        {"morphism": "1>3:0", "reason": "nerve level outside the carrier"},
    )
    # exactly the maps into or out of 3, whose atlas has no overlap object
    c = finset_category({str(n): n for n in (1, 2, 3, 4)})
    touching_3 = {f for f in c.morphism_ids if "3" in c.morphisms[f]}
    assert {ch["witness"]["morphism"] for ch in limits} == touching_3
    assert {ch["witness"]["reason"] for ch in limits} == {"nerve level outside the carrier"}


def test_each_gate_and_search_runs_once_per_suite(monkeypatch):
    calls = Counter()

    def count(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key(*args)] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # the suite imports its gates from `shriek` when it runs, and a
    # constructor that reran one would reach it there too
    count(shriek, "check_nagata", lambda ns: "check_nagata")
    count(shriek, "verify_hypotheses", lambda ns, sys: "verify_hypotheses")
    count(shriek, "_construct_squares", lambda ns: "_construct_squares")
    rep = cli._nagata_theorem_suite("nagata-open", instance("nagata-open").build())
    assert rep.passed
    assert calls == {"check_nagata": 1, "verify_hypotheses": 1, "_construct_squares": 1}
    # a setup that fails a hypothesis constructs its squares once as well
    calls.clear()
    rep = cli._nagata_theorem_suite("nagata-inj-all", instance("nagata-inj-all").build())
    assert [c.name for c in rep.failures] == ["hypotheses:support-property"]
    assert calls == {"check_nagata": 1, "verify_hypotheses": 1, "_construct_squares": 1}

    # the extension of a nice pair reruns no descent check the suite reported
    count(descent, "check_descent", lambda setup, sys, atlas: ("descent", id(atlas)))
    for name in ("nice-pair-cover", "nice-pair-identity"):
        calls.clear()
        inst = instance(name)
        pd = inst.build()
        rep = cli._pair_theorem_suite(name, pd, inst.options)
        assert rep.checks[-1].name == "extension-functorial"
        assert calls == {("descent", id(a)): 1 for atlases in pd.atlases.values() for a in atlases}

    calls.clear()
    count(descent, "_search_hypercovers", lambda pd, f: ("search", f))
    count(descent, "check_codescent", lambda sa, nerve: ("codescent", id(nerve)))
    pd = instance("exceptional-pair-cover").build()
    rep = cli._pair_theorem_suite("exceptional-pair-cover", pd, {})
    assert rep.passed
    assert {k[1:]: n for k, n in calls.items() if k[0] == "search"} == {(f,): 1 for f in pd.big.e.members}
    # three distinct nerves, each checked once
    assert [n for k, n in calls.items() if k[0] == "codescent"] == [1, 1, 1]


# -- payload bytes ---------------------------------------------------------

# SHA-256 of the `--format json` output; a refactor must not move these
# bytes (the model payloads also exit 1 where the pentagon fails a law)
CORPUS_RUN_SHA256 = "bb188c22527cfbb036731ff94e957e63b7c4f0e6118581007e7cea314dc220b3"
CORPUS_TEXT_SHA256 = "10ef707a1297aea47a950b9e7eaacb0d379ee996945907d98d740b9ab25e7ed6"
MODEL_RUN_SHA256 = {
    "n5-join.json": (1, "8cb77dc11b920f2aa00fa309fc613e80f2ad82696f0c6c23714d8d65751715c8"),
    "n5.json": (1, "b4a7e9221c2b01e535226ce62d6018b70f076b930b8b969f0a4a9286f5f4b897"),
    "chain2.json": (0, "4669a0a1a4a17a43acc6b103c32b635c8a99d740000090a2643ef67115eba505"),
    # products of 9 and 10 elements (squares of up to 100), listed shuffled
    "c2xc5-meet.json": (0, "dd932cf37d6ebceeec7c0c7364c7a321f8e432a430e62740c01d26a46a627a5b"),
    "c3xc3-join.json": (1, "71762284213ab0589c3107653cb440eab25621f74d05724ec7166d6ccb4c50e0"),
    "n5xc2-join.json": (1, "d5c798b532eef0f43b69d2113832770a2f66d0c37190e5f96d6e8f1d05a94987"),
    "n5xc2-meet.json": (1, "bd91b3f2d25b62e83f7608bd0828ec1e84c450ef129845ca89ffe140741acf5e"),
}


def _product_lattice(factors, tensor):
    """The product of chains and pentagons, e.g. ("C3", "N5"), with the meet
    or the join as tensor; its elements are listed in a shuffled order."""
    orders = []
    for f in factors:
        if f == "N5":
            els = ("0", "a", "b", "c", "1")
            leq = {(x, x) for x in els} | {("0", x) for x in els} | {(x, "1") for x in els} | {("a", "c")}
        else:
            els = tuple("abcdefgh"[: int(f[1:])])
            leq = {(x, y) for x in els for y in els if x <= y}
        orders.append((els, leq))
    tuples = list(itertools.product(*(els for els, _ in orders)))
    random.Random(13).shuffle(tuples)
    leq = {("".join(s), "".join(t)) for s in tuples for t in tuples if all(p in o[1] for p, o in zip(zip(s, t), orders))}
    L = FiniteLattice(tuple(map("".join, tuples)), frozenset(leq))
    if tensor == "join":
        L = FiniteLattice(L.elements, L.leq, {(a, b): L.join(a, b) for a in L.elements for b in L.elements})
    return L


def _model_inputs():
    return {
        "n5-join.json": n5_lattice("join"),
        "n5.json": n5_lattice(),
        "chain2.json": chain_lattice(2),
        "c2xc5-meet.json": _product_lattice(("C2", "C5"), "meet"),
        "c3xc3-join.json": _product_lattice(("C3", "C3"), "join"),
        "n5xc2-join.json": _product_lattice(("N5", "C2"), "join"),
        "n5xc2-meet.json": _product_lattice(("N5", "C2"), "meet"),
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_corpus_run_bytes_are_pinned(capsys):
    code, out, _ = invoke(capsys, "run", "--format", "json")
    assert code == 0
    assert _sha256(out) == CORPUS_RUN_SHA256


def test_corpus_run_text_bytes_are_pinned(capsys):
    code, out, _ = invoke(capsys, "run", "--format", "text")
    assert code == 0
    assert _sha256(out) == CORPUS_TEXT_SHA256


def test_corpus_run_bytes_hold_under_fixed_hash_seeds(tmp_path):
    # the pins above run under whatever hash seed the test process drew;
    # fresh interpreters under fixed seeds show the bytes follow from none
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(corrkit.__file__)))
    for seed in ("0", "1", "7"):
        out = subprocess.run(
            [sys.executable, "-m", "corrkit.cli", "run", "--format", "json"],
            cwd=tmp_path, env={**env, "PYTHONHASHSEED": seed}, capture_output=True, text=True,
        )
        assert (out.returncode, _sha256(out.stdout)) == (0, CORPUS_RUN_SHA256), (seed, out.stderr)


def test_model_suite_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    # the report is named after the input path, so the inputs are read
    # by relative name from one directory
    monkeypatch.chdir(tmp_path)
    for name, L in _model_inputs().items():
        (tmp_path / name).write_text(ser.dumps(ser.lattice_to_dict(L)))
        code, out, _ = invoke(capsys, "run", "--input", name, "--suite", "model", "--format", "json")
        assert (code, _sha256(out)) == MODEL_RUN_SHA256[name], name


# exit code and SHA-256 of `run --input FILE --format json` on factorization
# setups over the all-function carrier with sizes {0, 1, 1, 2, 2}; every
# corpus factorization setup lives on the 2-element skeleton, with 74
# cartesian squares against this carrier's 885
CARRIER_RUN_SHA256 = {
    ("all", "iso"): (0, "8c875501ad50a8b3216f909665c3b23312d9052153f948f2433c05f9d7c07e6c"),
    ("iso", "all"): (0, "8cc63f735c8d77acf3b63173a8396546bdb28160bceaa4b56c80a9bd446c8764"),
    ("inj", "all"): (1, "47475b589f4e9e01dacf1db35e9b2b67a0da30af3ed00ad0f44a568871433861"),
}


@pytest.mark.parametrize("pattern", list(CARRIER_RUN_SHA256))
def test_carrier_suite_bytes_are_pinned(tmp_path, monkeypatch, capsys, pattern):
    monkeypatch.chdir(tmp_path)
    c = finset_category({"a": 0, "b": 1, "c": 1, "d": 2, "e": 2})
    classes = {"all": all_class(c), "iso": iso_class(c), "inj": EdgeClass(c, injections(c))}
    i, p = pattern
    name = f"{i}-{p}.json"
    ns = NagataSetup(GeometricSetup(c, all_class(c)), classes[i], classes[p])
    (tmp_path / name).write_text(ser.dumps(ser.nagata_to_dict(ns)))
    code, out, err = invoke(capsys, "run", "--input", name, "--format", "json")
    assert (code, _sha256(out), err) == (*CARRIER_RUN_SHA256[pattern], "")


# exit code and stdout SHA-256 of subcommands other than `run`; `shriek
# build` was recorded before its loader and build gate merged, and the
# enumerations at the largest sizes they accept before larger ones exited 2
SUBCOMMAND_SHA256 = {
    ("shriek", "build", "--instance", "nagata-open"): (0, "aa0f65a42400317ab12079f3423f43e152736dab5a1dd36902089af169b4e156"),
    ("shriek", "build", "--instance", "nagata-proper"): (0, "0025e1bfc257d29aac75e9db0457aad54d3f5270e9f33e3fad2a32bbb095ac78"),
    ("corr", "enumerate", "--dim", "0"): (0, "53707ccd5157616ce442fb248adbbd145e19c3db5499f2ea21bf8241b8aadc96"),
    ("corr", "enumerate", "--dim", "1"): (0, "b9bfe090c980e513a5469f7c2e81af966ea3c95c02097b95a85826956fae8843"),
    ("corr", "enumerate", "--dim", "2"): (0, "ce9c31ec067acbe05fb3470bba2563940ce099ac00f117a51ae5faba43afa47d"),
    ("grid", "enumerate", "--k", "3", "--n", "1"): (0, "b84f358ca7f066a8db8d0d9e4a80e3b76985fadf7ff690102ba81d09082bb187"),
    ("grid", "enumerate", "--k", "2", "--n", "2"): (0, "8187a1313606d39aa5f9cb64ec4167e1fd5bc3687aaa4cf312b25db99b7b5190"),
    # these two read span class ids through `HCorr.category` and `check_coproduct`
    ("corr", "hocat", "--format", "json"): (0, "f4ad77e22e186f59f632f49a147251608a4709975d93f15607f9226781add522"),
    ("corr", "coproduct", "1", "1", "--format", "json"): (
        0, "217e0d967053c8228b2bf01fb3a8b195d7a708fdc5307c5212e0ef576d5e2c6b"),
    ("corr", "coproduct", "2", "1", "--format", "json"): (
        0, "3ac05e333636ef0fcb4aa1717f2b60cf8ed2ebf8c9e895919dd1a664a06d9964"),
    ("corr", "coproduct", "0", "2", "--format", "json"): (
        0, "a394d859e22d9a84cc98bbbd003b876a43ab0eab7ef11ba6cf77742d69283c88"),
    ("search", "nagata"): (0, "08e66db96fd8d76cce6a3f3d8dfe941243825b04c3ff346130ffcd1d1c99e22f"),
}


@pytest.mark.parametrize("argv", list(SUBCOMMAND_SHA256))
def test_subcommand_bytes_are_pinned(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, _sha256(out), err) == (*SUBCOMMAND_SHA256[argv], "")


# the one stderr line of a declaration of the wrong kind, one bundled
# instance and one envelope of each kind `shriek build` refuses;
# `chain2.json` is a lattice envelope, `pair.json` a pair envelope,
# `finset1.json` a category envelope and `interval.json` a localization
# envelope
SUBCOMMAND_STDERR = {
    ("shriek", "build", "--instance", "frame-2chain"):
        "error: instance 'frame-2chain' is not a factorization setup\n",
    ("shriek", "build", "--instance", "localization-interval"):
        "error: instance 'localization-interval' is not a factorization setup\n",
    ("shriek", "build", "--input", "chain2.json"):
        "error: chain2.json is not a factorization-setup envelope\n",
    ("shriek", "build", "--input", "pair.json"):
        "error: pair.json is not a factorization-setup envelope\n",
    ("shriek", "build", "--instance", "nice-pair-identity"):
        "error: instance 'nice-pair-identity' is not a factorization setup\n",
    ("shriek", "build", "--instance", "finset-1"):
        "error: instance 'finset-1' is not a factorization setup\n",
    ("shriek", "build", "--input", "finset1.json"):
        "error: finset1.json is not a factorization-setup envelope\n",
    ("shriek", "build", "--input", "interval.json"):
        "error: interval.json is not a factorization-setup envelope\n",
    # an object outside the carrier, on the constructed coproduct path
    ("corr", "coproduct", "9", "1"): "error: unknown objects ['9']\n",
}


@pytest.mark.parametrize("argv", list(SUBCOMMAND_STDERR))
def test_wrong_kind_of_declaration_is_pinned(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain2.json").write_text(ser.dumps(ser.lattice_to_dict(chain_lattice(1))))
    (tmp_path / "pair.json").write_text(ser.dumps(pair_to_dict(instance("nice-pair-identity").build())))
    (tmp_path / "finset1.json").write_text(ser.dumps(ser.category_to_dict(instance("finset-1").build().category)))
    interval = localization_to_dict(instance("localization-interval").build())
    (tmp_path / "interval.json").write_text(ser.dumps(interval))
    assert invoke(capsys, *argv) == (2, "", SUBCOMMAND_STDERR[argv])


# exit code and the SHA-256 of stdout and stderr of invocations that end in
# the parser; `run --help`, `run --suite bogus` and `corr coproduct --help`
# were recorded with every subcommand's arguments declared up front, before
# the parser declared only those of the subcommand argv names
_EMPTY = _sha256("")
PARSER_SHA256 = {
    ("--help",): (0, "2aef121cd6154dfda94309655b15cfea0fa0c203c847150d538b5e4a82afb3ad", _EMPTY),
    ("run", "--help"): (0, "62aeb24abe660081a502227fd6c3442097cfb1204ec07a523b610e91bc015cc3", _EMPTY),
    ("shriek", "build", "--help"): (0, "9b86dcf643ac08fa66e3f44b33ec652f37e103686f4d75afe4e5ede5ffba5af2", _EMPTY),
    ("shriek", "--help"): (0, "93d6a7b6551dd9be0b8d7fc848f2aee35775cc628aeb8844ab03f1e1afe93d92", _EMPTY),
    ("corr", "coproduct", "--help"): (0, "fd3cf3bbc5aa1a14670d2b53f044bcac85495d8d009abe474aafd4575208c636", _EMPTY),
    ("bogus",): (2, _EMPTY, "aa077188ecebd42f5cb7a79c621bc5b46770fcca278ead3405cb46bef5b4b2f5"),
    ("run", "--suite", "bogus"): (2, _EMPTY, "b722ecdd4ed97f5a7fe1a45f4968b1f2808570ea9e610fdf47ae0102746420ea"),
    ("shriek",): (2, _EMPTY, "202ed931d55a41de2cf2246266e2bad7e07077e2cca3a37c1298f937b054dad8"),
    (): (2, _EMPTY, "f2b00c0dd2a7bdda8a2391bda47823c847cc4b4edc9ad6299975d02cde34438e"),
}


# argparse lays out help by Python version and terminal width
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pinned under Python 3.11")
@pytest.mark.parametrize("argv", list(PARSER_SHA256))
def test_parser_output_is_pinned(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert (exc.value.code, _sha256(out.out), _sha256(out.err)) == PARSER_SHA256[argv]


def test_shriek_build_refuses_a_setup_that_fails_a_hypothesis(capsys):
    code, out, err = invoke(capsys, "shriek", "build", "--instance", "nagata-inj-all")
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: cannot build: support-property")


def test_a_failed_class_consistency_check_is_reported_once(monkeypatch, capsys):
    # each map is built along the factorizations of the first map of its
    # hom-set, so the axioms and hypotheses pass and class consistency
    # fails: the theorem suite reports it once and stops, and `shriek build`
    # refuses the maps
    factorizations = shriek.factorizations

    def first_of_hom(ns, f):
        c = ns.setup.category
        return factorizations(ns, c.hom(*c.morphisms[f])[0])

    monkeypatch.setattr(shriek, "factorizations", first_of_hom)
    code, out, err = invoke(capsys, "run", "--instance", "nagata-open", "--suite", "theorem", "--format", "json")
    assert (code, err) == (1, "")
    (rep,) = json.loads(out)["reports"]
    checks = rep["checks"]
    assert [(ch["name"], ch["status"]) for ch in checks if ch["status"] != "pass"] == [("classes:class-consistency", "fail")]
    assert checks[-1]["name"] == "classes:class-consistency"
    assert checks[-1]["witness"] == {"morphism": "1>2:1", "class": "open-like"}
    code, out, err = invoke(capsys, "shriek", "build")
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: cannot build: class-consistency fails with witness {'morphism': '1>2:1'")


# -- what a run loads ------------------------------------------------------

_LOADED = (
    "import sys\n"
    "from corrkit import cli\n"
    "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(code, *sorted(m for m in sys.modules if m.startswith('corrkit.')), file=sys.stderr)\n"
)


def _loaded(cwd, *argv, exit_code=0) -> set:
    """The corrkit modules a fresh interpreter holds after it imports the
    CLI and runs `corrkit ARGV`, if ARGV is given; the run must exit with
    `exit_code`."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(corrkit.__file__)))
    out = subprocess.run([sys.executable, "-c", _LOADED, *argv], cwd=cwd, env=env, capture_output=True, text=True)
    code, *modules = out.stderr.splitlines()[-1].split()
    assert (out.returncode, code) == (0, str(exit_code)), out.stderr
    return {m.removeprefix("corrkit.") for m in modules}


def test_corpus_list_loads_neither_descent_nor_lattices(tmp_path):
    listed = _loaded(tmp_path, "corpus", "list")
    assert "corpus" in listed
    assert listed & {"descent", "lattices"} == set()


def test_a_run_loads_the_modules_the_readme_lists(tmp_path):
    # README's module table; the benchmark's `setup_s` and models children
    # import along the first two
    (tmp_path / "L.json").write_text(ser.dumps(ser.lattice_to_dict(chain_lattice(1))))
    assert _loaded(tmp_path) == {"cli", "report"}
    model = _loaded(tmp_path, "run", "--input", "L.json", "--suite", "model")
    assert model == {"cli", "fincat", "lattices", "report", "serialization", "setups"}
    # only the formalism reads spans, so a gate alone does not load them
    search = _loaded(tmp_path, "search", "nagata")
    assert search == {"cli", "fincat", "lattices", "report", "setups", "shriek"}
    # the benchmark's carriers children, on an all-function carrier
    c = finset_category({"a": 0, "b": 1, "c": 2, "d": 2})
    inj = EdgeClass(c, injections(c))
    for name, i, p in (("all-iso.json", all_class(c), iso_class(c)), ("inj-all.json", inj, all_class(c))):
        ns = NagataSetup(GeometricSetup(c, all_class(c)), i, p)
        (tmp_path / name).write_text(ser.dumps(ser.nagata_to_dict(ns)))
    declared = {"cli", "fincat", "report", "serialization", "setups"}
    assert _loaded(tmp_path, "run", "--input", "all-iso.json", "--suite", "category", "--suite", "setup") == declared
    assert _loaded(tmp_path, "run", "--input", "all-iso.json") == declared | {"lattices", "shriek", "spans"}
    # inj/all fails the gate's support property, so no formalism runs
    assert _loaded(tmp_path, "run", "--input", "inj-all.json", exit_code=1) == declared | {"lattices", "shriek"}
    # an exceptional pair reads its pushforwards as left adjoints, so it
    # builds no factorization setup
    (tmp_path / "P.json").write_text(ser.dumps(pair_to_dict(instance("exceptional-pair-cover").build())))
    pair = _loaded(tmp_path, "run", "--input", "P.json")
    assert pair == {"cli", "descent", "fincat", "lattices", "report", "serialization", "setups"}


def test_the_formalism_names_enumerated_classes_by_their_representatives(monkeypatch):
    # a class read from `HCorr.classes` is named by its representative, so
    # only the identity spans and the two restriction embeddings of each
    # morphism ask `class_id` for their class
    from corrkit.spans import HCorr

    asked = []
    class_id = HCorr.class_id
    monkeypatch.setattr(HCorr, "class_id", lambda self, sp: asked.append(sp) or class_id(self, sp))
    ns = instance("nagata-open").build()
    assert cli._nagata_theorem_suite("nagata-open", ns).passed
    c = ns.setup.category
    assert len(asked) == len(c.objects) + len(c.morphisms) + len(ns.setup.e.members) == 25


def test_the_benchmark_tracer_runs_and_counts_what_it_patches(tmp_path, capsys):
    # perfbench/tracer.py wraps layer functions by name and reads the
    # pullback memo, so a rename in src/ would crash traced benchmark runs
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    argv = ("run", "--instance", "nagata-open", "--format", "json")
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(corrkit.__file__)))
    traced = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "tracer.py"), str(trace), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    code, out, _ = invoke(capsys, *argv)
    assert (traced.returncode, traced.stdout) == (code, out), traced.stderr
    names = json.loads(trace.read_text())["names"]
    assert names["spans.HCorr.classes"]["calls"] > 0 and names["setups.pullback_opt"]["calls"] > 0
    # the tracer counts map builds through `LatticeMap.__post_init__`, so a
    # constructor that skipped it would zero the benchmark's build counter
    assert names["lattices.LatticeMap.build"]["calls"] > 0


def test_both_pair_cover_suites_share_one_frame_system(monkeypatch):
    # both instances build over one cover carrier, so its frame system is
    # built and validated once and both suites read the same object
    from corrkit import lattices

    systems = []
    frame_system = lattices.frame_system
    monkeypatch.setattr(lattices, "frame_system", lambda setup, L: systems.append(frame_system(setup, L)) or systems[-1])
    for name in ("nice-pair-cover", "exceptional-pair-cover"):
        inst = instance(name)
        assert cli._plan(name, inst.build(), inst.options)["theorem"]().passed
    assert len(systems) == 2 and systems[0] is systems[1]


def test_every_setup_over_a_carrier_shares_its_canonical_pullbacks(monkeypatch, capsys):
    # a pullback does not depend on the marked class, so the setups of the
    # gates (the I and P classes, each catalogue pair) read the carrier's
    # one memo and each cospan is constructed once per carrier
    from corrkit import setups

    built = []
    canonical_pullback = setups.canonical_pullback
    monkeypatch.setattr(
        setups, "canonical_pullback", lambda c, f, g: built.append((c, f, g)) or canonical_pullback(c, f, g)
    )
    # a fresh 2-skeleton: the process keeps one, which earlier runs filled
    setups.skeleton_setup.cache_clear()
    assert invoke(capsys, "search", "nagata")[0] == 0
    # the 59 cospans of the 2-skeleton, against 1,179 with a memo per setup
    assert len(built) == 59

    # a fresh copy: the corpus caches its instances' carriers
    ns = ser.loads(ser.dumps(ser.nagata_to_dict(instance("nagata-open").build())))
    built.clear()
    assert cli._plan("nagata-open", ns, {})["setup"]().passed
    swept = {(f, g) for _, f, g in built}
    built.clear()
    assert cli._plan("nagata-open", ns, {})["theorem"]().passed
    assert swept and all(c is ns.setup.category for c, _, _ in built)
    assert not swept & {(f, g) for _, f, g in built}

    c = ns.setup.category
    assert GeometricSetup(c, iso_class(c))._oracle is ns.setup._oracle


@pytest.fixture
def counted(monkeypatch):
    """Canonical pullbacks built, setup reports returned and coefficient
    systems validated, each listed as it happens, over fresh bundled
    carriers: the process keeps one of each, which earlier tests filled."""
    from corrkit import corpus as bundled, lattices, setups

    pullbacks, reports, systems = [], [], []
    canonical_pullback, check = setups.canonical_pullback, setups.check_geometric_setup
    validate = lattices.CoefficientSystem.__post_init__
    monkeypatch.setattr(setups, "canonical_pullback", lambda c, f, g: pullbacks.append((f, g)) or canonical_pullback(c, f, g))
    monkeypatch.setattr(setups, "check_geometric_setup", lambda s: reports.append(check(s)) or reports[-1])
    monkeypatch.setattr(lattices.CoefficientSystem, "__post_init__", lambda self: systems.append(self) or validate(self))
    setups.skeleton_setup.cache_clear()
    bundled._cover_carrier.cache_clear()
    return pullbacks, reports, systems


def _bodies(reports) -> int:
    """How many setup checks ran: each run returns a report of its own."""
    return len({id(rep) for rep in reports})


def test_a_pair_of_every_small_object_builds_each_pullback_once(counted):
    # the small carrier of nice-pair-cover is its big one, so its small and
    # big setups, of equal classes, share one sweep
    pullbacks, reports, _ = counted
    pd = ser.loads(ser.dumps(pair_to_dict(instance("nice-pair-cover").build())))
    assert descent.check_nice_pair(pd).passed
    # 153,338 when the small carrier was a copy with memos of its own
    assert len(pullbacks) == 76669
    assert (len(reports), _bodies(reports)) == (4, 2)


def test_search_nagata_checks_each_catalogue_class_once(counted, capsys):
    _, reports, _ = counted
    assert invoke(capsys, "search", "nagata")[0] == 0
    # 16 class pairs read the verdicts of 4 classes, once each (32 before)
    assert (len(reports), _bodies(reports)) == (32, 4)


def test_a_corpus_run_checks_each_carrier_and_class_once(counted):
    _, reports, systems = counted
    assert run(WorkspaceConfig())[0] == 0
    # 19 setup checks read 7 (carrier, class) verdicts; 7 coefficient
    # systems are validated, against 9 when each setup object kept its own
    # frame systems
    assert (len(reports), _bodies(reports)) == (19, 7)
    assert len(systems) == 7


def test_a_run_loads_only_the_layers_its_suites_execute(tmp_path):
    (tmp_path / "lattice.json").write_text(ser.dumps(ser.lattice_to_dict(chain_lattice(2))))
    (tmp_path / "nagata.json").write_text(ser.dumps(ser.nagata_to_dict(instance("nagata-open").build())))
    assert _loaded(tmp_path) == {"cli", "report"}
    assert _loaded(tmp_path, "run") & {"serialization", "grid"} == set()
    model = _loaded(tmp_path, "run", "--input", "lattice.json", "--suite", "model")
    assert "lattices" in model
    assert model & {"grid", "descent", "shriek", "spans", "corpus"} == set()
    setup = _loaded(tmp_path, "run", "--input", "nagata.json", "--suite", "category", "--suite", "setup")
    assert "setups" in setup
    assert setup & {"lattices", "grid", "spans", "shriek", "descent", "corpus"} == set()
    theorem = _loaded(tmp_path, "run", "--input", "nagata.json", "--suite", "theorem")
    assert {"shriek", "spans"} <= theorem
    assert "grid" not in theorem
