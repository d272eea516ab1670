"""Command line front end: exit codes, determinism, corpus wiring."""

import hashlib
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
from corrkit.fincat import check_category, finset_category, injections
from corrkit.lattices import FiniteLattice, chain_lattice, n5_lattice
from corrkit.report import MalformedInputError
from corrkit.setups import EdgeClass, GeometricSetup, all_class, iso_class
from corrkit.shriek import NagataSetup
from corrkit import serialization as ser


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


def test_input_file_runs_applicable_suites(tmp_path, capsys):
    path = tmp_path / "pentagon.json"
    path.write_text(ser.dumps(ser.lattice_to_dict(instance("pentagon-join").build())))
    code, out, _ = invoke(capsys, "run", "--input", str(path), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    (rep,) = payload["reports"]
    assert rep["suite"].endswith(":model")
    failed = {c["name"] for c in rep["checks"] if c["status"] == "fail"}
    assert failed == {"projection-sharp", "projection-star", "external-product"}


# -- config validation -----------------------------------------------------


def test_config_rejects_out_of_range_bounds():
    with pytest.raises(MalformedInputError, match="max-dim"):
        WorkspaceConfig(max_dim=7)
    with pytest.raises(MalformedInputError, match="max-apex"):
        WorkspaceConfig(max_apex=0)
    with pytest.raises(MalformedInputError, match="suite"):
        WorkspaceConfig(suites=("algebra",))
    with pytest.raises(MalformedInputError, match="format"):
        WorkspaceConfig(fmt="xml")


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--max-dim", "3"),
        ("run", "--max-apex", "0"),
        ("shriek", "verify", "--max-apex", "7"),
        ("corr", "hocat", "--max-apex", "1000000000"),
        ("formalism", "assemble", "--max-apex", "-1000000000"),
        ("descend", "extend-c", "--max-dim", "-1"),
        ("descend", "extend-e", "--max-dim", "1000000000"),
        ("descend", "extend-c", "--max-dim", "3"),
        ("corr", "hocat", "--max-apex", "0"),
        # no descent check runs below the overlap level
        ("run", "--max-dim", "0"),
        ("descend", "extend-e", "--max-dim", "0"),
    ],
)
def test_out_of_range_bounds_exit_2_before_work(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: max-")


@pytest.mark.parametrize(
    "argv",
    [
        ("model", "check", "--law", "kunneth", "--max-dim", "3"),
        ("localize", "check", "--max-apex", "0"),
        ("corr", "coproduct", "1", "1", "--input", "/nonexistent.json"),
        ("corr", "coproduct", "1", "1", "--max-dim", "0"),
        ("corr", "coproduct", "1", "1", "--max-apex", "1"),
        ("corr", "hocat", "--input", "/nonexistent.json"),
        ("corr", "hocat", "--max-dim", "0"),
        ("shriek", "verify", "--all"),
        ("shriek", "build", "--format", "json"),
        ("formalism", "assemble", "--max-dim", "1"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments" in out.err


def test_run_forwards_max_apex(capsys):
    # the formalism enumerates spans through the 2-element apex, so a bound
    # of 1 is a resource limit rather than a silently smaller check
    argv = ("run", "--instance", "nagata-open", "--suite", "theorem", "--format", "json")
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert invoke(capsys, *argv, "--max-apex", "2")[:2] == (0, out)
    code, out, err = invoke(capsys, *argv, "--max-apex", "1")
    assert code == 1 and err == ""
    (report,) = json.loads(out)["reports"]
    limits = [c for c in report["checks"] if c["status"] == "resource-limit"]
    assert [c["name"] for c in limits] == ["formalism:span-classes"]
    assert "exceeds the class bound 1" in limits[0]["witness"]["reason"]
    assert report["checks"][-1] == limits[0]


def test_run_api_mirrors_cli(capsys):
    code, payload = run(WorkspaceConfig(instances=("localization-interval",)))
    assert code == 0
    assert list(payload["verdicts"]) == ["localization-interval:theorem"]


# -- subcommands -----------------------------------------------------------


def test_model_check_kunneth_located(capsys):
    code, _, _ = invoke(capsys, "model", "check", "--law", "kunneth", "--instance", "frame-2chain")
    assert code == 0
    code, out, _ = invoke(
        capsys, "model", "check", "--law", "kunneth", "--instance", "pentagon-join", "--format", "json"
    )
    assert code == 1
    rep = json.loads(out)
    assert [c["name"] for c in rep["checks"] if c["status"] == "fail"] == ["kunneth-identity"]


def test_model_check_adjointable(capsys):
    code, _, _ = invoke(capsys, "model", "check", "--law", "adjointable", "--instance", "frame-2chain")
    assert code == 0


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
    good = {(r["i"], r["p"]) for r in rows if r["axioms"] and r["hypotheses"]}
    assert ("all", "isos") in good and ("isos", "all") in good


def test_search_nagata_accepts_only_json(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "nagata", "--format", "text"])
    assert exc.value.code == 2
    assert "invalid choice: 'text'" in capsys.readouterr().err
    assert invoke(capsys, "search", "nagata", "--format", "json")[0] == 0


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


def test_localize_check(capsys):
    code, _, _ = invoke(capsys, "localize", "check", "--instance", "localization-interval")
    assert code == 0


def test_descend_extend_c_on_degenerate_pair(capsys):
    code, out, _ = invoke(
        capsys, "descend", "extend-c", "--instance", "nice-pair-identity", "--format", "json"
    )
    assert code == 0
    rep = json.loads(out)
    names = [c["name"] for c in rep["checks"]]
    assert "extension-functorial" in names


def test_descend_extend_e_requires_exceptional_kind(capsys):
    code, _, err = invoke(capsys, "descend", "extend-e", "--instance", "nice-pair-identity")
    assert code == 2
    assert "exceptional" in err


def test_suite_order_is_dependency_order():
    assert SUITE_ORDER == ("category", "setup", "model", "theorem")


def test_each_instance_lists_the_suites_its_declaration_plans():
    # the corpus listing and the run decide separately which suites apply
    for inst in corpus():
        plan = cli._plan(inst.name, inst.build(), 2, 4, inst.options)
        assert list(inst.suites) == [s for s in SUITE_ORDER if s in plan], inst.name


def test_a_failed_codescent_precondition_is_a_failed_check(tmp_path, capsys):
    # every pair check passes, but the atlas 1>2:0 misses a point of its
    # target, so pushing forward along it misses an element of the target's
    # lattice and the extension cannot be built
    c = finset_category({"1": 1, "2": 2, "4": 4})
    s = GeometricSetup(c, all_class(c))
    every = frozenset(c.morphism_ids)
    cover = EdgeClass(c, every)
    atlases = {o: (descent.identity_atlas(s, cover, c.objects, o),) for o in c.objects}
    atlases["2"] = (descent.Atlas(s, "1>2:0", cover, c.objects),) + atlases["2"]
    pd = descent.PairDeclaration("exceptional", s, c.objects, every, every, every, atlases)
    path = tmp_path / "pair.json"
    path.write_text(ser.dumps(ser.pair_to_dict(pd)))
    code, out, err = invoke(capsys, "run", "--input", str(path), "--format", "json")
    assert code == 1 and err == ""
    (rep,) = json.loads(out)["reports"]
    *gates, last = rep["checks"]
    assert gates and all(ch["name"].startswith("pair:") and ch["status"] == "pass" for ch in gates)
    assert (last["name"], last["status"]) == ("extension-agrees", "fail")
    assert last["witness"] == {
        "reason": "codescent precondition fails for atlas '1>2:0': {'reason': 'not surjective', 'element': '(0,1)'}"
    }


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
    rep = cli._nagata_theorem_suite("nagata-open", instance("nagata-open").build(), 4)
    assert rep.passed
    assert calls == {"check_nagata": 1, "verify_hypotheses": 1, "_construct_squares": 1}
    # a setup that fails a hypothesis constructs its squares once as well
    calls.clear()
    rep = cli._nagata_theorem_suite("nagata-inj-all", instance("nagata-inj-all").build(), 4)
    assert [c.name for c in rep.failures] == ["hypotheses:support-property"]
    assert calls == {"check_nagata": 1, "verify_hypotheses": 1, "_construct_squares": 1}

    # the extension of a nice pair reruns no descent check the suite reported
    count(descent, "check_descent", lambda setup, sys, atlas: ("descent", id(atlas)))
    for name in ("nice-pair-cover", "nice-pair-identity"):
        calls.clear()
        inst = instance(name)
        pd = inst.build()
        rep = cli._pair_theorem_suite(name, pd, inst.options, 2)
        assert rep.checks[-1].name == "extension-functorial"
        assert calls == {("descent", id(a)): 1 for atlases in pd.atlases.values() for a in atlases}

    calls.clear()
    count(descent, "_search_hypercovers", lambda pd, f, m: ("search", f, m))
    count(descent, "check_codescent", lambda sa, nerve: ("codescent", id(nerve)))
    pd = instance("exceptional-pair-cover").build()
    rep = cli._pair_theorem_suite("exceptional-pair-cover", pd, {}, 2)
    assert rep.passed
    assert {k[1:]: n for k, n in calls.items() if k[0] == "search"} == {(f, 1): 1 for f in pd.big.e.members}
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


# exit code and stdout SHA-256 of the subcommands that load a declaration
# and build from it, recorded before their loaders and build gate merged
SUBCOMMAND_SHA256 = {
    ("shriek", "build", "--instance", "nagata-open"): (0, "aa0f65a42400317ab12079f3423f43e152736dab5a1dd36902089af169b4e156"),
    ("shriek", "build", "--instance", "nagata-proper"): (0, "0025e1bfc257d29aac75e9db0457aad54d3f5270e9f33e3fad2a32bbb095ac78"),
    ("formalism", "assemble", "--instance", "nagata-proper", "--format", "json"): (
        0, "0f7f1e0468cb90acdae179b0a7376a0662ac3e96517aff2e6f24cb24d6f021f0"),
    ("descend", "extend-c", "--instance", "nice-pair-cover", "--format", "json"): (
        0, "9eada44763542aa7aeb60d2a6676f01e7dedb4cbf733188ec8bbfb038fc48f9b"),
    ("descend", "extend-e", "--format", "json"): (0, "1692cefe89a58f977476dfe6d5e33e92e2105fba013ac7ee559995a8c7f8d2a3"),
    ("localize", "check", "--instance", "localization-cover", "--format", "json"): (
        0, "2eb33dd55ef52ea35cda42ff2d83b56965566155069514e731415a394ab8f944"),
    # these two read span class ids through `HCorr.category` and `check_coproduct`
    ("corr", "hocat", "--format", "json"): (0, "f4ad77e22e186f59f632f49a147251608a4709975d93f15607f9226781add522"),
    ("corr", "coproduct", "1", "1", "--format", "json"): (
        0, "217e0d967053c8228b2bf01fb3a8b195d7a708fdc5307c5212e0ef576d5e2c6b"),
    ("corr", "coproduct", "2", "1", "--format", "json"): (
        0, "3ac05e333636ef0fcb4aa1717f2b60cf8ed2ebf8c9e895919dd1a664a06d9964"),
    ("corr", "coproduct", "0", "2", "--format", "json"): (
        0, "a394d859e22d9a84cc98bbbd003b876a43ab0eab7ef11ba6cf77742d69283c88"),
}


@pytest.mark.parametrize("argv", list(SUBCOMMAND_SHA256))
def test_subcommand_bytes_are_pinned(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, _sha256(out), err) == (*SUBCOMMAND_SHA256[argv], "")


# the one stderr line of a declaration of the wrong kind; `chain2.json` is
# a lattice envelope and `nagata.json` a factorization-setup envelope
SUBCOMMAND_STDERR = {
    ("model", "check", "--law", "kunneth", "--instance", "nagata-open"):
        "error: instance 'nagata-open' is not a coefficient model\n",
    ("shriek", "build", "--instance", "frame-2chain"):
        "error: instance 'frame-2chain' is not a factorization setup\n",
    ("descend", "extend-e", "--instance", "nagata-open"):
        "error: instance 'nagata-open' is not a pair declaration\n",
    ("localize", "check", "--instance", "finset-1"):
        "error: instance 'finset-1' is not a localization problem\n",
    ("shriek", "build", "--input", "chain2.json"):
        "error: chain2.json is not a factorization-setup envelope\n",
    ("model", "check", "--law", "kunneth", "--input", "nagata.json"):
        "error: nagata.json is not a lattice envelope\n",
    ("descend", "extend-c", "--input", "chain2.json"):
        "error: chain2.json is not a pair envelope\n",
    ("localize", "check", "--input", "chain2.json"):
        "error: chain2.json is not a localization envelope\n",
    # an object outside the carrier, on the constructed coproduct path
    ("corr", "coproduct", "9", "1"): "error: unknown objects ['9']\n",
}


@pytest.mark.parametrize("argv", list(SUBCOMMAND_STDERR))
def test_wrong_kind_of_declaration_is_pinned(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain2.json").write_text(ser.dumps(ser.lattice_to_dict(chain_lattice(1))))
    (tmp_path / "nagata.json").write_text(ser.dumps(ser.nagata_to_dict(instance("nagata-open").build())))
    assert invoke(capsys, *argv) == (2, "", SUBCOMMAND_STDERR[argv])


# exit code and the SHA-256 of stdout and stderr of invocations that end in
# the parser, recorded with every subcommand's arguments declared up front,
# before the parser declared only those of the subcommand argv names
_EMPTY = _sha256("")
PARSER_SHA256 = {
    ("--help",): (0, "fd52190b6ea7857a963b6a9b9961a2a5b55ec0c09b01d6bf5d6b44a6f98b3a6b", _EMPTY),
    ("run", "--help"): (0, "04493348cf57e70a8d8f81d41b230133ce8245f00f31614de4417d0a4969ab86", _EMPTY),
    ("descend", "extend-e", "--help"): (0, "e5287835f2d20fdd5ef95ffa12ba51aa21c937bf09092fb7712c4ecfebddf767", _EMPTY),
    ("descend", "--help"): (0, "094fa6169442015a88db4e7e84b38b776952a2bb3451fae655e23ba16da23893", _EMPTY),
    ("corr", "coproduct", "--help"): (0, "fd3cf3bbc5aa1a14670d2b53f044bcac85495d8d009abe474aafd4575208c636", _EMPTY),
    ("bogus",): (2, _EMPTY, "352e84225de5c1c378b5be7320af10065d9f0b16f60189d7a1611e2883f1ab69"),
    ("run", "--suite", "bogus"): (2, _EMPTY, "fd52b36f7f73a6904ec60ee0e46bb66d8031bba52454a45b58ed64a963f0633d"),
    ("descend",): (2, _EMPTY, "23029830e3b2983e34ce8eed85fa53ecd2243e3afed8585899b04c0dace9852e"),
    (): (2, _EMPTY, "5ec29090577bf7ee76e60a3e3be4d77a08adc0d532313900362bc6b1286bb014"),
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
    # fails: the theorem suite reports it once and stops, and the build
    # command refuses the maps
    factorizations = shriek.factorizations

    def first_of_hom(ns, f):
        c = ns.setup.category
        return factorizations(ns, c.hom(*c.morphisms[f])[0])

    monkeypatch.setattr(shriek, "factorizations", first_of_hom)
    code, out, err = invoke(capsys, "shriek", "verify", "--format", "json")
    assert (code, err) == (1, "")
    checks = json.loads(out)["checks"]
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


def _loaded(cwd, *argv) -> set:
    """The corrkit modules a fresh interpreter holds after it imports the
    CLI and runs `corrkit ARGV`, if ARGV is given; the run must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(corrkit.__file__)))
    out = subprocess.run([sys.executable, "-c", _LOADED, *argv], cwd=cwd, env=env, capture_output=True, text=True)
    code, *modules = out.stderr.splitlines()[-1].split()
    assert (out.returncode, code) == (0, "0"), out.stderr
    return {m.removeprefix("corrkit.") for m in modules}


def test_corpus_list_loads_neither_descent_nor_lattices(tmp_path):
    listed = _loaded(tmp_path, "corpus", "list")
    assert "corpus" in listed
    assert listed & {"descent", "lattices"} == set()


def test_the_formalism_names_enumerated_classes_by_their_representatives(monkeypatch):
    # a class read from `HCorr.classes` is named by its representative, so
    # only the identity spans and the two restriction embeddings of each
    # morphism ask `class_id` for their class
    from corrkit.spans import HCorr

    asked = []
    class_id = HCorr.class_id
    monkeypatch.setattr(HCorr, "class_id", lambda self, sp: asked.append(sp) or class_id(self, sp))
    ns = instance("nagata-open").build()
    assert cli._nagata_theorem_suite("nagata-open", ns, 4).passed
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
        assert all(rep.passed for rep in cli._reports(name, inst.build(), ["theorem"], 2, 4, inst.options))
    assert len(systems) == 2 and systems[0] is systems[1]


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
