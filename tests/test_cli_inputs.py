"""Inputs the CLI must refuse before it runs anything: a pair envelope whose
carrier declares no `sizes`, and `shriek build` given both a file and a
bundled instance."""

from corrkit import cli
from corrkit import serialization as ser
from corrkit.corpus import instance
from corrkit.lattices import chain_lattice

from helpers import pair_to_dict


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_a_pair_without_sizes_exits_2_before_any_suite(tmp_path, monkeypatch, capsys):
    # a pair's one suite builds a frame system, which reads the carrier's
    # cardinalities; the lattice loaded first must not run its model suite
    ran, real = [], cli._model_suite
    monkeypatch.setattr(cli, "_model_suite", lambda *args: ran.append(args) or real(*args))
    lattice, pair = tmp_path / "L.json", tmp_path / "P.json"
    lattice.write_text(ser.dumps(ser.lattice_to_dict(chain_lattice(1))))
    d = pair_to_dict(instance("nice-pair-cover").build())
    del d["category"]["sizes"]
    pair.write_text(ser.dumps(d))
    message = f"error: no suite applies to --input {pair}: its carrier declares no sizes, which the theorem suite reads\n"
    code, out, err = invoke(capsys, "run", "--input", str(lattice), "--input", str(pair))
    assert (code, out, ran, err) == (2, "", [], message)
    # the same line whichever suites are selected
    code, out, err = invoke(capsys, "run", "--input", str(pair), "--suite", "category")
    assert (code, out, err) == (2, "", message)


def test_shriek_build_refuses_both_an_input_and_an_instance(tmp_path, monkeypatch, capsys):
    built, real = [], cli._gated_shriek
    monkeypatch.setattr(cli, "_gated_shriek", lambda *args: built.append(args) or real(*args))
    path = tmp_path / "F.json"
    path.write_text(ser.dumps(ser.nagata_to_dict(instance("nagata-open").build())))
    code, out, err = invoke(capsys, "shriek", "build", "--input", str(path), "--instance", "nagata-proper")
    assert (code, out, built) == (2, "", [])
    assert err == "error: shriek build takes --input or --instance, not both\n"

