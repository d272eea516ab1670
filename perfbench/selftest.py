"""Self-tests of the benchmark itself (not of corrkit).

    python3 perfbench/selftest.py

Run from the root of a checkout.  They run a few cheap ``corrkit``
children and take a few seconds.
"""

from __future__ import annotations

import copy
import json
import os
import random
import re
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = os.getcwd()
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def setUpModule():
    bench.locate_program(ROOT)


def _env():
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _cheapest(workload):
    return min(wl.load_catalog()[workload], key=lambda e: e["cost_s"])


def _run(workload, entry, argv_prefix=None):
    wl.write_inputs(ROOT, workload, [entry], 7)
    argv = (argv_prefix or [sys.executable, "-m", "corrkit.cli"]) + wl.corrkit_args(workload, entry)
    return bench.run_child(argv, _env(), ROOT, 60.0)


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_draw_and_bytes(self):
        catalog = wl.load_catalog()
        for workload in ("carriers", "models"):
            a = wl.draw(catalog, workload, 11, 0)
            b = wl.draw(catalog, workload, 11, 0)
            self.assertEqual([e["id"] for e in a], [e["id"] for e in b])
            texts = []
            for _ in range(2):
                wl.write_inputs(ROOT, workload, a, 11)
                texts.append([open(os.path.join(ROOT, wl.input_path(workload, e["id"])), "rb").read() for e in a])
            self.assertEqual(texts[0], texts[1])

    def test_one_draw_per_stratum(self):
        catalog = wl.load_catalog()
        for workload in ("carriers", "models"):
            strata = {e["stratum"] for e in catalog[workload]}
            picks = wl.draw(catalog, workload, 3, 1)
            self.assertEqual(sorted(e["stratum"] for e in picks), sorted(strata))

    def test_seeds_differ(self):
        catalog = wl.load_catalog()
        draws = {tuple(e["id"] for e in wl.draw(catalog, "carriers", s, 0)) for s in range(5)}
        self.assertGreater(len(draws), 1)
        entry = catalog["models"][0]
        texts = {wl.entry_text("models", entry, random.Random(s)) for s in range(3)}
        self.assertEqual(len(texts), 3)


class MetricNameTests(unittest.TestCase):
    def test_names_and_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        e2e = [n for n, _ in bench.END_TO_END]
        layer = [n for n, _ in bench.per_layer_names()]
        self.assertEqual([m["name"] for m in spec["end_to_end"]], e2e)
        self.assertEqual([m["name"] for m in spec["per_layer"]], layer)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(wl.WORKLOADS))
        for name in e2e + layer:
            self.assertTrue(NAME_RE.fullmatch(name), name)
        self.assertEqual(len(set(e2e + layer)), len(e2e + layer))
        self.assertEqual(len(bench.corpus_suite_names()), 27)

    def test_tail_percentile(self):
        v, p, n = bench.tail([float(i) for i in range(1, 41)])
        self.assertEqual((v, p, n), (30.0, 75.0, 40))
        self.assertEqual(bench.tail([2.0, 1.0])[0], 2.0)


class OracleTests(unittest.TestCase):
    def test_known_answer_passes(self):
        entry = _cheapest("carriers")
        tally = bench.Tally()
        tally.add("carriers", entry, _run("carriers", entry))
        self.assertEqual((tally.verdicts_ok, tally.error_rate), (1.0, 0.0))

    def test_corrupted_digest_lowers_verdicts_ok(self):
        entry = copy.deepcopy(_cheapest("carriers"))
        child = _run("carriers", entry)
        entry["digest"] = "0" * 64
        tally = bench.Tally()
        tally.add("carriers", entry, child)
        self.assertLess(tally.verdicts_ok, 1.0)
        self.assertEqual(tally.error_rate, 0.0)

    def test_hand_rule_catches_a_wrong_verdict(self):
        entry = copy.deepcopy(next(e for e in wl.load_catalog()["carriers"] if e["exit"] == 1))
        child = _run("carriers", entry)
        entry["pattern"] = "all/iso"  # the rule now expects no failure
        tally = bench.Tally()
        tally.add("carriers", entry, child)
        self.assertLess(tally.verdicts_ok, 1.0)

    def test_exit_2_counts_as_error(self):
        entry = copy.deepcopy(_cheapest("carriers"))
        path = os.path.join(ROOT, wl.input_path("carriers", entry["id"]))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        argv = [sys.executable, "-m", "corrkit.cli"] + wl.corrkit_args("carriers", entry)
        child = bench.run_child(argv, _env(), ROOT, 60.0)
        self.assertEqual(child.code, 2)
        tally = bench.Tally()
        tally.add("carriers", entry, child)
        self.assertEqual(tally.error_rate, 1.0)
        self.assertLess(tally.verdicts_ok, 1.0)

    def test_tracer_keeps_output_bytes(self):
        entry = _cheapest("models")
        plain = _run("models", entry)
        trace_dir = os.path.join(ROOT, ".bench_work", "selftest")
        os.makedirs(trace_dir, exist_ok=True)
        try:
            out = os.path.join(trace_dir, "t.json")
            traced = _run("models", entry, [sys.executable, os.path.join(HERE, "tracer.py"), out])
            self.assertEqual(plain.stdout, traced.stdout)
            with open(out, encoding="utf-8") as fh:
                agg = json.load(fh)
            self.assertGreater(agg["names"]["cli.suite.model"]["calls"], 0)
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
