"""Rebuild catalog.json: every input the benchmark can draw, with its known
answer and its cost on the commit it is recorded from.

    python3 perfbench/record.py

Run from the root of a checkout, one child at a time.  For each entry it
writes the envelope, runs the same ``corrkit`` command the benchmark runs,
and records the exit code, the SHA-256 of the ``--format json`` bytes, the
digest of each suite's report and any resource-limit checks.  It refuses
to record an entry whose report breaks a hand rule of ``workloads``.
Lattice envelopes are run under two labelings and must give equal bytes.

Entries whose measured wall time is over the workload's cost cap are
listed under "excluded" and never drawn.  The rest are cut into strata of
similar cost (see ``STRATA``).

A catalogue recorded on another commit is a different known answer: record
only on the commit whose outputs are taken as correct.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import subprocess
import sys

import run as bench
import workloads as wl

# workload -> (cost cap in seconds, stratum size, stratum cost ratio).
# An iteration is one draw per stratum: about 16.5 s for carriers and
# 17.5 s for models on a 2-CPU machine, so a 40 s run plans two
# iterations.  Narrow model strata keep the median and tail child steady
# across seeds, since lattice costs come in a few widely spaced sizes.
STRATA = {"carriers": (3.0, 16, 100.0), "models": (4.2, 3, 1.2)}


def carrier_keys():
    """3-5 objects of sizes 0-3.  The theorem suite runs while the largest
    object has at most 2 elements.  At most two objects of the largest size
    once it is 2 or more (three 2-element objects put the theorem suite past
    8 s; three 3-element objects, or two beside a 2-element one, put
    category+setup past 4 s)."""
    for n in (3, 4, 5):
        for sizes in itertools.combinations_with_replacement(range(4), n):
            top = max(sizes)
            if top >= 2 and sizes.count(top) > 2:
                continue
            if top == 3 and sizes.count(3) == 2 and 2 in sizes:
                continue
            for pattern in wl.CARRIER_PATTERNS:
                yield sizes, pattern


def model_keys():
    for shape in wl.lattice_shapes():
        for tensor in wl.TENSORS:
            yield shape, tensor


def record_entry(workload, entry, env, root, rng_seed=0):
    wl.write_inputs(root, workload, [entry], rng_seed)
    ch = bench.run_child([sys.executable, "-m", "corrkit.cli"] + wl.corrkit_args(workload, entry), env, root, 600.0)
    if ch.code == 2 or ch.timed_out or b"Traceback" in ch.stderr:
        raise RuntimeError(f"{entry['id']}: exit {ch.code}: {ch.stderr.decode(errors='replace')[-300:]}")
    payload = json.loads(ch.stdout.decode("utf-8"))
    entry["exit"] = ch.code
    entry["digest"] = wl.sha256(ch.stdout)
    entry["suites_digest"] = {r["suite"]: wl.suite_digest(r) for r in payload["reports"]}
    entry["limits"] = sorted(
        f"{r['suite']}/{c['name']}" for r in payload["reports"] for c in r["checks"] if c["status"] == "resource-limit"
    )
    entry["cost_s"] = round(ch.wall_s, 3)
    broken = [s for s, ok in wl.hand_rule(workload, entry, payload).items() if not ok]
    if broken:
        raise RuntimeError(f"{entry['id']}: hand rule broken on {broken}")
    return ch


def stratify(entries, size, ratio):
    """Sort by cost and cut into consecutive strata of at most `size`
    entries whose costs stay within `ratio` times the cheapest.  One draw
    per stratum then gives every iteration about the same cost profile."""
    entries.sort(key=lambda e: (e["cost_s"], e["id"]))
    k, first, n = -1, None, 0
    for e in entries:
        if first is None or n == size or e["cost_s"] > ratio * first:
            k, first, n = k + 1, e["cost_s"], 0
        e["stratum"] = k
        n += 1


def finish(catalog: dict) -> None:
    """Drop entries over the cost cap (listed under "excluded") and assign
    strata."""
    excluded = catalog.get("excluded", [])
    for workload, (cap, size, ratio) in STRATA.items():
        kept = [e for e in catalog[workload] if e["cost_s"] <= cap]
        excluded += [{"id": e["id"], "cost_s": e["cost_s"]} for e in catalog[workload] if e["cost_s"] > cap]
        stratify(kept, size, ratio)
        catalog[workload] = kept
    catalog["excluded"] = sorted(excluded, key=lambda e: e["id"])


def main() -> int:
    root = os.getcwd()
    src = bench.locate_program(root)
    env = dict(os.environ, PYTHONPATH=src)
    out = {}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    out["recorded"] = {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    corpus = {"id": "corpus", "suites": []}
    record_entry("corpus", corpus, env, root)
    out["corpus"] = corpus
    print(f"corpus {corpus['cost_s']} s", flush=True)

    carriers = []
    for sizes, pattern in carrier_keys():
        e = {
            "id": wl.entry_id("carriers", (sizes, pattern)),
            "sizes": list(sizes),
            "pattern": pattern,
            "suites": list(wl.carrier_suites(sizes)),
        }
        record_entry("carriers", e, env, root)
        carriers.append(e)
        print(f"{e['id']} {e['cost_s']} s exit {e['exit']}", flush=True)
    out["carriers"] = carriers

    models = []
    for shape, tensor in model_keys():
        e = {
            "id": wl.entry_id("models", (shape, tensor)),
            "shape": list(shape),
            "tensor": tensor,
            "suites": ["model"],
        }
        record_entry("models", e, env, root, rng_seed=0)
        first = e["digest"]
        record_entry("models", e, env, root, rng_seed=1)
        if e["digest"] != first:
            raise RuntimeError(f"{e['id']}: report bytes depend on element labels")
        models.append(e)
        print(f"{e['id']} {e['cost_s']} s exit {e['exit']}", flush=True)
    out["models"] = models
    finish(out)

    with open(wl.CATALOG_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
