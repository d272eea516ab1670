"""corrkit benchmark: seeded workloads through the `corrkit` CLI.

    python3 perfbench/run.py --workload {corpus,carriers,models} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is taken from ``./src``.
Load is one client in a closed loop: one ``corrkit`` child at a time, each
in a fresh interpreter, as a user runs it.  A run makes as many iterations
as fit in ``--seconds`` at the costs recorded in ``catalog.json`` (see
``workloads.planned_iterations``), at least one.  Every child's output is
checked against its input's known answer (see ``workloads.judge``).

With ``--trace 1`` a run makes one untraced iteration and then one traced
iteration over the same inputs, run through ``tracer.py``; the per-layer
metrics come from it, and the difference between the two is reported as
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2 without
printing a result when ``./src/corrkit`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

RUN_BUDGET_S = 170.0  # every run must end within 180 s
SETUP_REPS = 11
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it

END_TO_END = (
    ("wall_s", "s"),
    ("verdict_p50_s", "s"),
    ("verdict_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# span name in tracer.py -> (report its call count, report its time)
LAYER_SPANS = {
    "lattices.CoefficientSystem.validate": (False, True),
    "lattices.LatticeMap.build": (False, False),
    "lattices.compose_maps": (True, False),
    "lattices.frame_system": (False, True),
    "lattices.FiniteLattice.build": (False, True),
    "lattices.check_adjointable": (False, True),
    "fincat.hom": (True, True),
    "fincat.finset_category": (False, True),
    "fincat.check_category": (False, True),
    "fincat.canonical_pullback": (True, True),
    "fincat.verify_pullback_square": (True, True),
    "setups.pullback_opt": (True, False),
    "setups.check_geometric_setup": (False, True),
    "grid.enumerate_grid_simplices": (False, True),
    "spans.HCorr.classes": (True, True),
    "shriek.factorizations": (True, True),
    "shriek.build_shriek": (False, True),
    "shriek.verify_hypotheses": (False, True),
    "descent.cech_nerve": (True, True),
    "descent.find_hypercovers": (True, True),
    "descent.extend_system_C": (False, True),
    "descent.extend_system_E": (False, True),
    "descent.check_descent": (False, True),
    "serialization.loads": (False, True),
    "cli.suite.category": (False, True),
    "cli.suite.setup": (False, True),
    "cli.suite.model": (False, True),
    "cli.suite.theorem": (False, True),
}
LAYERS = ("lattices", "fincat", "setups", "grid", "spans", "shriek", "descent", "serialization", "cli")


def corpus_suite_names() -> list[str]:
    from corrkit.corpus import SUITE_ORDER, corpus

    return [f"{inst.name}.{s}" for inst in corpus() for s in SUITE_ORDER if s in inst.suites]


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in a fixed order."""
    out = []
    for span, (calls, timed) in LAYER_SPANS.items():
        if span == "lattices.LatticeMap.build":
            out.append(("lattices.LatticeMap.builds", "count"))
        if calls:
            out.append((f"{span}.calls", "count"))
        if span == "setups.pullback_opt":
            out += [("setups.pullback_opt.hit_ratio", "ratio"), ("setups.pullback_opt.gaps", "count")]
        if timed:
            out.append((f"{span}_s", "s"))
    out += [(f"corpus.{n}_s", "s") for n in corpus_suite_names()]
    out += [("report.checks", "count"), ("report.resource_limits", "count")]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [
        ("trace.outside_s", "s"),
        ("trace.spans", "count"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_share", "ratio"),
    ]
    return out


# -- children -----------------------------------------------------------------


@dataclass
class Child:
    """One finished child: exit code, wall time, max RSS and its output."""

    code: int
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


def run_child(argv: list[str], env: dict, cwd: str, timeout: float) -> Child:
    """Start argv, wait for it, and collect its rusage.  Output goes to
    files under .bench_work so a large payload cannot block the pipe."""
    out_dir = os.path.join(cwd, ".bench_work", "out")
    os.makedirs(out_dir, exist_ok=True)
    out_path, err_path = os.path.join(out_dir, "child.out"), os.path.join(out_dir, "child.err")
    killed = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Child(proc.returncode, wall, usage.ru_maxrss, stdout, stderr, bool(killed))


def measure_setup(env: dict, cwd: str) -> list[float]:
    """Wall times of fresh interpreters that import corrkit.cli and exit."""
    argv = [sys.executable, "-c", "import corrkit.cli"]
    times = []
    for _ in range(SETUP_REPS):
        ch = run_child(argv, env, cwd, 30.0)
        if ch.code != 0:
            raise RuntimeError(f"importing corrkit.cli failed: {ch.stderr.decode(errors='replace')[-400:]}")
        times.append(ch.wall_s)
    return times


# -- metrics --------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile that keeps at least
    TAIL_BEYOND samples beyond it; the largest sample if there are fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    rank = n - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND samples above it
    return xs[rank - 1], 100.0 * rank / n, n


class Tally:
    """Children attempted, errored, and suites judged for one set of runs."""

    def __init__(self):
        self.children = 0
        self.errors = 0
        self.suites = 0
        self.suites_ok = 0
        self.failed_children = 0

    def add(self, workload: str, entry: dict, ch: Child) -> None:
        v = wl.judge(workload, entry, ch.code, ch.stdout, ch.stderr)
        error = v["error"] or ch.timed_out
        self.children += 1
        self.errors += int(error)
        self.suites += v["suites"]
        self.suites_ok += v["suites_ok"]
        self.failed_children += int(error or v["suites_ok"] < v["suites"])

    @property
    def verdicts_ok(self) -> float:
        return self.suites_ok / self.suites if self.suites else 0.0

    @property
    def error_rate(self) -> float:
        return self.errors / self.children if self.children else 1.0


def layer_metrics(aggs: list[dict], payloads: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics summed over the traced children."""
    names: dict[str, dict] = {}
    corpus_times: dict[str, float] = {}
    spans = memo_hits = gaps = 0
    root = 0.0
    for a in aggs:
        spans += a["spans"]
        root += a["root_s"]
        memo_hits += a["pullback_opt.memo_hits"]
        gaps += a["pullback_opt.gaps"]
        for k, st in a["names"].items():
            acc = names.setdefault(k, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for f in acc:
                acc[f] += st[f]
        for k, t in a["corpus"].items():
            corpus_times[k] = corpus_times.get(k, 0.0) + t
    m = {}

    def st(span):
        return names.get(span, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    for span, (calls, timed) in LAYER_SPANS.items():
        if span == "lattices.LatticeMap.build":
            m["lattices.LatticeMap.builds"] = st(span)["calls"]
        if calls:
            m[f"{span}.calls"] = st(span)["calls"]
        if span == "setups.pullback_opt":
            n = st(span)["calls"]
            m["setups.pullback_opt.hit_ratio"] = memo_hits / n if n else 0.0
            m["setups.pullback_opt.gaps"] = gaps
        if timed:
            m[f"{span}_s"] = st(span)["incl_s"]
    for n in corpus_suite_names():
        m[f"corpus.{n}_s"] = corpus_times.get(n, 0.0)
    checks = limits = 0
    for p in payloads:
        for rep in p.get("reports", []):
            checks += len(rep["checks"])
            limits += sum(1 for c in rep["checks"] if c["status"] == "resource-limit")
    m["report.checks"] = checks
    m["report.resource_limits"] = limits
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s["self_s"] for k, s in names.items() if k.split(".", 1)[0] == layer)
    m["trace.outside_s"] = traced_wall - root
    m["trace.spans"] = spans
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall if untraced_wall else 0.0
    m["_bases"] = {
        "setups.pullback_opt.hit_ratio": f"{memo_hits} memo hits / {st('setups.pullback_opt')['calls']} calls",
        "trace.overhead_share": f"({traced_wall:.3f} s traced - {untraced_wall:.3f} s untraced) / untraced",
    }
    return m


# -- main ---------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def locate_program(root: str) -> str:
    """./src of the checkout, after checking corrkit imports from there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "corrkit", "cli.py")):
        raise FileNotFoundError("no ./src/corrkit/cli.py: run from the root of a corrkit checkout")
    sys.path.insert(0, src)
    import corrkit

    if os.path.dirname(os.path.abspath(corrkit.__file__)) != os.path.join(src, "corrkit"):
        raise FileNotFoundError(f"corrkit imported from {corrkit.__file__}, not from {src}")
    return src


def run_iteration(workload, entries, env, root, deadline, tally, trace_dir=None):
    """Run one child per entry, in order; with a trace_dir each child runs
    under tracer.py and writes <index>.json there.  Returns (wall,
    children); the wall time leaves out judging between children."""
    children = []
    t0 = time.perf_counter()
    for k, entry in enumerate(entries):
        if trace_dir is None:
            argv = [sys.executable, "-m", "corrkit.cli"]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), os.path.join(trace_dir, f"{k}.json")]
        argv += wl.corrkit_args(workload, entry)
        ch = run_child(argv, env, root, deadline - time.perf_counter())
        t_exit = time.perf_counter()
        tally.add(workload, entry, ch)
        children.append(ch)
        t0 += time.perf_counter() - t_exit
        if time.perf_counter() > deadline:
            break
    return time.perf_counter() - t0, children


def read_traces(trace_dir: str, children: list[Child]) -> tuple[list[dict], list[dict]]:
    """Span aggregates and report payloads of the traced children that
    finished cleanly; the others are already counted as errors."""
    aggs, payloads = [], []
    for k, ch in enumerate(children):
        try:
            with open(os.path.join(trace_dir, f"{k}.json"), "r", encoding="utf-8") as fh:
                agg = json.load(fh)
            payload = json.loads(ch.stdout.decode("utf-8"))
        except (OSError, ValueError):
            continue
        aggs.append(agg)
        payloads.append(payload)
    return aggs, payloads


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    try:
        src = locate_program(root)
        catalog = wl.load_catalog()
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    env = dict(os.environ, PYTHONPATH=src)

    setup_times = measure_setup(env, root)
    tally = Tally()
    iter_walls, child_walls, rss = [], [], []
    first_entries = None
    iterations = 1 if args.trace else wl.planned_iterations(catalog, args.workload, args.seconds)
    for i in range(iterations):
        entries = wl.draw(catalog, args.workload, args.seed, i)
        wl.write_inputs(root, args.workload, entries, args.seed)
        first_entries = first_entries or entries
        wall, children = run_iteration(args.workload, entries, env, root, deadline, tally)
        iter_walls.append(wall)
        child_walls += [c.wall_s for c in children]
        rss += [c.maxrss_kb for c in children]
        if time.perf_counter() + 2 * wall > deadline:
            break

    layer = None
    if args.trace:
        # the first iteration's envelopes are still on disk, byte for byte
        trace_dir = os.path.join(root, ".bench_work", "trace")
        os.makedirs(trace_dir, exist_ok=True)
        twall, traced = run_iteration(args.workload, first_entries, env, root, deadline, tally, trace_dir)
        aggs, payloads = read_traces(trace_dir, traced)
        layer = layer_metrics(aggs, payloads, twall, iter_walls[0])

    tail_v, tail_p, tail_n = tail(child_walls)
    e2e = {
        "wall_s": statistics.median(iter_walls),
        "verdict_p50_s": statistics.median(child_walls),
        "verdict_tail_s": tail_v,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(rss) / 1024.0,
    }
    correct = tally.verdicts_ok == 1.0 and tally.error_rate == 0.0

    print(f"workload {args.workload}  seed {args.seed}  iterations {len(iter_walls)}  children {len(child_walls)}")
    walls = ", ".join(f"{w:.3f}" for w in iter_walls)
    print(f"  wall_s              {e2e['wall_s']:.4f} s   (median of iterations: {walls})")
    print(f"  verdict_p50_s       {e2e['verdict_p50_s']:.4f} s   (n={len(child_walls)})")
    print(f"  verdict_tail_s      {tail_v:.4f} s   (p{tail_p:.1f} of n={tail_n})")
    print(f"  setup_s             {e2e['setup_s']:.4f} s   (median of {len(setup_times)} interpreters)")
    print(f"  peak_rss_mb         {e2e['peak_rss_mb']:.1f} MB")
    print(f"  verdicts_ok         {tally.verdicts_ok:.4f}   ({tally.suites_ok}/{tally.suites} suites)")
    print(f"  error_rate          {tally.error_rate:.4f}   ({tally.errors}/{tally.children} children)")
    if layer is not None:
        bases = layer.pop("_bases")
        print("per-layer (traced iteration):")
        for name, unit in per_layer_names():
            note = f"   [{bases[name]}]" if name in bases else ""
            print(f"  {name:44} {layer[name]:.6g} {unit}{note}")

    if args.trace:
        metrics = {n: {"value": layer[n], "unit": u} for n, u in per_layer_names()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({
        "correct": correct,
        "attempted": tally.children,
        "failed": tally.failed_children,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
