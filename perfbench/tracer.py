"""Run one `corrkit` command with spans recorded around calls into each layer.

    python3 perfbench/tracer.py OUT.json run --input FILE --format json

Wraps the public entry points listed in ``TARGETS`` from outside the
package (nothing under ``src/`` changes), then calls ``corrkit.cli.main``
with the remaining arguments.  Standard output and the exit code are the
CLI's own, so the caller can check them as for an untraced run.

Each wrapped call is a span: name, start, end and parent, in a run named
after this process.  Spans are kept in memory and written to OUT.json at
exit as per-name aggregates (calls, inclusive time, self time) plus the
counters the spans carry (pullback-oracle memo hits and gaps).  Self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (module, attribute path, span name)
TARGETS = (
    ("lattices", "CoefficientSystem.__post_init__", "lattices.CoefficientSystem.validate"),
    ("lattices", "LatticeMap.__post_init__", "lattices.LatticeMap.build"),
    ("lattices", "compose_maps", "lattices.compose_maps"),
    ("lattices", "frame_system", "lattices.frame_system"),
    ("lattices", "FiniteLattice.__post_init__", "lattices.FiniteLattice.build"),
    ("lattices", "check_adjointable", "lattices.check_adjointable"),
    ("fincat", "FinCategory.hom", "fincat.hom"),
    ("fincat", "finset_category", "fincat.finset_category"),
    ("fincat", "check_category", "fincat.check_category"),
    ("fincat", "canonical_pullback", "fincat.canonical_pullback"),
    ("fincat", "verify_pullback_square", "fincat.verify_pullback_square"),
    ("setups", "GeometricSetup.pullback_opt", "setups.pullback_opt"),
    ("setups", "check_geometric_setup", "setups.check_geometric_setup"),
    ("grid", "enumerate_grid_simplices", "grid.enumerate_grid_simplices"),
    ("spans", "HCorr.classes", "spans.HCorr.classes"),
    ("shriek", "factorizations", "shriek.factorizations"),
    ("shriek", "build_shriek", "shriek.build_shriek"),
    ("shriek", "verify_hypotheses", "shriek.verify_hypotheses"),
    ("descent", "cech_nerve", "descent.cech_nerve"),
    ("descent", "find_hypercovers", "descent.find_hypercovers"),
    ("descent", "extend_system_C", "descent.extend_system_C"),
    ("descent", "extend_system_E", "descent.extend_system_E"),
    ("descent", "check_descent", "descent.check_descent"),
    ("serialization", "loads", "serialization.loads"),
    ("cli", "_category_suite", "cli.suite.category"),
    ("cli", "_setup_suite", "cli.suite.setup"),
    ("cli", "_model_suite", "cli.suite.model"),
    ("cli", "_nagata_theorem_suite", "cli.suite.theorem"),
    ("cli", "_pair_theorem_suite", "cli.suite.theorem"),
    ("cli", "_localization_theorem_suite", "cli.suite.theorem"),
)

MODULES = ("fincat", "setups", "grid", "spans", "lattices", "shriek", "descent", "serialization", "corpus", "cli")


class Recorder:
    """Spans of one run, kept in memory.  A call reserves its span's slot
    on entry, so spans started inside it can name it as their parent, and
    fills the slot on exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1)
        self.open_ids: list[int] = []
        self.memo_hits = 0
        self.gaps = 0
        self.suite_tags: dict[int, str] = {}  # span index -> corpus "<instance>.<suite>"

    def wrap(self, name: str, fn, on_call=None, on_result=None, tag=None):
        spans, open_ids = self.spans, self.open_ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(spans)
            spans.append(None)
            parent = open_ids[-1] if open_ids else -1
            open_ids.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_ids.pop()
                spans[idx] = (name, t0, t1, parent)
            if on_result is not None:
                on_result(out)
            if tag is not None:
                self.suite_tags[idx] = tag(args)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive time (outermost spans of that name
        only, so recursion is not counted twice) and self time."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        stats: dict[str, dict] = {}
        names = [s[0] for s in self.spans]
        root_time = 0.0
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            st = stats.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - child_time[i]
            p = parent
            while p >= 0 and names[p] != name:
                p = self.spans[p][3]
            if p < 0:
                st["incl_s"] += t1 - t0
            if parent < 0:
                root_time += t1 - t0
        tagged: dict[str, float] = {}
        for idx, tag in self.suite_tags.items():
            if tag:
                _, t0, t1, _ = self.spans[idx]
                tagged[tag] = tagged.get(tag, 0.0) + (t1 - t0)
        return {
            "run": self.run_id,
            "spans": len(self.spans),
            "root_s": root_time,
            "names": stats,
            "corpus": tagged,
            "pullback_opt.memo_hits": self.memo_hits,
            "pullback_opt.gaps": self.gaps,
        }


def install(rec: Recorder) -> None:
    """Replace each target by its wrapper: on its class for methods, and in
    every corrkit module that bound the function by name."""
    import importlib

    mods = {m: importlib.import_module(f"corrkit.{m}") for m in MODULES}
    corpus_names = {inst.name for inst in mods["corpus"].corpus()}

    def memo_probe(args):
        setup, f, g = args[0], args[1], args[2]
        if (f, g) in setup._oracle:
            rec.memo_hits += 1

    def gap_probe(out):
        if out is None:
            rec.gaps += 1

    def suite_tag(suite):
        def tag(args):
            return f"{args[0]}.{suite}" if args and args[0] in corpus_names else ""

        return tag

    for mod_name, path, span in TARGETS:
        mod = mods[mod_name]
        extra = {}
        if span == "setups.pullback_opt":
            extra = {"on_call": memo_probe, "on_result": gap_probe}
        elif span.startswith("cli.suite."):
            extra = {"tag": suite_tag(span.rsplit(".", 1)[1])}
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, attr, rec.wrap(span, cls.__dict__[attr], **extra))
            continue
        orig = getattr(mod, path)
        wrapped = rec.wrap(span, orig, **extra)
        for m in mods.values():
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapped)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from corrkit import cli

    rec = Recorder(f"{os.getpid()}")
    install(rec)
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.aggregate(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
