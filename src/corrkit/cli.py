"""Batch front end: load declarations, run check suites over the bundled
corpus or over input files, and emit deterministic reports.

Exit codes: 0 every suite came out as documented, 1 at least one check
failed (or an expected failure did not occur), 2 the input could not be
read or parsed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import TYPE_CHECKING

from .report import (
    RESOURCE_LIMIT,
    SUITE_ORDER,
    MalformedInputError,
    ResourceLimitError,
    VerificationReport,
    report_lines,
)

# each suite and subcommand imports the layers it runs in its body, so a
# run loads only the modules its suites execute; these names are for the
# annotations alone
if TYPE_CHECKING:
    from .corpus import CorpusInstance
    from .descent import LocalizationProblem, PairDeclaration
    from .fincat import FinCategory
    from .lattices import FiniteLattice
    from .setups import GeometricSetup, NagataSetup

RUN_SCHEMA = "corrkit-run/1"

FORMATS = ("text", "json")

# the lattice every theorem-level suite uses for its coefficient model;
# the model suite itself varies the lattice instead
_BASE_CHAIN = 1


class WorkspaceConfig:
    """Validated run parameters; unknown suites, unknown formats and two
    selections that would report under one tag are rejected at
    construction.  An input's reports are tagged by its path, an
    instance's by its name."""

    def __init__(
        self,
        inputs: tuple[str, ...] = (),
        instances: tuple[str, ...] = (),
        suites: tuple[str, ...] = SUITE_ORDER,
        fmt: str = "text",
    ):
        self.inputs, self.instances, self.suites, self.fmt = inputs, instances, suites, fmt
        for s in self.suites:
            if s not in SUITE_ORDER:
                raise MalformedInputError(f"unknown suite {s!r}")
        if self.fmt not in FORMATS:
            raise MalformedInputError(f"format must be one of {FORMATS}")
        tags = self.inputs + self.instances
        twice = next((t for t in tags if tags.count(t) > 1), None)
        if twice is not None:
            raise MalformedInputError(f"two selections would report under one tag {twice!r}")


# -- individual suites -----------------------------------------------------


def _category_suite(tag: str, c: FinCategory) -> VerificationReport:
    from .fincat import check_category

    rep = VerificationReport(f"{tag}:category")
    rep.merge(check_category(c))
    return rep


def _setup_suite(tag: str, s: GeometricSetup) -> VerificationReport:
    from .setups import check_geometric_setup

    rep = VerificationReport(f"{tag}:setup")
    rep.merge(check_geometric_setup(s))
    return rep


def _model_suite(tag: str, L: FiniteLattice) -> VerificationReport:
    """Adjoint triangles, both projection formulas, and the external
    product, over the power-lattice model on sets of size at most two.

    Both formulas are equalities read by `projection_witness`, the routine
    the theorem suite's hypotheses read too.  The star formula is
    quantified over surjections only: at an empty fiber the right adjoint
    inserts the top element and the strict equality has no finite
    rendering that survives it."""
    from .fincat import surjections
    from .lattices import check_kunneth, check_triangles, frame_system, projection_witness
    from .setups import skeleton_setup

    rep = VerificationReport(f"{tag}:model")
    setup = skeleton_setup(2)
    sys = frame_system(setup, L)
    morphs = setup.category.morphism_ids

    bad = []
    for f in morphs:
        sub = check_triangles(sys.galois(f))
        if not sub.passed:
            bad.append(f)
    rep.add("adjoint-triangles", not bad, {"morphisms": bad} if bad else {"checked": len(morphs)}, anchor="galois-triangle")

    bad = [f for f in morphs if projection_witness(sys, f, sys.galois(f).sharp, "==")]
    rep.add("projection-sharp", not bad, {"morphisms": bad} if bad else {"checked": len(morphs)}, anchor="projection-formula-sharp")

    surj = sorted(surjections(setup.category))
    bad = [f for f in surj if projection_witness(sys, f, sys.galois(f).star, "==")]
    rep.add("projection-star", not bad, {"morphisms": bad} if bad else {"checked": len(surj)}, anchor="projection-formula-star")

    sub = check_kunneth(sys, "1>1:0", "2>1:0.0")
    fails = [c.name for c in sub.failures]
    rep.add("external-product", sub.passed, {"checks": fails} if fails else {}, anchor="kunneth-external-product")
    return rep


def _gated_shriek(rep: VerificationReport, ns: NagataSetup):
    """The one gate of a factorization setup: its axioms and hypotheses,
    then its exceptional maps and their consistency with its classes, each
    merged into `rep` under its prefix.  The maps, with their coefficient
    system, once every check passed; otherwise None, and nothing is built
    past the first failed stage."""
    from .lattices import chain_lattice, frame_system
    from .shriek import build_shriek, check_class_consistency, check_nagata, verify_hypotheses

    sys = frame_system(ns.setup, chain_lattice(_BASE_CHAIN))
    rep.merge(check_nagata(ns), prefix="axioms:")
    rep.merge(verify_hypotheses(ns, sys), prefix="hypotheses:")
    if not rep.passed:
        return None
    sa = build_shriek(ns, sys)
    rep.merge(check_class_consistency(sa), prefix="classes:")
    return sa if rep.passed else None


def _nagata_theorem_suite(tag: str, ns: NagataSetup) -> VerificationReport:
    """The gate, then base change, projection and the formalism, each run
    only on maps the gate passed, so a designed failure is reported exactly
    where the analysis locates it and nowhere later."""
    from .shriek import assemble_formalism, check_base_change_shriek, check_formalism, check_shriek_projection

    rep = VerificationReport(f"{tag}:theorem")
    sa = _gated_shriek(rep, ns)
    if sa is None:
        return rep
    rep.merge(check_base_change_shriek(ns, sa), prefix="base-change:")
    rep.merge(check_shriek_projection(ns, sa), prefix="projection:")
    try:
        formalism = check_formalism(assemble_formalism(ns, sa))
    except MalformedInputError as exc:
        # a span the formalism reads has no class: E is not closed under
        # composition, or lacks an identity up to iso
        rep.add("formalism:span-classes", False, {"reason": str(exc)}, anchor="functor-on-span-classes")
        return rep
    rep.merge(formalism, prefix="formalism:")
    return rep


def _pair_theorem_suite(tag: str, pd: PairDeclaration, options: dict) -> VerificationReport:
    """A nice pair's descent checks read every nerve level the carrier
    holds, up to two; an exceptional pair matches hypercovers at level one."""
    from .descent import (
        check_descent,
        check_exceptional_pair,
        check_nice_pair,
        compare_atlases,
        extend_system_C,
        extend_system_E,
    )
    from .lattices import chain_lattice, frame_system

    rep = VerificationReport(f"{tag}:theorem")
    sys = frame_system(pd.big, chain_lattice(_BASE_CHAIN))
    full_gate = options.get("full_gate", True)
    if pd.kind == "nice":
        if full_gate:
            rep.merge(check_nice_pair(pd), prefix="pair:")
        for obj in sorted(pd.atlases):
            atl = pd.atlases[obj]
            for a in atl:
                rep.merge(check_descent(pd.big, sys, a), prefix=f"descent:{a.x}:")
            for i in range(len(atl)):
                for j in range(i + 1, len(atl)):
                    rep.merge(
                        compare_atlases(pd, sys, atl[i], atl[j]),
                        prefix=f"atlas:{obj}:",
                    )
        if rep.passed:
            try:
                ext = extend_system_C(pd, sys)
            except ResourceLimitError as exc:
                # a transport refinement larger than any object: a carrier gap
                rep.add_limit("extension-functorial", {"reason": str(exc)}, anchor="cech-descent")
                return rep
            rep.add("extension-functorial", True, {"objects": len(ext.category.objects)}, anchor="cech-descent")
        return rep

    rep.merge(check_exceptional_pair(pd), prefix="pair:")
    if not rep.passed:
        return rep
    # only an exceptional pair builds pushforwards
    from .setups import NagataSetup, all_class, iso_class
    from .shriek import build_shriek

    # the pair check found a level-one hypercover for every marked map, so
    # the extension meets no search limit.  Each f_! = p_* j_# with p an
    # isomorphism, and p_* = p_# for one, so f_! = (p j)_# = f_#: the maps
    # are consistent with both classes by construction, and need no gate
    c = pd.big.category
    sa = build_shriek(NagataSetup(pd.big, all_class(c), iso_class(c)), sys)
    try:
        ext = extend_system_E(pd, sa)
    except MalformedInputError as exc:
        # a nerve fails the codescent precondition
        rep.add("extension-agrees", False, {"reason": str(exc)}, anchor="cech-codescent")
        return rep
    bad = [f for f in sorted(ext) if not ext[f].same_table(sa.shriek[f])]
    rep.add(
        "extension-agrees",
        not bad,
        {"morphisms": bad} if bad else {"maps": len(ext)},
        anchor="cech-codescent",
    )
    return rep


def _localization_theorem_suite(tag: str, lp: LocalizationProblem) -> VerificationReport:
    from .descent import check_localization_premises

    rep = VerificationReport(f"{tag}:theorem")
    rep.merge(check_localization_premises(lp))
    return rep


def _plan(tag: str, obj, options: dict) -> dict:
    """Suite name -> the run of that suite, for each suite that applies to a
    built declaration; which suites apply follows from its type.

    Types are tried from the lowest layer up, and each layer imports the
    ones below it, so telling them apart loads no module that the
    declaration's own module has not loaded already."""
    from .fincat import FinCategory

    if isinstance(obj, FinCategory):
        return {"category": lambda: _category_suite(tag, obj)}
    from .setups import GeometricSetup, NagataSetup

    if isinstance(obj, GeometricSetup):
        return {
            "category": lambda: _category_suite(tag, obj.category),
            "setup": lambda: _setup_suite(tag, obj),
        }
    if isinstance(obj, NagataSetup):
        plan = {
            "category": lambda: _category_suite(tag, obj.setup.category),
            "setup": lambda: _setup_suite(tag, obj.setup),
        }
        # the theorem's coefficient system is a frame system, which reads
        # the carrier's cardinalities
        if obj.setup.category.object_size is not None:
            plan["theorem"] = lambda: _nagata_theorem_suite(tag, obj)
        return plan
    from .lattices import FiniteLattice

    if isinstance(obj, FiniteLattice):
        return {"model": lambda: _model_suite(tag, obj)}
    from .descent import PairDeclaration

    if isinstance(obj, PairDeclaration):
        # its one suite builds a frame system too, so it needs sizes
        if obj.big.category.object_size is None:
            return {}
        return {"theorem": lambda: _pair_theorem_suite(tag, obj, options)}
    return {"theorem": lambda: _localization_theorem_suite(tag, obj)}


def _reports(tag: str, obj, suites, options: dict) -> list[VerificationReport]:
    """The selected suites that apply to a built declaration, in SUITE_ORDER."""
    plan = _plan(tag, obj, options)
    return [plan[suite]() for suite in SUITE_ORDER if suite in suites and suite in plan]


# -- running inputs and the corpus -----------------------------------------


def _load_input(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"cannot read {path}: not UTF-8 at byte {exc.start}")
    from .serialization import loads

    return loads(text)


def _as_documented(inst: CorpusInstance, rep: VerificationReport) -> bool:
    failed = {c.name for c in rep.failures}
    limited = any(c.status == RESOURCE_LIMIT for c in rep.checks)
    return failed == set(inst.expect_fail.get(rep.suite.rsplit(":", 1)[1], ())) and not limited


def run(config: WorkspaceConfig):
    """Execute the selected suites.  Returns (exit_code, payload dict).

    Explicit inputs and explicit instance selections run in raw mode, the
    inputs first: any failing check is a nonzero exit.  A bare run walks
    the whole corpus in expectation mode: the exit is zero exactly when
    every suite fails at its documented checks and nowhere else.  Every
    input is loaded and every instance name resolved before any suite
    runs, and in raw mode each must take a selected suite: a selection
    that would check nothing on one is malformed."""
    reports: list[tuple[VerificationReport, bool]] = []
    mode = "raw" if config.inputs or config.instances else "expected"
    chosen = []
    if config.instances or not config.inputs:
        from .corpus import corpus, instance

        chosen = [instance(name) for name in config.instances] if config.instances else corpus()
    loaded = [(path, _load_input(path)) for path in config.inputs]
    if mode == "raw":
        named = [(f"--input {path}", _plan(path, obj, {})) for path, obj in loaded]
        named += [(f"--instance {inst.name}", inst.suites) for inst in chosen]
        for name, applies in named:
            # only a pair whose carrier declares no sizes has no suite
            if not applies:
                raise MalformedInputError(
                    f"no suite applies to {name}: its carrier declares no sizes, which the theorem suite reads"
                )
            if not any(s in applies for s in config.suites):
                raise MalformedInputError(f"no selected suite applies to {name}; its suites are {', '.join(applies)}")
    for path, obj in loaded:
        for rep in _reports(path, obj, config.suites, {}):
            reports.append((rep, rep.passed))
    for inst in chosen:
        suites = [s for s in config.suites if s in inst.suites]
        for rep in _reports(inst.name, inst.build(), suites, inst.options):
            reports.append((rep, rep.passed if mode == "raw" else _as_documented(inst, rep)))

    code = 0 if all(ok for _, ok in reports) else 1
    payload = {
        "schema": RUN_SCHEMA,
        "mode": mode,
        "exit": code,
        "reports": [rep.to_dict() for rep, _ in reports],
        "verdicts": {rep.suite: ok for rep, ok in reports},
    }
    return code, payload


def _render_run(payload: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return
    for rep_dict in payload["reports"]:
        out.write("\n".join(report_lines(rep_dict)) + "\n")
        verdict = payload["verdicts"][rep_dict["suite"]]
        out.write(f"verdict: {'as documented' if verdict else 'UNEXPECTED'}\n")
    out.write(f"exit: {payload['exit']}\n")


# -- one-shot subcommand helpers -------------------------------------------


def _emit_report(rep: VerificationReport, fmt: str, out) -> int:
    if fmt == "json":
        out.write(rep.to_json() + "\n")
    else:
        out.write(rep.to_text() + "\n")
    return 0 if rep.passed else 1


def _cmd_run(args, out) -> int:
    config = WorkspaceConfig(
        inputs=tuple(args.input or ()),
        instances=tuple(args.instance or ()),
        suites=tuple(args.suite) if args.suite else SUITE_ORDER,
        fmt=args.format,
    )
    code, payload = run(config)
    _render_run(payload, config.fmt, out)
    return code


def _cmd_corpus_list(args, out) -> int:
    from .corpus import corpus

    rows = [
        {
            "name": inst.name,
            "kind": inst.kind,
            "suites": list(inst.suites),
            "description": inst.description,
        }
        for inst in corpus()
    ]
    if args.format == "json":
        out.write(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    else:
        for r in rows:
            out.write(f"{r['name']:24} {r['kind']:12} [{', '.join(r['suites'])}]  {r['description']}\n")
    return 0


def _cmd_grid_enumerate(args, out) -> int:
    from .grid import check_grid_size, enumerate_grid_simplices
    from .setups import all_class, skeleton_setup

    # before one class per direction is listed
    check_grid_size(args.k, args.n)
    s = skeleton_setup(2)
    classes = [all_class(s.category)] * args.k
    grids = enumerate_grid_simplices(s, classes, args.k, args.n)
    # every grid has the same vertices and edges, so each is named once;
    # the dump sorts the keys
    vertices = {v: ".".join(map(str, v)) for v in itertools.product(range(args.n + 1), repeat=args.k)}
    edges = {(v, d): f"{name}/{d}" for v, name in vertices.items() for d in range(args.k) if v[d] < args.n}
    rows = [
        {
            "objects": {name: g.objects[v] for v, name in vertices.items()},
            "edges": {name: g.edges[e] for e, name in edges.items()},
        }
        for g in grids
    ]
    out.write(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_corr_enumerate(args, out) -> int:
    from .setups import skeleton_setup
    from .spans import corr_simplices

    s = skeleton_setup(2)
    cells = corr_simplices(s, args.dim)
    rows = [{"objects": cs.functor.obj_map, "morphisms": cs.functor.mor_map} for cs in cells]
    out.write(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_corr_hocat(args, out) -> int:
    from .fincat import check_category
    from .setups import skeleton_setup
    from .spans import check_span_laws, homotopy_category

    # laws are asserted over the two-element skeleton with coverage counted;
    # the materialized category needs classes closed under composition, which
    # holds on the one-element skeleton
    s = skeleton_setup(2)
    rep = VerificationReport("corr-hocat")
    rep.merge(check_span_laws(s, s.category.objects), prefix="laws:")
    rep.merge(check_category(homotopy_category(skeleton_setup(1))), prefix="category:")
    return _emit_report(rep, args.format, out)


def _cmd_corr_coproduct(args, out) -> int:
    # a sum-closed carrier; mediator routing is checked against small targets
    from .fincat import finset_category
    from .setups import GeometricSetup, all_class
    from .spans import check_coproduct

    c = finset_category({str(k): k for k in range(5)})
    s = GeometricSetup(c, all_class(c))
    targets = [o for o in c.objects if c.object_size[o] <= 2]
    rep = check_coproduct(s, args.x, args.y, targets=targets)
    return _emit_report(rep, args.format, out)


def _cmd_shriek_build(args, out) -> int:
    from .setups import NagataSetup

    if args.input and args.instance:
        raise MalformedInputError("shriek build takes --input or --instance, not both")
    if args.input:
        ns, name = _load_input(args.input), f"--input {args.input}"
        if not isinstance(ns, NagataSetup):
            raise MalformedInputError(f"{args.input} is not a factorization-setup envelope")
    else:
        from .corpus import instance

        inst = instance(args.instance or "nagata-open")
        if inst.kind != "nagata":
            raise MalformedInputError(f"instance {inst.name!r} is not a factorization setup")
        ns, name = inst.build(), f"--instance {inst.name}"
    # the maps are built as the theorem suite builds them
    plan = _plan(name, ns, {})
    if "theorem" not in plan:
        raise MalformedInputError(
            f"cannot build: the theorem suite does not apply to {name}; its suites are {', '.join(plan)}"
        )
    rep = VerificationReport("shriek-build")
    sa = _gated_shriek(rep, ns)
    if sa is None:
        # the first failure, under its own name
        bad = rep.first_failure()
        raise MalformedInputError(f"cannot build: {bad.name.split(':', 1)[1]} fails with witness {bad.witness}")
    tables = {f: sa.shriek[f].table for f in sorted(sa.shriek)}
    out.write(json.dumps({"schema": "corrkit-shriek/1", "tables": tables}, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_search_nagata(args, out) -> int:
    """Each pair (I, P) of catalogue classes through the gate: do its axioms
    pass, do its hypotheses (null once the axioms fail), and is it mixed (I
    not everything, P not the isomorphisms, and an overlap beyond them)."""
    from .fincat import injections, surjections
    from .setups import EdgeClass, NagataSetup, all_class, iso_class, skeleton_setup

    s = skeleton_setup(2)
    c = s.category
    catalog = {
        "all": all_class(c),
        "isos": iso_class(c),
        "inj": EdgeClass(c, injections(c)),
        "surj": EdgeClass(c, surjections(c)),
    }
    everything, isos = catalog["all"].members, catalog["isos"].members
    rows = []
    for i, p in itertools.product(sorted(catalog), repeat=2):
        rep = VerificationReport("search-nagata")
        _gated_shriek(rep, NagataSetup(s, catalog[i], catalog[p]))
        # the gate reports no resource limit: a stage passes when none of its checks failed
        failed = {ch.name.split(":", 1)[0] for ch in rep.failures}
        hypotheses = None if "axioms" in failed else "hypotheses" not in failed
        overlap = catalog[i].members & catalog[p].members
        mixed = catalog[i].members != everything and catalog[p].members != isos and overlap != isos
        rows.append({"i": i, "p": p, "axioms": "axioms" not in failed, "hypotheses": hypotheses, "mixed": mixed})
    out.write(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    return 0


# -- argument parsing ------------------------------------------------------


_FORMAT = ("--format", {"choices": FORMATS, "default": "text"})

# command -> (help, its subcommands) or (help, function, arguments); an
# argument is a (name, add_argument keywords) pair, and each subcommand
# declares only the arguments it reads
_COMMANDS = {
    "run": ("run check suites over inputs or the bundled corpus", _cmd_run, (
        ("--input", {"action": "append", "help": "JSON envelope; repeatable"}),
        ("--instance", {"action": "append", "help": "bundled instance name; repeatable"}),
        ("--suite", {"action": "append", "choices": SUITE_ORDER, "help": "restrict to a suite; repeatable"}),
        _FORMAT)),
    "corpus": ("bundled instances", {"list": ("list bundled instances", _cmd_corpus_list, (_FORMAT,))}),
    "grid": ("cartesian grids", {
        "enumerate": ("emit all cartesian grids as JSON", _cmd_grid_enumerate, (
            ("--k", {"type": int, "default": 2}), ("--n", {"type": int, "default": 1}))),
    }),
    "corr": ("correspondence cells and the homotopy category", {
        "enumerate": ("emit the n-cells as JSON", _cmd_corr_enumerate, (("--dim", {"type": int, "default": 1}),)),
        "hocat": ("span laws and the homotopy category", _cmd_corr_hocat, (_FORMAT,)),
        "coproduct": ("coproduct universal property for a pair of objects", _cmd_corr_coproduct, (
            ("x", {}), ("y", {}), _FORMAT)),
    }),
    "shriek": ("exceptional pushforwards", {
        "build": ("build and print the pushforward tables", _cmd_shriek_build, (
            ("--input", {"default": None, "help": "JSON envelope to load instead of a bundled instance"}),
            ("--instance", {"default": None, "help": "bundled instance name"}))),
    }),
    "search": ("brute-force searches", {
        "nagata": ("scan class pairs for valid factorization setups", _cmd_search_nagata, ()),
    }),
}


def _register(parser, commands: dict, named: list, dest: str) -> None:
    """Every command with its help; only the one `named` leads with gets
    its subcommands, or its function and arguments: the rest never parse."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (text, *body) in commands.items():
        p = sub.add_parser(name, help=text)
        if named[:1] != [name]:
            continue
        if isinstance(body[0], dict):
            _register(p, body[0], named[1:], "subcommand")
            continue
        func, arguments = body
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of `argv`.  Above a subcommand only -h is an option, so
    its first positionals name the command and subcommand that parse."""
    parser = argparse.ArgumentParser(prog="corrkit", description=__doc__)
    _register(parser, _COMMANDS, [a for a in argv if not a.startswith("-")][:2], "command")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
