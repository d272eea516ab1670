"""Package layout: no unused import, no import of `dataclasses`, no module
the CLI cannot reach, no call to the builtin `id`, no read of the compose
table outside `fincat`, no CLI argument its subcommand does not read, no
subcommand but `run` that runs a suite, one CLI function that gates a
factorization setup, one routine that reports a sub-setup, every
definition reached by a call-graph walk from the CLI or kept off its path
by a listed reader that really names it, everything `perfbench/` reads
from the package still there, one exception class for malformed input and
one for a carrier gap, no first-witness loop written by hand (no `if` on a
witness that breaks, no `for` loop that keeps a witness and breaks, and
no `for` loop that returns a dict, tuple or string literal from its body)
outside a short allow-list, one writer per carrier memo (a geometric
setup keeps no memo but its view of the carrier's pullbacks, and each memo
on a `FinCategory` is filled in exactly one function), one builder of
atlases: only `PairDeclaration` calls `Atlas`, no `__post_init__`
hook but the three `perfbench/tracer.py` times, each called wherever its
class is built, and no grouping index `d.setdefault(k, []).append(v)`
built by hand outside `fincat._group` and a short allow-list."""

import ast
import functools
import importlib
import re
import shlex
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "corrkit"

# definitions with a `for` loop that keeps a witness by hand and breaks, or
# that returns a literal witness from its body outside a nested function,
# each with its reason: every other first-witness scan reports through
# `VerificationReport.sweep`
WITNESS_LOOPS = {
    "fincat.compose_table_witness": "the loader shares it and raises instead of reporting",
    "lattices.projection_witness": "a row scan read inside morphism sweeps",
    "descent._order_mismatch": "one of three conditions in its checks",
    "lattices.FiniteLattice": "constructor checks that raise",
    "lattices.CoefficientSystem": "constructor checks that raise",
}

# definitions that build a grouping index `d.setdefault(k, []).append(v)`
# by hand, each with its reason (times are medians of 10 alternating
# rounds, hand-built against `_group`, on a 2-CPU VM): every other
# one-shot grouping reads `fincat._group`
HAND_GROUPINGS = {
    "fincat.FinCategory.generators": "it grows its indexes inside a worklist, not in one pass",
    "fincat.verify_pullback_square": "1.7 -> 2.1 ms with `_group` over the 517 cones of a sizes-free {0,1,2}",
    "shriek.factorizations": "5.8 -> 6.5 ms with `_group` over one map of each hom-set of {1,2,4} all/iso",
}

# definitions no CLI path reaches (a top-level name, or `Class.method`),
# each a root of the reachability walk with the reader that keeps it:
# "acceptance criterion N" (the acceptance test's criterion N names it),
# "ROADMAP item N" (an open item that names it will give it a caller) or
# "benchmark writer" (`perfbench/` names it); what a root calls is reached
# through it and needs no entry
OFF_PATH = {
    "exact_squares": "acceptance criterion 1",
    "exact_squares_bruteforce": "acceptance criterion 1",
    "ExactSquare.corners": "acceptance criterion 1",
    "TensorEdge": "acceptance criterion 4",
    "is_cocartesian": "acceptance criterion 4",
    "monotone_maps_between": "acceptance criterion 5",
    "paste_squares": "acceptance criterion 5",
    "fiberwise_join_map": "acceptance criterion 6",
    "fiberwise_meet_map": "acceptance criterion 6",
    "check_independence": "acceptance criterion 6",
    "has_section": "acceptance criterion 9",
    "descent_elements": "acceptance criterion 9",
    "partial_adjoint_grid": "ROADMAP item 2",
    "lattice_to_dict": "benchmark writer",
    "nagata_to_dict": "benchmark writer",
}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for every import in the module, nested ones too."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _local_imports(tree: ast.Module) -> set[str]:
    """Sibling modules named by `from .x import ...` or `from . import x`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name for a in node.names)
    return out


def test_no_unused_imports():
    unused = []
    for mod, tree in _trees().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{mod}.py:{line} {name}" for name, line in _imported_names(tree) if name not in used]
    assert unused == []


def test_no_module_imports_dataclasses():
    # every run is a fresh interpreter, and importing `dataclasses` (which
    # loads `inspect`) and generating each class's methods costs about 15 ms
    # of it, so record classes are plain classes with their own `__init__`
    imports = []
    for mod, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imports += [f"{mod}.py:{node.lineno}" for name in names if name.split(".")[0] == "dataclasses"]
    assert imports == []


def test_no_call_to_the_builtin_id():
    # a memo keyed by id() must pin its keys' objects and cannot share an
    # entry between equal values, so memos are keyed by value
    calls = [
        f"{mod}.py:{n.lineno}"
        for mod, tree in _trees().items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "id"
    ]
    assert calls == []


def test_only_fincat_reads_the_compose_table():
    # on an all-function carrier the table is a memo of what has been read,
    # so a reader outside `fincat` goes through `comp` or `composite`
    reads = [
        f"{mod}.py:{n.lineno}"
        for mod, tree in _trees().items()
        if mod != "fincat"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr == "compose" and isinstance(n.ctx, ast.Load)
    ]
    assert reads == []


def test_every_module_is_reached_from_the_cli():
    trees = _trees()
    reached, todo = set(), ["cli"]
    while todo:
        mod = todo.pop()
        if mod not in reached:
            reached.add(mod)
            todo += sorted(_local_imports(trees[mod]) & set(trees))
    assert sorted(set(trees) - reached - {"__init__"}) == []


def _args_read(fn: ast.FunctionDef) -> set[str]:
    return {
        n.attr
        for n in ast.walk(fn)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
    }


def _leaves(commands: dict, path: tuple = ()):
    """(command path, function, arguments) of every subcommand."""
    for name, (_, *body) in commands.items():
        if isinstance(body[0], dict):
            yield from _leaves(body[0], path + (name,))
        else:
            yield (path + (name,), *body)


def test_every_declared_argument_is_read():
    # a flag its function never reads would be accepted and take no effect
    from corrkit import cli

    functions = {n.name: n for n in _trees()["cli"].body if isinstance(n, ast.FunctionDef)}
    unread = []
    for path, func, arguments in _leaves(cli._COMMANDS):
        read = _args_read(functions[func.__name__])
        for arg in arguments:
            flag = arg if isinstance(arg, str) else arg[0]
            if flag.lstrip("-").replace("-", "_") not in read:
                unread.append(" ".join(path + (flag,)))
    assert unread == []


def test_every_readme_command_parses():
    # a documented command the parser refuses is a stale example
    from corrkit import cli

    lines = [line for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines() if line.startswith("corrkit ")]
    refused = []
    for line in lines:
        argv = shlex.split(line.split("#", 1)[0])[1:]
        try:
            cli.build_parser(argv).parse_args(argv)
        except SystemExit:
            refused.append(line)
    assert lines and refused == []


def test_only_run_runs_a_suite():
    # `run --input F` and `run --instance N --suite S` are the one front end
    # of each suite; a subcommand that named one would run it a second time
    # under another name
    named = [
        f"{fn.name} names {n.id}"
        for fn in _trees()["cli"].body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_") and fn.name != "_cmd_run"
        for n in ast.walk(fn)
        if isinstance(n, ast.Name) and re.fullmatch(r"_\w+_suite", n.id)
    ]
    assert named == []


def _names(node: ast.AST) -> Counter:
    """Every identifier the node mentions: names, attributes, imported
    names, and dotted identifiers inside strings."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(part for part in n.value.split(".") if part.isidentifier())
        elif isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
    return out


def _is_dunder(node: ast.AST) -> bool:
    return isinstance(node, ast.FunctionDef) and node.name.startswith("__")


def _index(trees: dict[str, ast.Module]) -> dict[str, dict]:
    """Name -> {qualified name: node} of every top-level function and class
    ("def"), and of every method but the dunders ("method")."""
    index = {"def": {}, "method": {}}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                index["def"].setdefault(node.name, {})[f"{mod}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not _is_dunder(m):
                        index["method"].setdefault(m.name, {})[f"{mod}.{node.name}.{m.name}"] = m
    return index


def _run(node: ast.AST):
    """`node` and every node under it but annotations, which every module
    leaves unevaluated (`from __future__ import annotations`)."""
    todo = [node]
    while todo:
        n = todo.pop()
        yield n
        for field, value in ast.iter_fields(n):
            if field not in ("annotation", "returns"):
                todo += [v for v in (value if isinstance(value, list) else [value]) if isinstance(v, ast.AST)]


def _code(node: ast.AST):
    """The nodes that run when `node` is reached: all of a function, and of
    a class all but its methods other than the dunders, which Python calls
    implicitly."""
    if not isinstance(node, ast.ClassDef):
        yield from _run(node)
        return
    for part in (*node.bases, *node.keywords, *node.decorator_list, *node.body):
        if _is_dunder(part) or not isinstance(part, ast.FunctionDef):
            yield from _run(part)


def _definitions(index: dict) -> dict:
    """{qualified name: node} of every definition in the index."""
    return {qual: d for kind in index.values() for defs in kind.values() for qual, d in defs.items()}


def _entry(index: dict, name: str) -> dict:
    """{qualified name: node} of what the OFF_PATH entry `name` lists."""
    *cls, attr = name.split(".")
    found = index["method" if cls else "def"].get(attr, {})
    return {qual: d for qual, d in found.items() if qual.endswith(f".{name}")}


def _reach(index: dict, roots: list, reached: frozenset = frozenset()) -> set[str]:
    """`reached` and the qualified name of every definition the code of
    `roots` reaches.  Reached code reaches each top-level definition it
    names, as a name or as an attribute, and each method it reads as an
    attribute; a string reaches nothing."""
    reached, todo = set(reached), list(roots)
    while todo:
        for n in _code(todo.pop()):
            if isinstance(n, ast.Name):
                found = index["def"].get(n.id, {})
            elif isinstance(n, ast.Attribute):
                found = {**index["def"].get(n.attr, {}), **index["method"].get(n.attr, {})}
            else:
                continue
            for qual, d in found.items():
                if qual not in reached:
                    reached.add(qual)
                    todo.append(d)
    return reached


@functools.cache
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _reason_holds(name: str, reason: str) -> bool:
    """Whether the reader `reason` names really keeps `name`."""
    kind, _, number = reason.rpartition(" ")
    name = name.rsplit(".", 1)[-1]
    if kind == "acceptance criterion":
        tree = _parse(ROOT / "tests" / "test_acceptance.py")
        prefix = f"test_criterion_{int(number):02d}_"
        code = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith(prefix)]
        # the criterion and the helpers of its own module that it calls
        index = _index({"acceptance": tree})
        code += [_definitions(index)[qual] for qual in _reach(index, code)]
        return any(_names(node)[name] for node in code)
    if kind == "ROADMAP item":
        items = (ROOT / "ROADMAP.md").read_text(encoding="utf-8").split("## Open items", 1)[1]
        # an open item starts with its bold title, a done one with "*Done",
        # and an item runs to the next
        item = re.search(rf"^{number}\. \*\*.*?(?=^\d+\. |\Z)", items, re.MULTILINE | re.DOTALL)
        return item is not None and f"`{name}`" in item.group()
    if reason == "benchmark writer":
        return any(_names(_parse(p))[name] for p in sorted((ROOT / "perfbench").glob("*.py")))
    return False


def test_every_definition_is_reached_from_the_cli_or_kept_off_its_path():
    # the walk starts at `main` and at each module's top-level code but its
    # imports (`_COMMANDS`, `corpus._INSTANCES`, `serialization._LOADERS`);
    # what it misses is an entry of OFF_PATH or reached from one
    trees = _trees()
    index = _index(trees)
    definitions = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.ClassDef)
    top = [n for tree in trees.values() for n in tree.body if not isinstance(n, definitions)]
    cli = _reach(index, top + [index["def"]["main"]["cli.main"]], frozenset({"cli.main"}))
    listed = {name: _entry(index, name) for name in OFF_PATH}
    # what each entry reaches beyond the CLI, itself included
    beyond = {name: _reach(index, list(defs.values()), cli) - cli | set(defs) for name, defs in listed.items()}
    assert sorted(set(_definitions(index)) - cli - set().union(*beyond.values())) == []
    # an entry that lists no definition, or one that the CLI or another
    # entry reaches, is stale
    stale = [
        name
        for name, defs in listed.items()
        if not defs or set(defs) & cli or any(set(defs) & beyond[other] for other in OFF_PATH if other != name)
    ]
    assert stale == []
    assert [name for name, reason in OFF_PATH.items() if not _reason_holds(name, reason)] == []


def _resolves(module: str, path: str) -> bool:
    """Whether `path`, dotted, names something in the module `module`: an
    attribute, or a submodule that imports."""
    try:
        obj = importlib.import_module(module)
        for part in filter(None, path.split(".")):
            obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(f"{obj.__name__}.{part}")
    except (AttributeError, ImportError):
        return False
    return True


def _tracer_tables(tracer: ast.Module) -> dict:
    """The tracer's `TARGETS` and `MODULES` tables, read without running it."""
    return {
        t.id: ast.literal_eval(n.value)
        for n in tracer.body
        if isinstance(n, ast.Assign)
        for t in n.targets
        if isinstance(t, ast.Name) and t.id in ("TARGETS", "MODULES")
    }


def test_what_perfbench_reads_from_src_resolves():
    # `perfbench/` changes only with the benchmark, and the walk above
    # gives the tracer's strings no reach: this keeps a refactor of `src`
    # from breaking `--trace 1` or the workload writers unseen
    from corrkit.setups import skeleton_setup

    unresolved = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = _parse(path)
        modules = {}  # name bound to a corrkit module -> that module
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "corrkit":
                for a in n.names:
                    if not _resolves(n.module, a.name):
                        unresolved.append(f"{path.name}: {n.module}.{a.name}")
                    if _resolves(f"{n.module}.{a.name}", ""):
                        modules[a.asname or a.name] = f"{n.module}.{a.name}"
            elif isinstance(n, ast.Import):
                modules.update({a.asname or a.name: a.name for a in n.names if a.name.split(".")[0] == "corrkit"})
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules:
                if not _resolves(modules[n.value.id], n.attr):
                    unresolved.append(f"{path.name}: {modules[n.value.id]}.{n.attr}")
    tracer = _parse(ROOT / "perfbench" / "tracer.py")
    tables = _tracer_tables(tracer)
    # `install` wraps a function as its module holds it and a method as its
    # class holds it, and reads modules by name off a table of MODULES
    for mod, target, _ in tables["TARGETS"]:
        module = importlib.import_module(f"corrkit.{mod}")
        owner, _, attr = target.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        if holder is None or attr not in vars(holder):
            unresolved.append(f"tracer.py: corrkit.{mod}.{target}")
    unresolved += [f"tracer.py: corrkit.{mod}" for mod in tables["MODULES"] if not _resolves(f"corrkit.{mod}", "")]
    for n in ast.walk(tracer):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Subscript):
            mod = getattr(n.value.slice, "value", None)
            if mod in tables["MODULES"] and not _resolves(f"corrkit.{mod}", n.attr):
                unresolved.append(f"tracer.py: corrkit.{mod}.{n.attr}")
    assert unresolved == []
    # the tracer's memo probe reads a setup's view of the pullback memo
    assert "_oracle" in vars(skeleton_setup(1))


def test_a_post_init_hook_is_kept_only_where_the_tracer_times_it():
    # a class builds and validates in its `__init__`; a hook of its own is
    # kept only where `perfbench/tracer.py` wraps it by name, and is called
    # on every path that builds the class, so the tracer times every build
    timed = {
        (mod, target)
        for mod, target, _ in _tracer_tables(_parse(ROOT / "perfbench" / "tracer.py"))["TARGETS"]
        if target.endswith(".__post_init__")
    }
    hooks, calls = set(), {}  # calls: (module, Class.method) -> attribute names it calls
    for mod, tree in _trees().items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for m in cls.body:
                if isinstance(m, ast.FunctionDef):
                    if m.name == "__post_init__":
                        hooks.add((mod, f"{cls.name}.__post_init__"))
                    calls[(mod, f"{cls.name}.{m.name}")] = {
                        n.func.attr for n in ast.walk(m) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    }
    assert sorted(hooks - timed) == [], "a hook the tracer does not time: merge it into `__init__`"
    assert sorted(timed - hooks) == [], "a tracer target that names no hook"
    # `FiniteLattice._at_positions` builds a lattice without `__init__`
    builders = {"FiniteLattice": ("__init__", "_at_positions")}
    uncalled = []
    for mod, hook in sorted(timed):
        cls = hook.partition(".")[0]
        for builder in builders.get(cls, ("__init__",)):
            if "__post_init__" not in calls.get((mod, f"{cls}.{builder}"), ()):
                uncalled.append(f"{mod}.{cls}.{builder}")
    assert uncalled == [], "a builder that skips its class's timed hook"


def _namers(name: str) -> list[str]:
    """`module.definition` for each top-level definition in the package,
    other than `name`'s own, that names `name`, and `module` for module-level
    code that does (an import, say)."""
    out = []
    for mod, tree in _trees().items():
        for node in tree.body:
            if getattr(node, "name", None) != name and _names(node)[name]:
                out.append(f"{mod}.{node.name}" if hasattr(node, "name") else mod)
    return out


def test_one_function_of_the_cli_gates_a_factorization_setup():
    # the theorem suite, `shriek build` and `search nagata` refuse on the
    # same checks only if one function runs them for all three
    checks = ("check_nagata", "verify_hypotheses", "check_class_consistency")
    assert {check: _namers(check) for check in checks} == {check: ["cli._gated_shriek"] for check in checks}


def test_one_routine_reports_a_sub_setup():
    # a factorization setup's classes and a pair's four setups are judged
    # by one verdict; only the setup suite reports the whole check
    assert _namers("check_geometric_setup") == ["cli._setup_suite", "setups.merge_sub_setup"]


def _callers(callee: str) -> list[str]:
    """`module.function`, `module.Class.method` or `module.Class` for each
    call of `callee` in the package, by name or as an attribute, and
    `module` for a call in module-level code."""
    out = []
    for mod, tree in _trees().items():
        scopes = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    name = f"{node.name}.{m.name}" if isinstance(m, ast.FunctionDef) else node.name
                    scopes.append((f"{mod}.{name}", m))
            elif isinstance(node, ast.FunctionDef):
                scopes.append((f"{mod}.{node.name}", node))
            else:
                scopes.append((mod, node))
        for where, scope in scopes:
            for n in ast.walk(scope):
                if isinstance(n, ast.Call) and callee in (getattr(n.func, "id", None), getattr(n.func, "attr", None)):
                    out.append(where)
    return out


def test_only_the_pair_declaration_builds_an_atlas():
    # a pair declares its carrier, cover class and small objects once; an
    # atlas built anywhere else could hold other ones
    assert _callers("Atlas") == ["descent.PairDeclaration.__init__"]


def test_one_error_for_malformed_input_and_one_for_a_carrier_gap():
    # a carrier gap is a resource limit, never malformed input: neither
    # class may catch the other's errors
    errors = {
        (cls.__module__, cls.__name__): cls
        for mod in _trees()
        for cls in vars(importlib.import_module(f"corrkit.{mod}")).values()
        if isinstance(cls, type) and issubclass(cls, BaseException) and cls.__module__.startswith("corrkit.")
    }
    assert sorted(errors) == [("corrkit.report", "MalformedInputError"), ("corrkit.report", "ResourceLimitError")]
    malformed, limit = (errors[k] for k in sorted(errors))
    assert not issubclass(malformed, limit) and not issubclass(limit, malformed)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _inside(node: ast.AST, stop: tuple):
    """Every node under `node`, entering no node of the types in `stop`."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, stop):
            todo.extend(ast.iter_child_nodes(n))


def _mentions_witness(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Name) and "witness" in n.id for n in ast.walk(node))


def _is_literal(node: ast.AST | None) -> bool:
    """A dict, tuple or string written out where it is returned."""
    return isinstance(node, (ast.Dict, ast.Tuple, ast.JoinedStr)) or (
        isinstance(node, ast.Constant) and isinstance(node.value, str)
    )


def _hand_written_scans(trees: dict[str, ast.Module]) -> tuple[list[str], set[str]]:
    """The `if`s on a witness that break (as module:line), and the top-level
    definitions holding a `for` loop that keeps a witness and breaks, or,
    outside a nested function, returns a literal from its own body."""
    ladders, loops = [], set()
    for mod, tree in trees.items():
        for top in tree.body:
            # a top-level function's nodes, or its class's and each method's,
            # outside the functions nested in them
            scopes = top.body if isinstance(top, ast.ClassDef) else [top]
            own = {n for scope in scopes for n in (scope, *_inside(scope, _FUNCTIONS))}
            for node in ast.walk(top):
                if isinstance(node, ast.If) and _mentions_witness(node.test):
                    if any(isinstance(stmt, ast.Break) for stmt in node.body):
                        ladders.append(f"{mod}.py:{node.lineno}")
                if not isinstance(node, ast.For):
                    continue
                # the loop's own breaks, the witnesses its body keeps, and
                # the literals it returns
                body = list(_inside(node, _FUNCTIONS))
                breaks = any(isinstance(n, ast.Break) for n in _inside(node, _FUNCTIONS + (ast.For, ast.While)))
                targets = [
                    t
                    for n in body
                    if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                    for t in getattr(n, "targets", [getattr(n, "target", None)])
                ]
                keeps = breaks and any(isinstance(t, ast.Name) and t.id.endswith("witness") for t in targets)
                returns = node in own and any(isinstance(n, ast.Return) and _is_literal(n.value) for n in body)
                if keeps or returns:
                    loops.add(f"{mod}.{getattr(top, 'name', '<module>')}")
    return ladders, loops


def test_no_first_witness_loop_is_written_by_hand():
    ladders, loops = _hand_written_scans(_trees())
    assert ladders == []
    assert sorted(loops) == sorted(WITNESS_LOOPS) and len(WITNESS_LOOPS) <= 5


def test_a_loop_that_returns_its_witness_is_seen():
    # a sixth scan that returns its witness from inside its loop, next to
    # one that reports through a nested case function
    source = """
def first_odd(xs):
    for x in xs:
        if x % 2:
            return {"x": x}
    return None

def swept(rep, xs):
    def case(x):
        for y in xs:
            if x == y:
                return ("repeat", y)
    rep.sweep("distinct", xs, lambda x: case(x) and {"x": x})
"""
    trees = {**_trees(), "extra": ast.parse(source)}
    assert _hand_written_scans(trees)[1] - set(WITNESS_LOOPS) == {"extra.first_odd"}


def _functions(tree: ast.Module):
    """(qualified name, node) of each top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, ast.FunctionDef))


def _stored(node: ast.AST) -> list[str]:
    """The attribute names `X.name` that `node` stores into, by item
    assignment or by `setdefault` and `update`."""
    targets = []
    for n in ast.walk(node):
        if isinstance(n, ast.Assign):
            targets += [t.value for t in n.targets if isinstance(t, ast.Subscript)]
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in ("setdefault", "update"):
            targets.append(n.func.value)
    return [t.attr for t in targets if isinstance(t, ast.Attribute)]


def test_each_carrier_memo_has_one_writer():
    # a value the carrier determines (a pullback, a frame system, a Čech
    # nerve, a setup's verdict) is built once per carrier only if it is
    # memoized on the carrier and stored by one function; a setup keeps no
    # memo but `_oracle`, its view of the carrier's pullbacks, which
    # perfbench's tracer reads
    trees = _trees()
    (init,) = (f for name, f in _functions(trees["setups"]) if name == "GeometricSetup.__init__")
    assigned = [
        t.attr
        for n in ast.walk(init)
        if isinstance(n, (ast.Assign, ast.AnnAssign))
        for target in getattr(n, "targets", [getattr(n, "target", None)])
        for t in ast.walk(target)
        if isinstance(t, ast.Attribute)
    ]
    assert [name for name in assigned if name.startswith("_")] == ["_oracle"]

    (carrier,) = (n for n in trees["fincat"].body if isinstance(n, ast.ClassDef) and n.name == "FinCategory")
    memos = [
        f.name
        for f in carrier.body
        if isinstance(f, ast.FunctionDef)
        and any(isinstance(d, ast.Name) and d.id == "cached_property" for d in f.decorator_list)
        and isinstance(f.body[-1], ast.Return) and isinstance(f.body[-1].value, ast.Dict) and not f.body[-1].value.keys
    ]
    writers = {memo: [] for memo in memos}
    for mod, tree in trees.items():
        for name, fn in _functions(tree):
            for attr in set(_stored(fn)):
                memo = "_pullbacks" if attr == "_oracle" else attr
                if memo in writers:
                    writers[memo].append(f"{mod}.{name}")
    assert writers == {
        "_memo": ["fincat.FinCategory.comp"],
        "_pullbacks": ["setups.GeometricSetup.pullback_opt"],
        "_systems": ["lattices.frame_system"],
        "_nerves": ["descent.cech_nerve"],
        "_verdicts": ["setups.check_geometric_setup"],
    }


def _hand_groupings(trees: dict[str, ast.Module]) -> set[str]:
    """The top-level functions and methods, nested functions included, that
    call `.append` on a `.setdefault(k, [])`."""
    found = set()
    for mod, tree in trees.items():
        for name, fn in _functions(tree):
            for n in ast.walk(fn):
                if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "append"):
                    continue
                inner = n.func.value
                if (
                    isinstance(inner, ast.Call)
                    and getattr(inner.func, "attr", None) == "setdefault"
                    and len(inner.args) == 2
                    and isinstance(inner.args[1], ast.List)
                    and not inner.args[1].elts
                ):
                    found.add(f"{mod}.{name}")
    return found


def test_a_grouping_index_is_built_by_hand_only_where_listed():
    # one grouping routine, `fincat._group`; descent's restriction and
    # level indexes read it
    assert _hand_groupings(_trees()) == {"fincat._group", *HAND_GROUPINGS} and len(HAND_GROUPINGS) <= 3


def test_a_grouping_index_built_by_hand_is_seen():
    source = """
def by_parity(xs):
    index = {}
    for x in xs:
        index.setdefault(x % 2, []).append(x)
    return index

class Nerve:
    def faces(self, ds):
        def inner():
            out = {}
            for d in ds:
                out.setdefault(d.src, []).append(d)
        return inner
"""
    trees = {**_trees(), "extra": ast.parse(source)}
    assert _hand_groupings(trees) - _hand_groupings(_trees()) == {"extra.by_parity", "extra.Nerve.faces"}
