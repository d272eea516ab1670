"""Package layout: no unused import, no import of `dataclasses`, no module
the CLI cannot reach, no call to the builtin `id`, no read of the compose
table outside `fincat`, no CLI argument its subcommand does not read, no
subcommand but `run` that runs a suite, one CLI function that gates a
factorization setup, one routine that reports a sub-setup, no definition
that only unit tests name, one exception class for malformed input and one
for a carrier gap, and no first-witness loop written by hand: no `if` on a
witness that breaks, and no `for` loop that keeps a witness and breaks,
outside a short allow-list."""

import ast
import importlib
import re
import shlex
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "corrkit"

# `for` loops that keep a witness by hand and break, each with its reason:
# every other first-witness scan reports through `VerificationReport.sweep`
WITNESS_LOOPS: dict[str, str] = {}

# definitions that only unit tests name, kept on purpose
KEPT_FOR_TESTS = {
    "partial_adjoint_grid": "the partial-adjoints theorem, to be put in the gate (ROADMAP item 2)",
    "pair_to_dict": "round-trip writer for pair envelopes",
    "localization_to_dict": "round-trip writer for localization envelopes",
    "spans_isomorphic": "the reference that span_class_key is tested against",
    "simplex_edge": "test accessor for the spans of a correspondence cell",
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


def _names(node: ast.AST, attributes: bool = False) -> Counter:
    """Every identifier the node mentions: names, attributes, imported
    names, and dotted identifiers inside strings (perfbench's tracer names
    its targets that way).  With `attributes`, only what is read as an
    attribute: `.name`, or a part after a dot inside a string."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            out.update(part for part in parts[1 if attributes else 0 :] if part.isidentifier())
        elif attributes:
            continue
        elif isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
    return out


def _definitions(tree: ast.Module):
    """(definition, is a method): top-level functions and classes, and the
    methods of those classes other than dunders, which Python calls
    implicitly."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            yield from (
                (m, True) for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
            )


def test_every_definition_is_named_outside_the_unit_tests():
    trees = _trees()
    readers = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    modules = list(trees.values()) + [ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in readers]
    # a method is reached only through `.name`: a bare local of the same
    # name does not reach it
    named = {kind: sum((_names(t, kind) for t in modules), Counter()) for kind in (False, True)}
    # a name mentioned only inside its own definition is not reached
    unreached = {
        d.name: mod
        for mod, tree in trees.items()
        for d, method in _definitions(tree)
        if named[method][d.name] == _names(d, method)[d.name]
    }
    assert {name: mod for name, mod in unreached.items() if name not in KEPT_FOR_TESTS} == {}
    assert sorted(unreached) == sorted(KEPT_FOR_TESTS)


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


def test_no_first_witness_loop_is_written_by_hand():
    ladders, loops = [], set()
    for mod, tree in _trees().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.If) and _mentions_witness(node.test):
                    if any(isinstance(stmt, ast.Break) for stmt in node.body):
                        ladders.append(f"{mod}.py:{node.lineno}")
                if not isinstance(node, ast.For):
                    continue
                # the loop's own breaks, and the witnesses its body keeps
                breaks = any(isinstance(n, ast.Break) for n in _inside(node, _FUNCTIONS + (ast.For, ast.While)))
                targets = [
                    t
                    for n in _inside(node, _FUNCTIONS)
                    if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                    for t in getattr(n, "targets", [getattr(n, "target", None)])
                ]
                if breaks and any(isinstance(t, ast.Name) and t.id.endswith("witness") for t in targets):
                    loops.add(f"{mod}.{getattr(top, 'name', '<module>')}")
    assert ladders == []
    assert sorted(loops) == sorted(WITNESS_LOOPS) and len(WITNESS_LOOPS) <= 5
