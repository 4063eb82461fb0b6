"""Every top-level function and class of the package is reachable by
name from what runs: cli.main, the run functions of cli._COMMANDS, and
the names perfbench/trace_job.py patches or reads.  A name only tests
reach is dead code; it belongs in a test oracle, or nowhere."""

import ast
from pathlib import Path

import schur_orbits

PACKAGE = Path(schur_orbits.__file__).parent
TRACE_JOB = Path(__file__).resolve().parents[1] / "perfbench" / "trace_job.py"


def _trees():
    return {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}


def _bindings(trees):
    """Per module: {local name: (module, name)} for the names it imports
    from the package, and {local name: module} for the package modules
    it imports, at any depth of the module."""
    names, modules = {}, {}
    for mod, tree in trees.items():
        names[mod], modules[mod] = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("schur_orbits")):
                source = (node.module or "").removeprefix("schur_orbits")
                source = source.lstrip(".") or None
                for alias in node.names:
                    local = alias.asname or alias.name
                    if source is None and alias.name in trees:
                        modules[mod][local] = alias.name
                    else:
                        names[mod][local] = (source or "__init__", alias.name)
    return names, modules


def _definitions(trees):
    """{(module, name): node} of every top-level def, class and assigned
    name."""
    defs = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[mod, name.id] = node
    return defs


def _references(mod, node, defs, names, modules):
    """The definitions that node's names and module attributes name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if (mod, sub.id) in defs:
                yield mod, sub.id
            elif sub.id in names[mod]:
                yield names[mod][sub.id]
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in modules[mod]):
            yield modules[mod][sub.value.id], sub.attr


def _trace_roots():
    """(module, name) of every package name trace_job.py patches through
    _patch or reads as an attribute of a package module."""
    tree = ast.parse(TRACE_JOB.read_text())
    mods = {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "schur_orbits"
            for alias in node.names}
    roots = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_patch"
                and isinstance(node.args[0], ast.Name)):
            roots.add((node.args[0].id, node.args[1].value))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in mods):
            roots.add((node.value.id, node.attr))
    return roots


def _reachable():
    trees = _trees()
    defs = _definitions(trees)
    names, modules = _bindings(trees)
    # the module body of cli runs main; _COMMANDS holds the run functions
    todo = [("cli", "main"), ("cli", "_COMMANDS"), *_trace_roots()]
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen or key not in defs:
            continue
        seen.add(key)
        todo.extend(_references(key[0], defs[key], defs, names, modules))
    return defs, seen


def test_trace_roots_are_found():
    roots = _trace_roots()
    assert {("cli", "main"), ("cli", "_COMMANDS"), ("groups", "build_group"),
            ("fastorbits", "closed_orbit_scan"),
            ("homology", "H2Group")} <= roots


def test_every_function_and_class_is_reachable_from_a_command():
    defs, seen = _reachable()
    dead = sorted(f"{mod}.{name}" for (mod, name), node in defs.items()
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and (mod, name) not in seen)
    assert dead == []
