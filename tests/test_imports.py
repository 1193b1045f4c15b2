"""What the package's modules import.

Every name a package, test or demo module imports is used in that module.  No
linter ships with the project, so a scan stands in for one: it parses each
source file, collects the names its import statements bind (``from
__future__`` aside) and fails on any the module never reads, counting the
names inside quoted annotations as read.

Every function, class and method the package defines is loaded by the
package, a demo, a benchmark workload or a test oracle (a
``tests/*_reference.py`` module), so no API lives on for unit tests alone.
A method is loaded only as an attribute or a ``getattr`` string, so a local
variable of the same name does not count; a static method whose name another
class also defines only as ``Owner.m``.

The CLI loads only the layers a command runs: each check starts a fresh
interpreter and reads ``sys.modules`` after the import or the command.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lambdatrees"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "demos").glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}",
)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_plain_and_quoted_uses():
    source = (
        "from __future__ import annotations\n"
        "import os, json as j\n"
        "from typing import Dict, List, Optional\n"
        "def f(x: 'Optional[Dict]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(2, "j"), (3, "List")]


def definitions(source, module):
    """(qualified name, name, owning class, static) of each function, class and
    method, dunders aside; the owner is None outside a class."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in node.decorator_list)
                    found.append((module + "." + (owner + "." if owner else "") + node.name,
                                  node.name, owner, static))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, node.name)

    visit(ast.parse(source).body, None)
    return found


def loaded_names(source):
    """What a module reads: ``n`` for a name, imported name or string constant,
    ``.m`` for an attribute or a ``getattr`` string, and ``C.m`` for an
    attribute of a name, read through the import's alias."""
    tree = ast.parse(source)
    alias = {a.asname: a.name.split(".")[-1] for a in ast.walk(tree)
             if isinstance(a, ast.alias) and a.asname}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add("." + node.attr)
            if isinstance(node.value, ast.Name):
                names.add(alias.get(node.value.id, node.value.id) + "." + node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)):
            names.add("." + str(node.args[1].value))
    return names


def uncalled(modules, callers):
    """Qualified names of the definitions in ``modules`` ((name, source) pairs)
    that no source in ``callers`` loads.

    A function or class is loaded by its name, as an attribute or as a string.
    A method only as an attribute or a ``getattr`` string, and a static method
    whose name another class also defines only as ``Owner.m``.
    """
    used = set().union(*(loaded_names(source) for source in callers))
    found = [d for module, source in modules for d in definitions(source, module)]
    owners = {}
    for _, name, owner, _ in found:
        if owner is not None:
            owners.setdefault(name, set()).add(owner)
    unused = []
    for qualified, name, owner, static in found:
        if owner is None:
            keys = {name, "." + name}
        elif static and len(owners[name]) > 1:
            keys = {owner + "." + name}
        else:
            keys = {"." + name}
        if not keys & used:
            unused.append(qualified)
    return unused


def caller_files():
    """The package, the demos, the benchmark outside its own tests, and the test oracles."""
    files = list((ROOT / "src").rglob("*.py")) + list((ROOT / "demos").glob("*.py"))
    files += list((ROOT / "perfbench").glob("*.py"))
    files += list((ROOT / "perfbench" / "workloads").rglob("*.py"))
    return files + list((ROOT / "tests").glob("*_reference.py"))


def test_every_definition_has_a_caller_outside_unit_tests():
    modules = [(path.stem, path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    assert uncalled(modules, [path.read_text() for path in caller_files()]) == []


def test_the_definition_scan_sees_every_kind_of_load():
    source = (
        "class A:\n"
        "    def m(self): pass\n"
        "    def __repr__(self): pass\n"
        "    def local(self): pass\n"
        "    @staticmethod\n"
        "    def make(): pass\n"
        "    @staticmethod\n"
        "    def build(): pass\n"
        "class C:\n"
        "    @staticmethod\n"
        "    def make(): pass\n"
        "    @staticmethod\n"
        "    def build(): pass\n"
        "def f(): pass\n"
        "def g(): pass\n"
        "def h(): pass\n"
        "def k(): pass\n"
    )
    assert [q for q, *_ in definitions(source, "mod")] == [
        "mod.A", "mod.A.m", "mod.A.local", "mod.A.make", "mod.A.build",
        "mod.C", "mod.C.make", "mod.C.build", "mod.f", "mod.g", "mod.h", "mod.k"]
    caller = (
        "from mod import A as B, C\n"
        "B().m()\n"
        "getattr(B, 'f')\n"
        "h = 1\n"
        "local = 2\n"
        "print(local)\n"
        "C.make()\n"
        "B.build()\n"
        "C.build()\n"
    )
    # a method read only as a local variable, and a static method read only
    # through another class that defines its name, are flagged
    assert uncalled([("mod", source)], [caller]) == ["mod.A.local", "mod.A.make", "mod.g",
                                                     "mod.h", "mod.k"]


def modules_loaded(script):
    """The package modules a fresh interpreter holds after running ``script``."""
    probe = script + (
        "\nimport sys\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'lambdatrees'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return {name.replace("lambdatrees.", "") for name in proc.stdout.split()}


def test_importing_the_cli_loads_no_library_layer():
    assert modules_loaded("import lambdatrees.cli") == {"lambdatrees", "cli", "errors"}


LINE_TREE = {
    "group": {"rank": 1},
    "vertices": ["u", "v"],
    "edges": [{"a": "u", "b": "v", "len": ["1"]}],
}

# command, payload, a module it must load, the modules it must not load
FAMILIES = {
    "tree-distance": (
        {"tree": LINE_TREE, "p": "u", "q": "v"},
        "tree", {"valuation", "sl2", "isometry", "lengths", "graph_of_groups"}),
    "sl2-act": (
        {"field": {"field": "Q", "p": 2}, "matrix": ["2", "0", "0", "1/2"]},
        "sl2", {"tree", "isometry", "lengths", "graph_of_groups"}),
    "schreier-rank": (
        {"rank": 2, "action": {"degree": 2, "perms": {"a": [2, 1], "b": [1, 2]}}},
        "graph_of_groups", {"ordered", "tree", "valuation", "sl2", "lengths"}),
}


@pytest.mark.parametrize("command", sorted(FAMILIES))
def test_a_command_loads_only_its_own_layers(tmp_path, command):
    payload, needed, foreign = FAMILIES[command]
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"command": command, "payload": payload}))
    argv = ["--task", str(task), "--out", str(tmp_path / "result.json")]
    loaded = modules_loaded(f"from lambdatrees import cli\nassert cli.main({argv!r}) == 0")
    assert needed in loaded
    assert loaded & foreign == set()
