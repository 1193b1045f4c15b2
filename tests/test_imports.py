"""What the package's modules import.

Every name a package or test module imports is used in that module.  No
linter ships with the project, so a scan stands in for one: it parses each
source file, collects the names its import statements bind (``from
__future__`` aside) and fails on any the module never reads, counting the
names inside quoted annotations as read.

Every function, class and method the package defines is loaded by the
package, a demo, a benchmark workload or a test oracle (a
``tests/*_reference.py`` module), so no API lives on for unit tests alone.

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
    sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}",
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
    """(qualified name, name) of each function, class and method, dunders aside."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    found.append((owner + node.name, node.name))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, owner + node.name + ".")

    visit(ast.parse(source).body, module + ".")
    return found


def loaded_names(source):
    """Every name read, attribute read, imported name and string constant."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def caller_files():
    """The package, the demos, the benchmark outside its own tests, and the test oracles."""
    files = list((ROOT / "src").rglob("*.py")) + list((ROOT / "demos").glob("*.py"))
    files += list((ROOT / "perfbench").glob("*.py"))
    files += list((ROOT / "perfbench" / "workloads").rglob("*.py"))
    return files + list((ROOT / "tests").glob("*_reference.py"))


def test_every_definition_has_a_caller_outside_unit_tests():
    used = set().union(*(loaded_names(path.read_text()) for path in caller_files()))
    unused = [qualified
              for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in definitions(path.read_text(), path.stem)
              if name not in used]
    assert unused == []


def test_the_definition_scan_sees_every_kind_of_load():
    source = (
        "class A:\n"
        "    def m(self): pass\n"
        "    def __repr__(self): pass\n"
        "def f(): pass\n"
        "def g(): pass\n"
        "def h(): pass\n"
        "def k(): pass\n"
    )
    assert [q for q, _ in definitions(source, "mod")] == ["mod.A", "mod.A.m", "mod.f", "mod.g",
                                                          "mod.h", "mod.k"]
    used = loaded_names("from mod import A as B\nB().m()\ngetattr(B, 'f')\nh = 1\n")
    assert {"A", "m", "f"} <= used and "h" not in used and "g" not in used


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
