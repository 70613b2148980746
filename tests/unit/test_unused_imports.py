"""No module in ``src/repro`` imports a name it never uses.

A stdlib-``ast`` scan: a name bound by a module-level import must occur
again in the module, as a name or inside a string (a quoted annotation,
an ``__all__`` entry).  Package ``__init__.py`` files are exempt: their
imports are the package's re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _unused(path: Path, root: Path = SRC.parent):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for word in node.value.replace("[", " ").replace("]", " ") \
                    .replace(",", " ").split():
                used.add(word)
    return [f"{path.relative_to(root)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_module_level_imports():
    found = [entry for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py" for entry in _unused(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os\nfrom typing import List, Optional\n"
                      "def f(x: 'Optional[int]'):\n    return os.sep\n")
    assert _unused(module, tmp_path) == ["mod.py:2: List"]
