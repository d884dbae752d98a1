"""Every function and method the package defines is used by the package.

A definition that only the tests call belongs in ``tests/reference.py``. The
walk counts a name as used when it appears as a name or an attribute
anywhere in ``src/``; an import list names it in ``alias`` nodes, which do
not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eigenbouquet"


def uncalled_definitions(root: Path) -> list[str]:
    """``path:line name`` of each non-dunder function or method under root
    whose name no ast.Name or ast.Attribute under root carries."""
    defined, used = [], set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((node.name, f"{path.relative_to(root)}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{where} {name}" for name, where in defined if name not in used]


def test_every_definition_in_src_is_used_in_src():
    assert uncalled_definitions(SRC) == []


def test_an_import_list_does_not_count_as_a_use(tmp_path):
    (tmp_path / "a.py").write_text("def kept():\n    pass\n\n\ndef dropped():\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import dropped, kept\n\nkept()\n")
    assert uncalled_definitions(tmp_path) == ["a.py:5 dropped"]
