"""The package exports each module's __all__ once, and every export is used or documented."""

import ast
import re
from pathlib import Path

import framex

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "framex"
MODULES = ("errors", "linalg", "frames", "selectors", "sampling", "extraction", "pointsets", "timefreq")


def _module_exports():
    return {name: getattr(framex, name).__all__ for name in MODULES}


def _references(exports):
    """Load-context uses of each exported name in src/, outside its own definition.

    A use is a bare name or `module.name` for a framex module; import lines,
    the __all__ string lists and the body of the defining statement do not count.
    """
    used = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = set(exports.get(path.stem, ()))
        spans = {
            node.name: (node.lineno, node.end_lineno)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in own
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in MODULES:
                name = node.attr
            else:
                continue
            start, end = spans.get(name, (0, -1))
            if not start <= node.lineno <= end:
                used.add(name)
    return used


def _readme_code_names():
    """Identifiers inside README code spans and fenced blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", " ".join(code)))


def test_package_all_is_the_union_of_module_lists():
    exports = _module_exports()
    union = [name for names in exports.values() for name in names]
    assert len(union) == len(set(union)), "a name is exported by two modules"
    assert sorted(framex.__all__) == sorted(["__version__", *union])
    for name in framex.__all__:
        assert hasattr(framex, name), name


def test_public_surface_size():
    # a name added or removed moves this count on purpose
    assert len(framex.__all__) == 72
    assert "REPLICA_BUDGET" not in framex.__all__


def test_every_export_is_used_in_src_or_named_in_readme():
    exports = _module_exports()
    names = {name for names in exports.values() for name in names}
    unjustified = sorted(names - _references(exports) - _readme_code_names())
    assert unjustified == []


def test_cli_imports_no_private_name_from_another_module():
    """The command line reaches the library through public names only."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("framex"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []
