"""Module layering: each module of the package imports only modules of the
layers below it, so the samplers sit below the decoders and nothing but
``__main__`` reaches the CLI."""

import ast
from pathlib import Path

import pytest

import symrank

LAYERS = ("gf", "linalg", "qpoly", "bilinear", "channel", "gabidulin", "symdec", "cli")
PACKAGE = Path(symrank.__file__).parent


def _package_imports(name: str) -> set[str]:
    """The package modules that module ``name`` imports, relative or
    absolute, anywhere in its source."""
    out = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] == "symrank" and len(parts) > 1:
                out.add(parts[1])
        elif node.module:
            out.add(node.module.split(".")[0])
        else:
            out.update(alias.name for alias in node.names)
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_module_imports_only_lower_layers(name):
    assert _package_imports(name) <= set(LAYERS[:LAYERS.index(name)])


@pytest.mark.parametrize("name", LAYERS)
def test_int_bytes_calls_pass_their_byteorder(name):
    # int.to_bytes and int.from_bytes take byteorder as their second
    # argument; it has no default before Python 3.11
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("to_bytes", "from_bytes")):
            assert len(node.args) >= 2 or any(
                kw.arg == "byteorder" for kw in node.keywords), (
                f"{name}.py:{node.lineno} {node.func.attr} without byteorder")
