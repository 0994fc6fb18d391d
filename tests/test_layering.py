"""Each package module imports only the modules below it, at module level."""
from __future__ import annotations

import ast
from pathlib import Path

import ncpower

# lowest layer first: a module may import only the modules before it
LAYERS = ("errors", "model", "routing", "matching", "coding", "power", "oracle", "bounds", "cli")
PACKAGE = Path(ncpower.__file__).parent


def layering_findings() -> list[str]:
    findings = []
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            where = f"{name} imports .{node.module} (line {node.lineno})"
            if id(node) not in top_level:
                findings.append(f"{where} below module level")
            elif node.module not in LAYERS[:rank]:
                findings.append(f"{where} from its own or a higher layer")
    return findings


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_modules_import_only_lower_layers_at_module_level():
    assert layering_findings() == []
