"""Each package module imports only the modules below it, at module level,
and no name private to the module it comes from; only cli imports fractions."""
from __future__ import annotations

import ast
from pathlib import Path

import ncpower

# lowest layer first: a module may import only the modules before it
LAYERS = ("errors", "model", "routing", "matching", "coding", "power", "oracle", "bounds", "cli")
PACKAGE = Path(ncpower.__file__).parent


def module_tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def package_imports():
    """(rank, module, node, at module level) for each import from the package."""
    for rank, name in enumerate(LAYERS):
        tree = module_tree(name)
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                yield rank, name, node, id(node) in top_level


def layering_findings() -> list[str]:
    findings = []
    for rank, name, node, at_module_level in package_imports():
        where = f"{name} imports .{node.module} (line {node.lineno})"
        if not at_module_level:
            findings.append(f"{where} below module level")
        elif node.module not in LAYERS[:rank]:
            findings.append(f"{where} from its own or a higher layer")
    return findings


def private_name_findings() -> list[str]:
    return [
        f"{name} imports {alias.name} from .{node.module} (line {node.lineno})"
        for _, name, node, _ in package_imports()
        for alias in node.names
        if alias.name.startswith("_")
    ]


def fractions_findings() -> list[str]:
    """Modules other than cli that import ``fractions``.

    Exact sums go through ``model.integer_ratios``; only the CLI's sweep
    parses decimal strings as Fractions.
    """
    findings = []
    for name in LAYERS:
        for node in ast.walk(module_tree(name)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if "fractions" in modules and name != "cli":
                findings.append(f"{name} imports fractions (line {node.lineno})")
    return findings


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_modules_import_only_lower_layers_at_module_level():
    assert layering_findings() == []


def test_no_module_imports_a_private_name():
    assert private_name_findings() == []


def test_only_cli_imports_fractions():
    assert fractions_findings() == []
