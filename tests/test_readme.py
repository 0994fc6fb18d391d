"""The README's examples run as printed."""
from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import ncpower

README = Path(__file__).parent.parent / "README.md"


def test_python_api_example_prints_its_comment(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out == "37555.0 0.3\n"


def test_backticked_module_names_exist():
    # every `module.name` the README cites is an attribute of ncpower.module,
    # so removing a public name without mending the README fails here
    modules = {info.name for info in pkgutil.iter_modules(ncpower.__path__)}
    cited = [
        (module, name)
        for module, name in re.findall(r"`(\w+)\.(\w+)`", README.read_text())
        if module in modules
    ]
    assert cited
    missing = [
        f"{module}.{name}"
        for module, name in cited
        if not hasattr(importlib.import_module(f"ncpower.{module}"), name)
    ]
    assert missing == []
