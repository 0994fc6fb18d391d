"""The CLI's stdout, stderr and exit code on a fixed argv corpus, pinned.

The golden CSVs hold savings figures up to N = 15 only; these pins also hold
coded-pair listings, bounds reports above N = 15, a mixed-volume mesh and a
grid-corners instance, so a tie-break that moves a pair but keeps the
savings fails here.  ``tests/data/cli_pins.json`` stores each output in full
when it is at most FULL_TEXT_LIMIT characters, so a failure shows a diff, and
as its SHA-256 digest and line count when it is longer.

To rewrite the pins after an intended output change, run
``PYTHONPATH=src python tests/test_cli_pins.py``.
"""
from __future__ import annotations

import hashlib
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from conftest import DATA_DIR, grid_topology

from ncpower import cli
from ncpower.model import Demand, Instance, generate_full_mesh, serialize_instance

PINS = DATA_DIR / "cli_pins.json"
FULL_TEXT_LIMIT = 4096
MIXED_VOLUMES = (10.0, 20.0, 40.0)

# "{name}" in an argv stands for the instance file INSTANCE_FILES[name] writes
CORPUS = (
    ("analyze", "--gen", "ring:48"),
    ("analyze", "--gen", "mesh:30"),
    ("analyze", "--gen", "mesh:9", "--budget", "3"),
    ("analyze", "--gen", "ring:7", "--heuristic", "oracle"),
    ("analyze", "--instance", "{arbitrary11}"),
    ("analyze", "--instance", "{grid_corners}"),
    ("analyze", "--instance", "{mixed_mesh20}"),
    ("bounds", "--gen", "ring:60"),
    ("bounds", "--gen", "mesh:60"),
    ("sweep", "--gen", "ring:3:16", "--heuristic", "osh,ww,wp,pw,pp"),
    ("sweep", "--gen", "mesh:3:20", "--heuristic", "osh,ww,wp,pw,pp"),
)


def _grid_corners() -> str:
    """perfbench's grid-corners instance at seed 1: a 6x6 grid, every node to
    nodes 1 and 36, volumes drawn from {10, 20, 40}."""
    rng = random.Random(1)
    demands = tuple(
        Demand(s, t, rng.choice(MIXED_VOLUMES)) for t in (1, 36) for s in range(1, 37) if s != t
    )
    return serialize_instance(Instance(grid_topology(6, 6), demands))


def _mixed_mesh20() -> str:
    """A 20-node full mesh, each demand's volume drawn from {10, 20, 40} in order."""
    mesh = generate_full_mesh(20)
    rng = random.Random(1)
    demands = tuple(Demand(d.source, d.dest, rng.choice(MIXED_VOLUMES)) for d in mesh.demands)
    return serialize_instance(Instance(mesh.topology, demands))


INSTANCE_FILES = {
    "arbitrary11": lambda: (DATA_DIR / "arbitrary11.net").read_text(encoding="utf-8"),
    "grid_corners": _grid_corners,
    "mixed_mesh20": _mixed_mesh20,
}


def _pin(text: str) -> str | dict:
    if len(text) <= FULL_TEXT_LIMIT:
        return text
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "lines": text.count("\n")}


def _outputs(argv: tuple[str, ...], workdir: Path) -> dict:
    """The pinned form of one in-process ``cli.main`` call."""
    args = []
    for arg in argv:
        if arg.startswith("{"):
            name = arg.strip("{}")
            path = workdir / f"{name}.net"
            path.write_text(INSTANCE_FILES[name](), encoding="utf-8")
            arg = str(path)
        args.append(arg)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(args)
    return {"argv": list(argv), "exit": code, "stdout": _pin(out.getvalue()), "stderr": _pin(err.getvalue())}


def _pinned() -> list[dict]:
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[" ".join(a) for a in CORPUS])
def test_cli_outputs_match_pins(index, tmp_path):
    assert _outputs(CORPUS[index], tmp_path) == _pinned()[index]


def test_pins_cover_the_corpus():
    assert [p["argv"] for p in _pinned()] == [list(a) for a in CORPUS]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = [_outputs(argv, Path(tmp)) for argv in CORPUS]
    PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
