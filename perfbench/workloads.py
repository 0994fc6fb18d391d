"""Workload inputs and their correctness checks.

Each workload turns a seed into the argv lists of one pass (one or more
``ncpower.cli.main`` calls) and a check that judges the texts those calls
print.  The references are independent of ``src/``: ring closed forms and
min-hop sums written out here, networkx min-cost flow for grid pair lengths,
and the golden tables under ``tests/data/``.  Nothing here imports ncpower.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# device model defaults of the CLI: (1000 W port + 73 W transponder) / 40 Gbps
SLOPE_W_PER_GBPS = (1000.0 + 73.0) / 40.0

RING_OSH_NODES = 48
BOUNDS_RING_NODES = 1001
UNIFORM_VOLUMES = tuple(float(v) for v in range(10, 401, 10))
GRID_SIDE = 6
GRID_VOLUMES = (10.0, 20.0, 40.0)
REPRO_TABLES = ("mesh-volume", "mesh-sizes", "ring-volume", "ring-sizes")


def fmt(value: float) -> str:
    """The CLI's six-significant-digit number format."""
    return f"{value:.6g}"


@dataclass(frozen=True)
class Plan:
    """One pass of a workload and the check that its printed texts must pass.

    ``check`` takes the stdout of each argv in order and returns the problems
    found; an empty list means the pass is correct.  Every pass of a run must
    also print byte-identical text, which the runner checks.
    """

    argvs: tuple[tuple[str, ...], ...]
    check: Callable[[list[str]], list[str]]


# -- references ---------------------------------------------------------------


def ring_closed_form(n: int, volume: float) -> tuple[float, float, float, str]:
    """(conventional W, coded W, savings fraction, size class) of a uniform ring.

    Conventional 1+1 routing of all-pairs ring traffic uses N^3 - N^2 hops; the
    optimal coded matching removes a shared-hop total fixed by N mod 4.
    """
    hops = n ** 3 - n ** 2
    if n % 2:
        odd1 = (n - 1) // 2 % 2 == 1
        shared = n * (n - 3) * (3 * n - 1) if odd1 else 3 * n * (n - 1) ** 2
        label = "odd-1" if odd1 else "odd-2"
    else:
        even1 = (n - 2) // 2 % 2 == 1
        shared = n * n * (3 * n - 8) if even1 else n * (n - 2) * (3 * n - 2)
        label = "even-1" if even1 else "even-2"
    shared //= 8
    k = SLOPE_W_PER_GBPS
    return k * volume * hops, k * volume * (hops - shared), shared / hops, label


def ring_min_hop_sum(n: int) -> int:
    """Sum of min-hop distances over all ordered node pairs of an n-ring."""
    return n * sum(min(d, n - d) for d in range(1, n))


def grid_edges(side: int) -> list[tuple[int, int]]:
    """Fibres of a side x side grid, nodes numbered row by row from 1."""
    edges = []
    for r in range(side):
        for c in range(side):
            node = r * side + c + 1
            if c + 1 < side:
                edges.append((node, node + 1))
            if r + 1 < side:
                edges.append((node, node + side))
    return edges


def min_disjoint_pair_hops(edges: list[tuple[int, int]], source: int, dest: int) -> int:
    """Fewest total hops of two edge-disjoint source->dest paths (min-cost flow)."""
    import networkx as nx

    graph = nx.DiGraph()
    for u, v in edges:
        graph.add_edge(u, v, capacity=1, weight=1)
        graph.add_edge(v, u, capacity=1, weight=1)
    graph.nodes[source]["demand"] = -2
    graph.nodes[dest]["demand"] = 2
    return nx.min_cost_flow_cost(graph)


# -- output parsing -------------------------------------------------------------

_NUMBER = r"(\S+)"
_ANALYZE_POWER = re.compile(
    rf"^power: total={_NUMBER} W  conventional={_NUMBER} W  "
    rf"reduction={_NUMBER} W  savings={_NUMBER}%$",
    re.MULTILINE,
)
_ANALYZE_BOUNDS = re.compile(rf"^bounds: conventional>={_NUMBER} W  coded>={_NUMBER} W \(per-demand\)", re.MULTILINE)


def _analyze_numbers(text: str) -> tuple[list[str], list[str]] | None:
    power = _ANALYZE_POWER.search(text)
    bounds = _ANALYZE_BOUNDS.search(text)
    if power is None or bounds is None:
        return None
    return list(power.groups()), list(bounds.groups())


def _one_output(outputs: list[str]) -> tuple[str | None, list[str]]:
    if len(outputs) != 1:
        return None, [f"expected one output, got {len(outputs)}"]
    return outputs[0], []


def _expect_line(text: str, line: str) -> list[str]:
    return [] if line in text.splitlines() else [f"missing line {line!r}"]


# -- workloads -------------------------------------------------------------------


def ring_osh(seed: int, workdir: Path, data_dir: Path) -> Plan:
    """osh on a uniform 48-ring: large clusters, blossom-dominated."""
    volume = random.Random(seed).choice(UNIFORM_VOLUMES)
    n = RING_OSH_NODES
    conv, coded, savings, _ = ring_closed_form(n, volume)
    expected_power = [fmt(coded), fmt(conv), fmt(conv - coded), fmt(savings * 100)]
    instance_line = f"instance: nodes={n} fibres={n} demands={n * (n - 1)}"

    def check(outputs: list[str]) -> list[str]:
        text, problems = _one_output(outputs)
        if text is None:
            return problems
        numbers = _analyze_numbers(text)
        if numbers is None:
            return ["power or bounds line missing"]
        if numbers[0] != expected_power:
            problems.append(f"power {numbers[0]} != ring closed form {expected_power}")
        return problems + _expect_line(text, instance_line)

    argv = ("analyze", "--gen", f"ring:{n}", "--volume", fmt(volume))
    return Plan((argv,), check)


def grid_corners(seed: int, workdir: Path, data_dir: Path) -> Plan:
    """osh on a 6x6 grid where every node sends to two opposite corners."""
    rng = random.Random(seed)
    side = GRID_SIDE
    nodes = side * side
    edges = grid_edges(side)
    demands = [
        (s, t, rng.choice(GRID_VOLUMES))
        for t in (1, nodes)
        for s in range(1, nodes + 1)
        if s != t
    ]
    lines = [f"# {side}x{side} grid, all nodes to opposite corners, seed {seed}", f"nodes {nodes}"]
    lines += [f"edge {u} {v}" for u, v in edges]
    lines += [f"demand {s} {t} {v:g}" for s, t, v in demands]
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"grid-corners-{seed}.net"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    conventional = SLOPE_W_PER_GBPS * sum(v * min_disjoint_pair_hops(edges, s, t) for s, t, v in demands)
    instance_line = f"instance: nodes={nodes} fibres={len(edges)} demands={len(demands)}"

    def check(outputs: list[str]) -> list[str]:
        text, problems = _one_output(outputs)
        if text is None:
            return problems
        numbers = _analyze_numbers(text)
        if numbers is None:
            return ["power or bounds line missing"]
        (total, conv, _, _), (_, nc_lower) = numbers
        if conv != fmt(conventional):
            problems.append(f"conventional {conv} != min-cost-flow reference {fmt(conventional)}")
        if not float(nc_lower) <= float(total) <= float(conv):
            problems.append(f"expected nc_lower {nc_lower} <= total {total} <= conventional {conv}")
        return problems + _expect_line(text, instance_line)

    argv = ("analyze", "--instance", str(path))
    return Plan((argv,), check)


def repro(seed: int, workdir: Path, data_dir: Path) -> Plan:
    """The four reference tables; the seed does not change them."""
    golden = [(data_dir / f"{table.replace('-', '_')}.csv").read_text(encoding="utf-8") for table in REPRO_TABLES]

    def check(outputs: list[str]) -> list[str]:
        if len(outputs) != len(golden):
            return [f"expected {len(golden)} tables, got {len(outputs)}"]
        return [
            f"repro {table} differs from its golden table"
            for table, text, want in zip(REPRO_TABLES, outputs, golden)
            if text != want
        ]

    return Plan(tuple(("repro", table) for table in REPRO_TABLES), check)


def bounds_large(seed: int, workdir: Path, data_dir: Path) -> Plan:
    """Closed-form bounds on a 1001-ring: 1,001,000 demands, no heuristic."""
    volume = random.Random(seed).choice(UNIFORM_VOLUMES)
    n = BOUNDS_RING_NODES
    conventional_lower = 2 * SLOPE_W_PER_GBPS * volume * ring_min_hop_sum(n)
    conv, coded, savings, label = ring_closed_form(n, volume)
    expected = [
        f"conventional_lower: {fmt(conventional_lower)} W",
        f"closed_form: conventional={fmt(conv)} W coded={fmt(coded)} W "
        f"savings={fmt(savings * 100)}% class={label}",
    ]

    def check(outputs: list[str]) -> list[str]:
        text, problems = _one_output(outputs)
        if text is None:
            return problems
        for line in expected:
            problems += _expect_line(text, line)
        return problems

    argv = ("bounds", "--gen", f"ring:{n}", "--volume", fmt(volume))
    return Plan((argv,), check)


WORKLOADS: dict[str, Callable[[int, Path, Path], Plan]] = {
    "ring-osh": ring_osh,
    "grid-corners": grid_corners,
    "repro": repro,
    "bounds-large": bounds_large,
}
