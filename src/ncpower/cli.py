"""Command-line front end.

Subcommands: analyze (power of one instance), bounds (lower bounds and closed
forms), sweep (savings across topology sizes), repro (reference CSV tables).

Exit codes: 0 ok, 2 usage, 3 bad instance, one to route past
EVAL_DEMAND_LIMIT or a volume sweep past SWEEP_PRICE_LIMIT, 4 no survivable
routing, 5 oracle guard exceeded.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path as FilePath
from typing import Iterator, Sequence

from .bounds import BoundReport, bound_nc, closed_form, uniform_bound
from .coding import (
    COMBO_NAMES,
    EMPTY_ASSIGNMENT,
    SelectionResult,
    select_pairs_fixed,
    select_pairs_osh,
)
from .errors import InstanceError, NcPowerError, OracleGuardError, SurvivabilityError
from .model import (
    DEFAULT_VOLUME,
    Demand,
    Instance,
    PowerParams,
    generate_full_mesh,
    generate_ring,
    load_instance,
    require_protectable,
)
from .oracle import optimal_joint, require_joint_size
from .power import PowerReport, eval_with_coding, pair_saving
from .routing import CANDIDATE_BUDGET, route_instance

HEURISTICS = ("osh", "ww", "pp", "wp", "pw", "oracle", "conventional")

# routing every demand costs O(demands * nodes); above this many demands the
# bounds command reports assignment-free bounds and closed forms only, and
# analyze and sweep refuse the instance
EVAL_DEMAND_LIMIT = 20_000

# every volume of an analyze --sweep prices the one selection over every
# demand, and every size of a sweep is an instance to route and select; both
# refuse more than this many points
SWEEP_POINT_LIMIT = 10_000

# an analyze --sweep prices every demand at every volume, about 0.25 s per
# volume on ring:141 (19,740 demands, 2-vCPU VM); it refuses more volumes
# times demands than this
SWEEP_PRICE_LIMIT = 2_000_000

POWER_HEADER = ["conventional_w", "total_w", "reduction_w", "savings_pct"]


def fmt(value: float) -> str:
    """Six significant digits, the precision used in every table we emit."""
    return f"{value:.6g}"


def _volume_label(volume: float) -> str:
    """``fmt(volume)`` when it reads back as ``volume``, else the exact ``repr``."""
    label = fmt(volume)
    return label if float(label) == volume else repr(volume)


def _parse_sizes(spec: str, form: str, most: int) -> tuple[str, list[int]]:
    """``spec`` of ``form``, a kind and 1 to ``most`` integers, as ``(kind, integers)``.

    The first integer is a size; ``require_protectable`` refuses it below 3,
    before any demand count is formed from it.
    """
    kind, *parts = spec.split(":")
    if kind not in ("mesh", "ring") or not 1 <= len(parts) <= most:
        raise InstanceError(f"generator spec {spec!r} is not {form}")
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise InstanceError(f"generator spec {spec!r}: sizes must be integers") from None
    require_protectable(numbers[0])
    return kind, numbers


def _parse_gen(spec: str) -> tuple[str, int]:
    """``mesh:N`` or ``ring:N`` as ``(kind, N)``."""
    kind, (n,) = _parse_sizes(spec, "mesh:N or ring:N", 1)
    return kind, n


def _require_evaluable(what: str, demands: int):
    """Refuse to route more than EVAL_DEMAND_LIMIT demands, before any is routed."""
    if demands > EVAL_DEMAND_LIMIT:
        raise InstanceError(
            f"{what} has {demands} demands, more than the {EVAL_DEMAND_LIMIT} that are "
            f"routed and evaluated (EVAL_DEMAND_LIMIT); bounds, and sweep without "
            f"--heuristic, answer at any size"
        )


def _generate(kind: str, n: int, volume: float, power: PowerParams) -> Instance:
    return (generate_full_mesh if kind == "mesh" else generate_ring)(n, volume, power)


def _parse_power(text: str | None) -> PowerParams:
    if text is None:
        return PowerParams()
    parts = text.split(",")
    if len(parts) != 3:
        raise InstanceError("--power expects port_w,transponder_w,channel_gbps")
    try:
        return PowerParams(float(parts[0]), float(parts[1]), float(parts[2]))
    except ValueError:
        raise InstanceError(f"--power {text!r}: values must be numbers") from None


def _with_volume(instance: Instance, volume: float) -> Instance:
    """The instance with every demand re-keyed to the uniform ``volume``."""
    demands = tuple(Demand(d.source, d.dest, volume) for d in instance.demands)
    return Instance(instance.topology, demands, instance.power)


def _load_file(path: str, volume: float | None, power_text: str | None) -> Instance:
    try:
        text = FilePath(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceError(f"instance {path} is not UTF-8 text: {exc.reason}") from None
    instance = load_instance(text)
    if power_text is not None:
        instance = Instance(instance.topology, instance.demands, _parse_power(power_text))
    if volume is not None:
        instance = _with_volume(instance, volume)
    if not instance.demands:
        raise InstanceError(f"instance {path} defines no demands; add demand lines")
    return instance


def _build_instance(args, volume: float | None) -> Instance:
    if args.gen:
        kind, n = _parse_gen(args.gen)
        # N(N-1) is checked before the demands are built
        _require_evaluable(f"{kind}:{n}", n * (n - 1))
        power = _parse_power(args.power)
        return _generate(kind, n, DEFAULT_VOLUME if volume is None else volume, power)
    instance = _load_file(args.instance, volume, args.power)
    _require_evaluable(f"instance {args.instance}", len(instance.demands))
    return instance


def _selections(instance: Instance, heuristics: Sequence[str], budget: int) -> list[SelectionResult]:
    """Route the instance once, then run each heuristic's selection in order.

    With ``osh`` or ``oracle`` the routing walks each demand's pool of
    ``budget`` pairs, so their candidate calls only read it; an instance too
    large for the oracle is refused before it is routed.  Nothing is priced
    here.
    """
    if "oracle" in heuristics:
        require_joint_size(instance.topology.node_count)
    pooled = "osh" in heuristics or "oracle" in heuristics
    routing = route_instance(instance, budget if pooled else 1)
    selections = []
    for name in heuristics:
        if name == "conventional":
            selection = SelectionResult(EMPTY_ASSIGNMENT, routing)
        elif name == "osh":
            selection = select_pairs_osh(instance, budget)
        elif name == "oracle":
            selection = optimal_joint(instance, budget)
        else:
            selection = select_pairs_fixed(instance, routing, COMBO_NAMES[name])
        selections.append(selection)
    return selections


def _evaluate(
    instance: Instance, heuristics: Sequence[str], budget: int
) -> list[tuple[PowerReport, SelectionResult]]:
    """Each heuristic's selection on the instance, priced at its volumes."""
    selections = _selections(instance, heuristics, budget)
    return [(eval_with_coding(instance, s.routing, s.assignment), s) for s in selections]


def _volume_reports(
    instance: Instance, volumes: Sequence[float], heuristics: Sequence[str], budget: int
) -> Iterator[tuple[float, list[PowerReport]]]:
    """Each heuristic's report at each uniform volume, from one selection.

    At a uniform volume V > 0 every demand weighs one volume unit, so the
    routing, the candidate pools, the matchings and the oracle's search are
    the same for every such V.  So the selections are made once, at
    DEFAULT_VOLUME (any positive uniform volume selects the same), and
    ``eval_with_coding`` prices them at each volume.
    At V = 0 every demand and every coded pair prices to 0 W, as in a fresh
    run at that volume.
    """
    selections = _selections(_with_volume(instance, DEFAULT_VOLUME), heuristics, budget)
    for volume in volumes:
        at = _with_volume(instance, volume)
        yield volume, [eval_with_coding(at, s.routing, s.assignment) for s in selections]


def _power_row(report: PowerReport) -> list[str]:
    """The POWER_HEADER columns of one report."""
    return [
        fmt(report.p_conventional),
        fmt(report.p_total),
        fmt(report.p_reduction),
        fmt(report.savings_fraction * 100),
    ]


def _write_csv(path: str | None, header: list[str], rows: list[list[str]]):
    lines = [",".join(header)] + [",".join(row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        FilePath(path).write_text(text, encoding="utf-8")


def _sweep_volumes(spec: str) -> list[float]:
    """The volumes start, start + step, ... up to stop.

    Each is exact on the decimals the three numbers print as, then rounded
    once: 0.1:0.5:0.1 gives 0.3, no point passes stop, and a tiny volume
    keeps its value.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise InstanceError("--sweep expects start:stop:step in Gbps")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise InstanceError(f"--sweep {spec!r}: values must be numbers") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise InstanceError(f"--sweep {spec!r}: values must be finite")
    if step <= 0 or stop < start or start < 0:
        raise InstanceError("--sweep needs step > 0, stop >= start and start >= 0")
    from fractions import Fraction  # deferred: it adds to every CLI start-up

    # repr is the shortest decimal that reads back as the same float
    first, exact_step = Fraction(repr(start)), Fraction(repr(step))
    count = int((Fraction(repr(stop)) - first) / exact_step) + 1
    if count > SWEEP_POINT_LIMIT:
        raise InstanceError(f"--sweep {spec!r} spans more than {SWEEP_POINT_LIMIT} volumes")
    values = []
    for i in range(count):
        v = float(first + i * exact_step)
        if v + step == v:
            # the step is below half the float spacing at v: points would coincide
            raise InstanceError(f"--sweep {spec!r}: step {step:g} is lost in volume {v:g}")
        values.append(v)
    return values


def _print_report(instance: Instance, report: PowerReport, bounds: BoundReport, selection: SelectionResult):
    topo = instance.topology
    print(
        f"instance: nodes={topo.node_count} fibres={len(topo.undirected_edges)} "
        f"demands={len(instance.demands)}"
    )
    print(
        f"power: total={fmt(report.p_total)} W  conventional={fmt(report.p_conventional)} W  "
        f"reduction={fmt(report.p_reduction)} W  savings={fmt(report.savings_fraction * 100)}%"
    )
    print(
        f"bounds: conventional>={fmt(bounds.conventional_lower)} W  "
        f"coded>={fmt(bounds.nc_lower_per_demand)} W (per-demand)  "
        f"coded>={fmt(bounds.nc_lower_mean_form)} W (mean form)"
    )
    pairs = selection.assignment.pairs
    print(f"coded pairs: {len(pairs)}")
    volume = {(d.source, d.dest): d.volume for d in instance.demands}
    slope = instance.power.slope_w_per_gbps
    for pair in pairs:
        saves = pair_saving(slope, volume[pair.first], volume[pair.second], pair.shared_hops)
        first, second = "{}->{}".format(*pair.first), "{}->{}".format(*pair.second)
        print(
            f"  {first}({pair.first_kind.value}) + {second}({pair.second_kind.value})"
            f"  shared={pair.shared_hops}  saves={fmt(saves)} W"
        )


def _cmd_analyze(args) -> int:
    if args.sweep:
        if args.volume is not None:
            raise InstanceError("--volume and --sweep cannot be combined: the sweep sets every volume")
        volumes = _sweep_volumes(args.sweep)
        instance = _build_instance(args, None)
        demands = len(instance.demands)
        if len(volumes) * demands > SWEEP_PRICE_LIMIT:
            raise InstanceError(
                f"--sweep {args.sweep} prices {len(volumes)} volumes x {demands} demands, "
                f"more than {SWEEP_PRICE_LIMIT} (SWEEP_PRICE_LIMIT); narrow the sweep"
            )
        rows = [
            [_volume_label(volume)] + _power_row(report)
            for volume, [report] in _volume_reports(instance, volumes, [args.heuristic], args.budget)
        ]
        _write_csv(args.out, ["volume_gbps"] + POWER_HEADER, rows)
        return 0
    instance = _build_instance(args, args.volume)
    [(report, selection)] = _evaluate(instance, [args.heuristic], args.budget)
    bounds = bound_nc(instance, selection.assignment)
    _print_report(instance, report, bounds, selection)
    if args.out:
        _write_csv(args.out, POWER_HEADER, [_power_row(report)])
    return 0


def _cmd_bounds(args) -> int:
    if args.gen:
        params = _parse_power(args.power)
        kind, n = _parse_gen(args.gen)
        volume = DEFAULT_VOLUME if args.volume is None else args.volume
        demand_count = n * (n - 1)
    else:
        instance = _load_file(args.instance, args.volume, args.power)
        demand_count = len(instance.demands)
    report = None
    if demand_count > EVAL_DEMAND_LIMIT:
        # no pairing is evaluated, and generated demands are never built: the
        # bound's sums follow from N, so any size answers at once
        bounds = uniform_bound(kind, n, volume, params) if args.gen else bound_nc(instance)
    else:
        if args.gen:
            instance = _generate(kind, n, volume, params)
        [(report, selection)] = _evaluate(instance, [args.heuristic], args.budget)
        bounds = bound_nc(instance, selection.assignment)
    print(f"conventional_lower: {fmt(bounds.conventional_lower)} W")
    print(f"nc_lower_per_demand: {fmt(bounds.nc_lower_per_demand)} W")
    print(f"nc_lower_mean_form: {fmt(bounds.nc_lower_mean_form)} W")
    print(f"volume_avg: {fmt(bounds.volume_avg)} Gbps")
    print(f"characteristic_hops_avg: {fmt(bounds.characteristic_avg)}")
    if report is not None:
        print(f"achieved_power: {fmt(report.p_total)} W ({args.heuristic})")
    else:
        print(
            f"achieved_power: skipped ({demand_count} demands exceed "
            f"{EVAL_DEMAND_LIMIT}; bounds assume no pairing)"
        )
    if args.gen:
        conv, coded, savings, label = closed_form(kind, n, volume, params)
        print(
            f"closed_form: conventional={fmt(conv)} W coded={fmt(coded)} W "
            f"savings={fmt(savings * 100)}% class={label}"
        )
    return 0


def _parse_size_range(spec: str) -> tuple[str, range]:
    kind, numbers = _parse_sizes(spec, "mesh:LO[:HI[:STEP]] or ring:...", 3)
    lo = numbers[0]
    hi = numbers[1] if len(numbers) > 1 else lo
    step = numbers[2] if len(numbers) > 2 else 1
    if step < 1 or hi < lo:
        raise InstanceError("sweep spec needs step >= 1 and hi >= lo")
    return kind, range(lo, hi + 1, step)


def _size_row(
    kind: str, n: int, volume: float, params: PowerParams, heuristics: Sequence[str], budget: int
) -> list[str]:
    """Size, size class, closed-form savings and each heuristic's savings, in percent."""
    _, _, savings, label = closed_form(kind, n, volume, params)
    row = [str(n), label, fmt(savings * 100)]
    if heuristics:
        reports = _evaluate(_generate(kind, n, volume, params), heuristics, budget)
        row += [fmt(report.savings_fraction * 100) for report, _ in reports]
    return row


def _cmd_sweep(args) -> int:
    kind, sizes = _parse_size_range(args.gen)
    heuristics = [h for h in (args.heuristic or "").split(",") if h]
    for i, h in enumerate(heuristics):
        if h not in HEURISTICS:
            raise InstanceError(f"unknown heuristic {h!r}")
        if h in heuristics[:i]:
            raise InstanceError(f"heuristic {h!r} is named twice")
    params = _parse_power(args.power)
    volume = DEFAULT_VOLUME if args.volume is None else args.volume
    if heuristics:
        # every size is routed, so the demands of all sizes count against the
        # limit; both guards refuse the sweep before any row is computed
        demands = 0
        for n in sizes:
            demands += n * (n - 1)
            _require_evaluable(f"sweep {args.gen} up to size {n}", demands)
        if "oracle" in heuristics:
            require_joint_size(sizes[-1])
    if sizes[SWEEP_POINT_LIMIT:]:  # not len(), which overflows past sys.maxsize sizes
        raise InstanceError(f"sweep {args.gen} spans more than {SWEEP_POINT_LIMIT} sizes")

    header = ["size", "class", "analytic_pct"] + [f"{h}_pct" for h in heuristics]
    rows = [_size_row(kind, n, volume, params, heuristics, args.budget) for n in sizes]
    _write_csv(args.out, header, rows)
    return 0


def _repro_volume_table(kind: str) -> tuple[list[str], list[list[str]]]:
    header = ["volume_gbps", "conventional_w", "nc_analytic_w", "nc_oracle_w", "osh_w"]
    params = PowerParams()
    volumes = [float(v) for v in range(20, 201, 20)]
    instance = _generate(kind, 5, DEFAULT_VOLUME, params)
    rows = []
    reports = _volume_reports(instance, volumes, ["oracle", "osh"], CANDIDATE_BUDGET)
    for volume, (oracle, osh) in reports:
        conv, coded, _, _ = closed_form(kind, 5, volume, params)
        rows.append([fmt(volume), fmt(conv), fmt(coded), fmt(oracle.p_total), fmt(osh.p_total)])
    return header, rows


def _repro_size_table(kind: str) -> tuple[list[str], list[list[str]]]:
    heuristics = ["osh", "ww", "pp"] if kind == "mesh" else ["osh", "ww", "wp", "pw", "pp"]
    class_column = "parity" if kind == "mesh" else "ring_class"
    header = ["size", class_column, "analytic_pct"] + [f"{h}_pct" for h in heuristics]
    rows = [
        _size_row(kind, n, DEFAULT_VOLUME, PowerParams(), heuristics, CANDIDATE_BUDGET)
        for n in range(3, 16)
    ]
    return header, rows


REPRO_TABLES = {
    "mesh-volume": lambda: _repro_volume_table("mesh"),
    "mesh-sizes": lambda: _repro_size_table("mesh"),
    "ring-volume": lambda: _repro_volume_table("ring"),
    "ring-sizes": lambda: _repro_size_table("ring"),
}


def _cmd_repro(args) -> int:
    header, rows = REPRO_TABLES[args.table]()
    _write_csv(args.out, header, rows)
    return 0


def _add_instance_flags(parser: argparse.ArgumentParser, gen_required: bool = False):
    if gen_required:
        parser.add_argument("--gen", required=True, help="mesh:LO[:HI[:STEP]] or ring:...")
    else:
        source = parser.add_mutually_exclusive_group(required=True)
        source.add_argument("--gen", help="generated topology, mesh:N or ring:N")
        source.add_argument("--instance", help="instance file path")
    parser.add_argument("--volume", type=float, default=None, help="uniform demand volume in Gbps")
    parser.add_argument("--power", default=None, help="port_w,transponder_w,channel_gbps")
    parser.add_argument(
        "--budget", type=int, default=CANDIDATE_BUDGET, help="disjoint-pair candidates per demand"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and then reused.

    ``main`` parses every call with it, and building it costs more than a
    ``bounds`` query.
    """
    parser = argparse.ArgumentParser(
        prog="ncpower",
        description="Power analysis of 1+1-protected networks with XOR-coded protection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="evaluate power for one instance")
    _add_instance_flags(p_analyze)
    p_analyze.add_argument("--heuristic", choices=HEURISTICS, default="osh")
    p_analyze.add_argument("--sweep", help="volume sweep start:stop:step (emits CSV)")
    p_analyze.add_argument("--out", help="write CSV here instead of stdout")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_bounds = sub.add_parser("bounds", help="print lower bounds and closed forms")
    _add_instance_flags(p_bounds)
    p_bounds.add_argument("--heuristic", choices=HEURISTICS, default="osh")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="savings across topology sizes")
    _add_instance_flags(p_sweep, gen_required=True)
    p_sweep.add_argument("--heuristic", default="", help="comma-separated heuristic columns")
    p_sweep.add_argument("--out", help="write CSV here instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_repro = sub.add_parser("repro", help="emit a reference table")
    p_repro.add_argument("table", choices=sorted(REPRO_TABLES))
    p_repro.add_argument("--out", help="write CSV here instead of stdout")
    p_repro.set_defaults(func=_cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # repro takes no --budget; every other command refuses one below 1
        # before it builds an instance, whether or not a selector reads it
        if getattr(args, "budget", 1) < 1:
            raise InstanceError(f"--budget {args.budget} must be at least 1")
        return args.func(args)
    except SurvivabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OracleGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (NcPowerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
