"""End-to-end command line checks, run through a real subprocess."""
from __future__ import annotations

import random
import resource
import subprocess
import sys
import time
from collections import Counter

import pytest
from conftest import DATA_DIR, grid_topology

from ncpower import cli, coding
from ncpower.cli import EVAL_DEMAND_LIMIT, SWEEP_POINT_LIMIT, _require_evaluable, _sweep_volumes
from ncpower.errors import InstanceError
from ncpower.model import Demand, Instance, bfs_dist, generate_ring, serialize_instance

GOLDEN = {
    "mesh-volume": DATA_DIR / "mesh_volume.csv",
    "mesh-sizes": DATA_DIR / "mesh_sizes.csv",
    "ring-volume": DATA_DIR / "ring_volume.csv",
    "ring-sizes": DATA_DIR / "ring_sizes.csv",
}


def run_cli(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "ncpower.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def _cap_memory():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_cli_timed(*args: str) -> tuple[subprocess.CompletedProcess[str], float]:
    """run_cli under a 1 GiB address-space cap, with its wall time.

    The cap turns a size that would exhaust memory into a quick failure.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ncpower.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_cap_memory,
    )
    return proc, time.perf_counter() - start


def test_analyze_report_text():
    proc = run_cli("analyze", "--gen", "mesh:5", "--volume", "20")
    assert proc.returncode == 0
    assert "conventional=32190 W" in proc.stdout
    assert "total=26825 W" in proc.stdout
    assert "savings=16.6667%" in proc.stdout
    assert "coded pairs: 10" in proc.stdout


def test_analyze_past_the_float_range_prints_inf_not_nan(capsys):
    assert cli.main(["analyze", "--gen", "ring:6", "--volume", "1e308"]) == 0
    out = capsys.readouterr().out
    assert "power: total=inf W  conventional=inf W  reduction=inf W  savings=26.6667%\n" in out


def test_analyze_fixed_combo():
    proc = run_cli("analyze", "--gen", "ring:5", "--volume", "20", "--heuristic", "pp")
    assert proc.returncode == 0
    assert "total=37555 W" in proc.stdout
    assert "savings=30%" in proc.stdout


def test_analyze_volume_sweep_csv():
    proc = run_cli(
        "analyze", "--gen", "mesh:5", "--heuristic", "osh", "--sweep", "20:60:20"
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "volume_gbps,conventional_w,total_w,reduction_w,savings_pct"
    assert lines[1] == "20,32190,26825,5365,16.6667"
    assert lines[3] == "60,96570,80475,16095,16.6667"


def test_analyze_reads_instance_file():
    proc = run_cli("analyze", "--instance", str(DATA_DIR / "arbitrary11.net"))
    assert proc.returncode == 0
    assert "demands=2" in proc.stdout
    assert "savings=25%" in proc.stdout
    assert "shared=4" in proc.stdout


def test_bounds_command():
    proc = run_cli("bounds", "--gen", "mesh:5", "--volume", "20")
    assert proc.returncode == 0
    assert "conventional_lower: 21460 W" in proc.stdout
    assert "nc_lower_per_demand: 16095 W" in proc.stdout
    assert "nc_lower_mean_form: 16095 W" in proc.stdout
    assert "closed_form" in proc.stdout


def test_bounds_ring_names_class():
    proc = run_cli("bounds", "--gen", "ring:100", "--volume", "20")
    assert proc.returncode == 0
    assert "class=even-1" in proc.stdout
    assert "savings=36.8687%" in proc.stdout


def test_bounds_skips_heuristic_on_huge_instances():
    proc = run_cli("bounds", "--gen", "ring:300", "--volume", "20")
    assert proc.returncode == 0
    assert "achieved_power: skipped" in proc.stdout
    assert "class=even-1" in proc.stdout


@pytest.mark.parametrize("spec,label", [("ring:100001", "odd-2"), ("mesh:100001", "odd")])
def test_bounds_answer_any_generated_size(spec, label):
    # 10,000,100,000 demands: the bounds come from the size, not from demands
    proc, seconds = run_cli_timed("bounds", "--gen", spec)
    assert proc.returncode == 0, proc.stderr
    assert seconds < 1.0
    assert "achieved_power: skipped (10000100000 demands exceed" in proc.stdout
    assert proc.stdout.rstrip().endswith(f"class={label}")


def test_generated_size_guard_exit_3():
    # refused before any instance is generated, so at once and in little memory
    for argv in (
        ("analyze", "--gen", "ring:100001"),
        ("analyze", "--gen", "mesh:100001", "--sweep", "20:40:20"),
        ("sweep", "--gen", "ring:3:100001:99998", "--heuristic", "pp"),
    ):
        proc, seconds = run_cli_timed(*argv)
        assert proc.returncode == 3, argv
        assert f"more than the {EVAL_DEMAND_LIMIT}" in proc.stderr
        assert proc.stdout == ""
        assert seconds < 1.0
    # without heuristic columns sweep prints closed forms at any size
    proc, _ = run_cli_timed("sweep", "--gen", "ring:3:100001:99998")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].startswith("100001,odd-2,")
    _require_evaluable("ring:141", 141 * 140)  # 19,740 demands
    with pytest.raises(InstanceError):
        _require_evaluable("mesh:142", 142 * 141)  # 20,022 demands


def test_sizes_below_3_exit_3_before_demands_are_counted(capsys):
    # a negative size must not pass the demand guard as N(N-1) demands
    for argv, size in (
        (["analyze", "--gen", "ring:-200"], -200),
        (["analyze", "--gen", "mesh:-141", "--sweep", "1:2:1"], -141),
        (["sweep", "--gen", "ring:-300:3", "--heuristic", "osh"], -300),
    ):
        assert cli.main(argv) == 3, argv
        err = capsys.readouterr().err
        assert f"n={size}: 1+1 protection is undefined below 3 nodes" in err
        assert "demands" not in err


class _Generated(Exception):
    pass


def _refuse_generation(*args):
    raise _Generated(args)


def test_sweep_demand_guard_sums_every_size(monkeypatch, capsys):
    # ring:3:40 has no size past the limit on its own, but routes 21,318
    # demands in all; the refusal comes before any instance is generated
    monkeypatch.setattr(cli, "_generate", _refuse_generation)
    assert cli.main(["sweep", "--gen", "ring:3:40", "--heuristic", "osh"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "21318 demands" in captured.err
    assert f"more than the {EVAL_DEMAND_LIMIT}" in captured.err
    # ring:3:30 (8,988 demands) passes the guard and reaches generation
    with pytest.raises(_Generated):
        cli.main(["sweep", "--gen", "ring:3:30", "--heuristic", "osh"])


def test_instance_file_demand_guard(monkeypatch, capsys, tmp_path):
    # a file counts its demands like a generated size, after loading and
    # before any routing; bounds still answers with the evaluation skipped
    path = tmp_path / "ring143.net"
    path.write_text(serialize_instance(generate_ring(143)), encoding="utf-8")
    monkeypatch.setattr(cli, "route_instance", _refuse_generation)
    for argv in (["analyze"], ["analyze", "--sweep", "20:40:20"]):
        assert cli.main([*argv, "--instance", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "20306 demands" in captured.err
        assert "EVAL_DEMAND_LIMIT" in captured.err
    assert cli.main(["bounds", "--instance", str(path)]) == 0
    assert "achieved_power: skipped (20306 demands exceed" in capsys.readouterr().out


@pytest.mark.parametrize("values", ["1e308,1e308,1", "1000,73,1e-310"])
def test_power_whose_slope_overflows_exit_3(values, capsys, tmp_path):
    # finite device values whose slope (pp + pt) / B is past the float range
    for command in ("analyze", "bounds"):
        assert cli.main([command, "--gen", "ring:5", "--power", values]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "slope" in captured.err and "must be finite" in captured.err
    path = tmp_path / "overflow.net"
    text = serialize_instance(generate_ring(5))
    path.write_text(text.replace("power 1000 73 40", "power " + values.replace(",", " ")))
    for command in ("analyze", "bounds"):
        assert cli.main([command, "--instance", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: line 2: power slope" in captured.err


def test_sweep_oracle_guard_up_front(capsys):
    # the oracle's node guard is met by the largest size, so no row is computed
    start = time.perf_counter()
    assert cli.main(["sweep", "--gen", "mesh:3:9", "--heuristic", "osh,oracle"]) == 5
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "joint oracle" in captured.err


@pytest.mark.parametrize("columns,message", [
    ("osh,osh", "heuristic 'osh' is named twice"),
    ("pp,osh,ww,pp", "heuristic 'pp' is named twice"),
    ("osh,bogus", "unknown heuristic 'bogus'"),
])
def test_sweep_heuristic_named_twice_exit_3(columns, message, monkeypatch, capsys):
    # both name checks come before any size is generated or priced
    monkeypatch.setattr(cli, "_generate", _refuse_generation)
    monkeypatch.setattr(cli, "closed_form", _refuse_generation)
    assert cli.main(["sweep", "--gen", "ring:3:4", "--heuristic", columns]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sweep_size_count_guard(monkeypatch, capsys):
    # without heuristic columns no demand is routed, but each size is still a
    # row; the count is refused before any closed form is computed (the
    # patched closed_form raises on its first call)
    monkeypatch.setattr(cli, "closed_form", _refuse_generation)
    # the second range holds more sizes than len() can count
    for spec in (f"ring:3:{SWEEP_POINT_LIMIT + 3}", "ring:3:10000000000000000000"):
        assert cli.main(["sweep", "--gen", spec]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"spans more than {SWEEP_POINT_LIMIT} sizes" in captured.err
    with pytest.raises(_Generated):
        cli.main(["sweep", "--gen", f"ring:3:{SWEEP_POINT_LIMIT + 2}"])


def test_zero_volume_codes_no_pairs(capsys):
    # every pair saves 0 W at volume 0, so no heuristic lists one
    for heuristic in ("osh", "ww", "pp", "wp", "pw", "oracle"):
        assert cli.main(["analyze", "--gen", "ring:5", "--volume", "0",
                         "--heuristic", heuristic]) == 0
        assert "coded pairs: 0\n" in capsys.readouterr().out, heuristic


def test_sweep_sizes():
    proc = run_cli("sweep", "--gen", "ring:3:7", "--volume", "20",
                   "--heuristic", "pp,osh")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "size,class,analytic_pct,pp_pct,osh_pct"
    assert lines[1] == "3,odd-1,0,0,16.6667"
    assert lines[3] == "5,odd-2,30,30,30"


@pytest.mark.parametrize("table", sorted(GOLDEN))
def test_repro_tables_match_goldens(table, tmp_path):
    out = tmp_path / "table.csv"
    proc = run_cli("repro", table, "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text() == GOLDEN[table].read_text()


def test_repro_is_deterministic():
    first = run_cli("repro", "mesh-volume")
    second = run_cli("repro", "mesh-volume")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_cli_import_leaves_networkx_out():
    # networkx is a test-only reference, and numpy (which scipy loads) adds
    # about 13 MB to every run; the program itself must load none of them.
    # fractions is deferred to the --sweep parser, as it adds to every start-up
    code = (
        "import sys, ncpower.cli; "
        "print([m for m in ('networkx', 'numpy', 'scipy', 'fractions') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


PARSER_ARGV = [
    ["analyze", "--gen", "ring:5", "--volume", "30", "--power", "1,2,3", "--budget", "2",
     "--heuristic", "pp", "--sweep", "10:20:10", "--out", "a.csv"],
    ["analyze", "--instance", "x.net"],
    ["analyze"],
    ["bounds", "--gen", "ring:5", "--heuristic", "ww", "--volume", "20"],
    ["bounds", "--instance", "x.net", "--budget", "1"],
    ["sweep", "--gen", "ring:3:5", "--heuristic", "osh,pp", "--out", "s.csv", "--power", "1,2,3"],
    ["sweep"],
    ["repro", "mesh-volume", "--out", "r.csv"],
    ["repro"],
    ["-h"], ["analyze", "-h"], ["bounds", "-h"], ["sweep", "-h"], ["repro", "-h"],
    [],
    ["bogus"],
    ["--gen", "ring:5", "bounds"],
    ["-h", "bounds"],
    ["bounds", "--gen", "ring:5", "extra"],
    ["repro", "ring-sizes", "extra"],
    ["analyze", "--gen", "ring:5", "--instance", "x.net"],
    ["analyze", "--gen", "ring:5", "--heuristic", "bogus"],
    ["bounds", "--gen", "ring:5", "--volume", "many"],
    ["analyze", "--gen", "ring:5", "--budget", "two"],
    ["sweep", "--gen", "ring:3:5", "--budget", "1.5"],
    ["bounds", "--gen"],
    ["repro", "bogus"],
]


def _parsed(parser, argv: list[str], capsys):
    """The namespace, or the exit code and printed text of a parse that exits."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=" ".join)
def test_command_parser_parses_as_the_full_tree(argv, capsys):
    # main builds only the sub-parser its argv names; every parse, help text
    # and error, the top-level usage line included, must read as the full tree's
    alone = _parsed(cli.build_parser(argv[0] if argv else None), argv, capsys)
    assert alone == _parsed(cli.build_parser(), argv, capsys)


def test_top_level_errors_name_the_command_argument(monkeypatch, capsys):
    # a metavar on the sub-parsers action would rename "argument command"
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps on a narrow terminal
    for argv, error in (([], "required: command"), (["bogus"], "argument command: invalid choice")):
        code, out, err = _parsed(cli.build_parser(), argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ncpower [-h] {analyze,bounds,sweep,repro} ...\n")
        assert error in err


def test_main_reads_the_command_from_sys_argv(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def recording_build(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", recording_build)
    argv = ["bounds", "--gen", "ring:5", "--volume", "20"]
    assert cli.main(argv) == 0
    listed = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["ncpower", *argv])
    assert cli.main() == 0
    assert capsys.readouterr().out == listed
    assert built == ["bounds", "bounds"]


def test_usage_error_exit_2():
    proc = run_cli("analyze", "--gen", "mesh:5", "--heuristic", "bogus")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_too_small_topology_exit_3():
    proc = run_cli("analyze", "--gen", "mesh:2", "--volume", "20")
    assert proc.returncode == 3
    assert "1+1 protection" in proc.stderr


def test_oversized_volume_sweep_exit_3():
    # the point count is checked before any volume is listed, so a sweep of
    # about 1e12 volumes is refused at once
    proc = run_cli("analyze", "--gen", "ring:4", "--sweep", "20:1e12:1")
    assert proc.returncode == 3
    assert f"more than {SWEEP_POINT_LIMIT} volumes" in proc.stderr
    assert len(_sweep_volumes(f"1:{SWEEP_POINT_LIMIT}:1")) == SWEEP_POINT_LIMIT
    with pytest.raises(InstanceError):
        _sweep_volumes(f"1:{SWEEP_POINT_LIMIT + 1}:1")


def test_bad_instance_file_exit_3(tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_text("nodes 3\nedge 1 9\n")
    proc = run_cli("analyze", "--instance", str(bad))
    assert proc.returncode == 3
    assert "line 2" in proc.stderr


def test_missing_file_exit_3(tmp_path):
    # a missing, unreadable or non-UTF-8 path is a bad input, not a crash
    latin1 = tmp_path / "latin1.net"
    latin1.write_bytes("nodes 3  # caf\xe9\n".encode("latin-1"))
    for args in (
        ("--instance", str(tmp_path / "nope.net")),
        ("--instance", str(tmp_path)),
        ("--instance", str(latin1)),
        ("--gen", "ring:4", "--out", str(tmp_path)),
    ):
        proc = run_cli("analyze", *args)
        assert proc.returncode == 3, args
        assert proc.stderr.startswith("error: "), proc.stderr


def test_unsurvivable_topology_exit_4(tmp_path):
    bridged = tmp_path / "bridge.net"
    bridged.write_text(
        "nodes 4\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 2\ndemand 1 3 20\n"
    )
    proc = run_cli("analyze", "--instance", str(bridged))
    assert proc.returncode == 4
    assert "(1, 2)" in proc.stderr


def test_oracle_guard_exit_5():
    proc = run_cli("analyze", "--gen", "mesh:8", "--volume", "20",
                   "--heuristic", "oracle")
    assert proc.returncode == 5
    assert "joint oracle" in proc.stderr


@pytest.mark.parametrize("command", ["analyze", "bounds"])
def test_oracle_guard_refuses_before_routing(command, monkeypatch, capsys):
    def route_instance(*args):
        raise AssertionError("routed an instance the joint oracle refuses")

    monkeypatch.setattr(cli, "route_instance", route_instance)
    assert cli.main([command, "--gen", "ring:8", "--heuristic", "oracle"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "joint oracle refuses 8-node instances (limit 7)" in captured.err


def test_out_writes_single_row_csv(tmp_path):
    out = tmp_path / "report.csv"
    proc = run_cli("analyze", "--gen", "ring:5", "--volume", "20",
                   "--heuristic", "osh", "--out", str(out))
    assert proc.returncode == 0
    text = out.read_text()
    assert text.startswith("conventional_w,total_w,reduction_w,savings_pct")
    assert "53650,37555,16095,30" in text


@pytest.mark.parametrize("args", [
    ("analyze", "--gen", "ring:5", "--heuristic", "pp"),
    ("sweep", "--gen", "ring:3:5"),
    ("bounds", "--gen", "ring:1001"),
])
def test_budget_below_one_exit_3(args):
    # refused before the instance is built, so ring:1001 (1,001,000 demands)
    # answers at once, and for selectors that never read the budget too
    for budget in ("0", "-1"):
        proc = run_cli(*args, "--budget", budget)
        assert proc.returncode == 3
        assert f"--budget {budget} must be at least 1" in proc.stderr


@pytest.mark.parametrize("args", [
    ("analyze", "--gen", "ring:5", "--volume", "nan"),
    ("analyze", "--gen", "ring:5", "--volume", "inf"),
    ("analyze", "--gen", "ring:5", "--power", "1000,73,nan"),
    ("analyze", "--gen", "ring:5", "--sweep", "nan:40:20"),
    ("sweep", "--gen", "ring:3:5", "--volume", "nan", "--heuristic", "osh"),
    ("sweep", "--gen", "ring:3:5", "--volume", "nan"),
])
def test_non_finite_number_exit_3(args):
    proc = run_cli(*args)
    assert proc.returncode == 3
    assert "finite" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv,routes", [
    (["sweep", "--gen", "ring:3:6", "--heuristic", "osh,ww,pp,conventional"], 4),
    (["repro", "ring-sizes"], 13),
    (["repro", "mesh-volume"], 1),
    (["repro", "ring-volume"], 1),
])
def test_each_instance_is_routed_once(argv, routes, monkeypatch, capsys):
    real_route = cli.route_instance
    calls = []

    def counting_route(instance, *args):
        calls.append(instance)
        return real_route(instance, *args)

    monkeypatch.setattr(cli, "route_instance", counting_route)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert len(calls) == routes


@pytest.mark.parametrize("table", ["mesh-volume", "ring-volume"])
def test_volume_table_selects_once(table, monkeypatch, capsys):
    # the ten volumes of a table share one osh selection and one joint oracle
    calls = Counter()
    for name in ("select_pairs_osh", "optimal_joint"):
        real = getattr(cli, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cli, name, counting)
    assert cli.main(["repro", table]) == 0
    assert capsys.readouterr().out.count("\n") == 11
    assert calls == {"select_pairs_osh": 1, "optimal_joint": 1}


def test_repro_matches_each_repeated_cluster_layout_once(monkeypatch, capsys):
    # a deterministic work count: a cluster laid out as the previous one
    # reuses its matching, so the four tables make 620 matching calls where
    # scoring every cluster afresh made 946; the ring tables barely repeat
    real = coding.max_weight_pairs
    calls = Counter()
    table = None

    def counting(n, weights):
        calls[table] += 1
        return real(n, weights)

    monkeypatch.setattr(coding, "max_weight_pairs", counting)
    for table in GOLDEN:
        assert cli.main(["repro", table]) == 0
        assert capsys.readouterr().out == GOLDEN[table].read_text()
    assert calls == {"mesh-volume": 1, "mesh-sizes": 39, "ring-volume": 5, "ring-sizes": 575}


def _grid_corners_file(tmp_path):
    # every node of a 5x5 grid to the two opposite corners, seeded volumes
    rng = random.Random(5)
    demands = tuple(
        Demand(s, t, float(rng.randint(10, 40)))
        for t in (1, 25) for s in range(1, 26) if s != t
    )
    path = tmp_path / "grid5.net"
    path.write_text(serialize_instance(Instance(grid_topology(5, 5), demands)))
    return path


def test_analyze_leaves_distance_tables_intact(monkeypatch, capsys, tmp_path):
    # the tables a topology keeps are shared by every caller, so none may
    # change one: after analyze each still equals a fresh BFS
    seen = []
    real_bound = cli.bound_nc

    def keeping_bound(instance, *args):
        seen.append(instance.topology)
        return real_bound(instance, *args)

    monkeypatch.setattr(cli, "bound_nc", keeping_bound)
    for path in (DATA_DIR / "arbitrary11.net", _grid_corners_file(tmp_path)):
        assert cli.main(["analyze", "--instance", str(path)]) == 0
    assert capsys.readouterr().out
    for topo in seen:
        tables = topo._distance_tables
        assert tables
        for node, table in tables.items():
            assert table == bfs_dist(topo.adjacency, node)


def test_absorbed_sweep_step_exit_3(capsys):
    # a step below half the float spacing at the volume would never advance it
    start = time.perf_counter()
    assert cli.main(["analyze", "--gen", "ring:5", "--sweep", "20:20:1e-320"]) == 3
    with pytest.raises(InstanceError, match="lost in volume"):
        _sweep_volumes("1e17:1e17:1")
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lost in volume 20" in captured.err


def test_small_sweep_volumes_keep_their_value(tmp_path, capsys):
    # each point is start + i * step rounded once: none passes stop, and a
    # volume below 1e-9 keeps its value
    assert _sweep_volumes("0:1e-10:1e-10") == [0.0, 1e-10]
    assert _sweep_volumes("0:3e-9:1e-9") == [0.0, 1e-9, 2e-9, 3e-9]
    assert _sweep_volumes("1e-10:1e-10:1") == [1e-10]
    out = tmp_path / "out.csv"
    sweep = ["analyze", "--gen", "ring:5", "--sweep", "1e-10:1e-10:1", "--out", str(out)]
    assert cli.main(sweep) == 0
    [swept] = out.read_text().splitlines()[1:]
    assert cli.main(["analyze", "--gen", "ring:5", "--volume", "1e-10", "--out", str(out)]) == 0
    assert swept == "1e-10," + out.read_text().splitlines()[1]
    assert float(swept.split(",")[2]) > 0
    capsys.readouterr()


@pytest.mark.parametrize("spec,labels", [
    ("20:20.000001:0.0000005", ["20", "20.0000005", "20.000001"]),
    ("100000.4:100000.4:1", ["100000.4"]),
])
def test_sweep_labels_read_back_as_their_volume(spec, labels, capsys):
    # six significant digits label a row only when they read back as its volume
    argv = ["analyze", "--gen", "ring:3", "--heuristic", "conventional", "--sweep", spec]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == labels
    assert [float(label) for label in labels] == _sweep_volumes(spec)


def test_analyze_sweep_builds_one_instance(monkeypatch, capsys, tmp_path):
    # the sweep re-keys one instance per volume; the file is read once
    reads = []
    real_load = cli.load_instance

    def counting_load(text):
        reads.append(text)
        return real_load(text)

    monkeypatch.setattr(cli, "load_instance", counting_load)
    path = str(DATA_DIR / "arbitrary11.net")
    assert cli.main(["analyze", "--instance", path, "--sweep", "0:40:20"]) == 0
    assert len(reads) == 1
    swept = capsys.readouterr().out.splitlines()[1:]
    for volume, row in zip(("0", "20", "40"), swept):
        assert cli.main(["analyze", "--instance", path, "--volume", volume, "--out",
                         str(tmp_path / "one.csv")]) == 0
        single = (tmp_path / "one.csv").read_text().splitlines()[1]
        assert row == f"{volume},{single}"


BIG_RING = "ring:1" + "0" * 120
HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv,closed", [
    (["bounds", "--gen", BIG_RING], "conventional=inf W coded=inf W savings=37.5% class=even-1"),
    (["bounds", "--gen", f"mesh:{HUGE}"], "conventional=inf W coded=inf W savings=16.6667%"),
    (["bounds", "--gen", f"ring:{HUGE}", "--volume", "0"], "conventional=0 W coded=0 W"),
], ids=["ring-1e120", "mesh-1e400", "ring-1e400-volume-0"])
def test_closed_form_past_the_float_range(argv, closed, capsys):
    # the hop count is too large for a float; the powers read inf, or 0 at
    # volume 0, as the bound lines do
    assert cli.main(argv) == 0
    assert closed in capsys.readouterr().out.splitlines()[-1]


@pytest.mark.parametrize("spec,row", [
    (BIG_RING, f"{BIG_RING[5:]},even-1,37.5"),
    (f"mesh:{HUGE}", f"{HUGE},even,16.6667"),
], ids=["ring-1e120", "mesh-1e400"])
def test_sweep_past_the_float_range(spec, row, capsys):
    assert cli.main(["sweep", "--gen", spec]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == row


def test_analyze_refuses_volume_with_sweep(monkeypatch, capsys):
    # the sweep sets every volume, so a --volume beside it would be ignored
    built = []
    monkeypatch.setattr(cli, "generate_ring", lambda *args: built.append(args))
    assert cli.main(["analyze", "--gen", "ring:5", "--volume", "50", "--sweep", "20:40:20"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--volume" in captured.err and "--sweep" in captured.err
    assert built == []


# together the rows of these sweeps are volumes 0, 0.1, 20, 33.5 and 1e308,
# the last past the float range of the powers
SWEEP_SPECS = ("0:20:20", "0.1:33.5:33.4", "1e308:1e308:1e308")
ARBITRARY11 = str(DATA_DIR / "arbitrary11.net")
# the mesh:7 oracle searches 2 candidates per demand: at the default 8 each
# run takes seconds
DIFFERENTIAL_CASES = [
    ["--gen", "ring:7", "--heuristic", "oracle"],
    ["--gen", "mesh:7", "--heuristic", "oracle", "--budget", "2"],
] + [
    [*source, "--heuristic", heuristic]
    for heuristic in cli.HEURISTICS if heuristic != "oracle"
    for source in (["--gen", "ring:12"], ["--gen", "mesh:9"], ["--instance", ARBITRARY11])
]


@pytest.mark.parametrize(
    "flags", DIFFERENTIAL_CASES, ids=lambda flags: " ".join(flags).replace(ARBITRARY11, "arbitrary11.net")
)
def test_volume_sweep_equals_single_volume_runs(flags, tmp_path, capsys):
    # one selection priced at each volume prints what a fresh run prints
    out = tmp_path / "out.csv"
    volumes = []
    for spec in SWEEP_SPECS:
        assert cli.main(["analyze", *flags, "--sweep", spec, "--out", str(out)]) == 0
        swept = out.read_text()
        expected = ["volume_gbps,conventional_w,total_w,reduction_w,savings_pct"]
        for row in swept.splitlines()[1:]:
            volume = row.split(",", 1)[0]
            assert cli.main(["analyze", *flags, "--volume", volume, "--out", str(out)]) == 0
            expected.append(f"{volume},{out.read_text().splitlines()[1]}")
            volumes.append(float(volume))
        assert swept == "\n".join(expected) + "\n", spec
    assert sorted(volumes) == [0, 0.1, 20, 33.5, 1e308]
    capsys.readouterr()


@pytest.mark.parametrize("flags,code", [
    (["--heuristic", "osh"], 4),
    (["--gen", "ring:8", "--heuristic", "oracle"], 5),
], ids=["cut-edge", "oracle-guard"])
def test_zero_volume_sweep_fails_as_a_single_run(flags, code, tmp_path, capsys):
    # a sweep still selects when every volume is 0, so it meets the errors
    # a single run at volume 0 meets
    if "--gen" not in flags:
        bridged = tmp_path / "bridge.net"
        bridged.write_text("nodes 4\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 2\ndemand 1 3 20\n")
        flags = ["--instance", str(bridged), *flags]
    for tail in (["--volume", "0"], ["--sweep", "0:0:1"]):
        assert cli.main(["analyze", *flags, *tail]) == code, tail
        assert capsys.readouterr().out == ""
