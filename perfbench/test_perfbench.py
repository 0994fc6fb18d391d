"""Tests of the benchmark itself: inputs, correctness checks and tracing.

Run from the repository root with ``python3 -m pytest perfbench``; it sits
outside the package's test paths, so the regular suite does not collect it.
One real pass of every workload runs once per session (about 20 s, 400 MB
for bounds-large) to give the checks genuine outputs to corrupt.
"""
from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "tests" / "data"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ncpower.cli as cli  # noqa: E402
from run import judge, tail_note  # noqa: E402
from tracing import ENTRY_POINTS, SELF_TIME_METRICS, Span, Trace, traced  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import WORKLOADS, fmt  # noqa: E402

SEED = 7


def bump_last_digit(text: str, number: str) -> str:
    """``text`` with the last mantissa digit of ``number`` changed by one unit."""
    mantissa, e, exponent = number.partition("e")
    last = mantissa[-1]
    changed = mantissa[:-1] + str((int(last) + 1) % 10) + e + exponent
    assert text.count(number) >= 1
    return text.replace(number, changed, 1)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One real pass of every workload at SEED: name -> (plan, outputs)."""
    workdir = tmp_path_factory.mktemp("work")
    result = {}
    for name, make in WORKLOADS.items():
        plan = make(SEED, workdir, DATA)
        _, outputs, error = run_pass(cli, plan.argvs)
        assert error is None
        result[name] = (plan, outputs)
    return result


# -- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    snapshots = []
    for _ in range(2):
        plan = WORKLOADS[name](3, tmp_path, DATA)
        snapshots.append((plan.argvs, {p.name: p.read_bytes() for p in tmp_path.iterdir()}))
    assert snapshots[0] == snapshots[1]


def test_seed_changes_volumes(tmp_path):
    assert WORKLOADS["ring-osh"](1, tmp_path, DATA).argvs != WORKLOADS["ring-osh"](2, tmp_path, DATA).argvs
    texts = []
    for seed in (1, 2):
        WORKLOADS["grid-corners"](seed, tmp_path, DATA)
        texts.append((tmp_path / f"grid-corners-{seed}.net").read_text().splitlines()[1:])
    assert texts[0] != texts[1]
    demands = [line for line in texts[0] if line.startswith("demand")]
    assert len(demands) == 70
    assert {line.split()[2] for line in demands} == {"1", "36"}


# -- correctness checks ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_real_output_passes_its_check(passes, name):
    plan, outputs = passes[name]
    assert plan.check(outputs) == []


def test_ring_osh_check_rejects_one_unit_off(passes):
    plan, (text,) = passes["ring-osh"]
    for field in ("total", "conventional", "savings"):
        number = re.search(rf"{field}=([0-9.e+]+)", text).group(1)
        assert plan.check([bump_last_digit(text, number)]), field


def test_grid_check_rejects_one_watt_off(passes):
    plan, (text,) = passes["grid-corners"]
    conventional = re.search(r"conventional=(\S+) W", text).group(1)
    assert float(conventional) < 1e6  # six digits still resolve one watt
    off = text.replace(f"conventional={conventional}", f"conventional={fmt(float(conventional) + 1)}", 1)
    assert plan.check([off])


def test_grid_check_rejects_total_outside_bounds(passes):
    plan, (text,) = passes["grid-corners"]
    total = re.search(r"power: total=(\S+) W", text).group(1)
    lower = re.search(r"coded>=(\S+) W \(per-demand\)", text).group(1)
    too_low = text.replace(f"total={total}", f"total={fmt(float(lower) - 1)}", 1)
    assert plan.check([too_low])


def test_repro_check_rejects_one_changed_cell(passes):
    plan, outputs = passes["repro"]
    for index, table in enumerate(outputs):
        header, first_row, *rest = table.splitlines(keepends=True)
        cells = first_row.rstrip("\n").split(",")
        cells[-1] = bump_last_digit(cells[-1], cells[-1])
        changed = list(outputs)
        changed[index] = "".join([header, ",".join(cells) + "\n", *rest])
        assert plan.check(changed), index


def test_bounds_check_rejects_one_unit_off(passes):
    plan, (text,) = passes["bounds-large"]
    lower = re.search(r"conventional_lower: (\S+) W", text).group(1)
    assert plan.check([bump_last_digit(text, lower)])
    coded = re.search(r"closed_form: .* coded=(\S+) W", text).group(1)
    assert plan.check([text.replace(f"coded={coded}", f"coded={bump_last_digit(coded, coded)}")])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_reject_missing_output(passes, name):
    plan, outputs = passes[name]
    assert plan.check([""] * len(outputs))
    assert plan.check([])


def test_judge_fails_errors_and_passes_that_differ(passes):
    plan, outputs = passes["ring-osh"]
    result = {
        "outputs": {"a": outputs, "b": ["garbage"], "c": outputs},
        "passes": [
            {"digest": "a", "error": None},
            {"digest": "a", "error": "exit 3"},
            {"digest": "b", "error": None},
            {"digest": "c", "error": None},
        ],
    }
    verdicts = judge(plan, result)
    assert verdicts[0] is None
    assert verdicts[1] == "exit 3"
    assert verdicts[2] and verdicts[3] == "output differs from the first pass"


def test_tail_note_needs_ten_samples_beyond():
    assert "too few" in tail_note([1.0] * 20)
    assert tail_note([float(i) for i in range(1, 22)]).startswith("p52 11.0000")
    assert tail_note([float(i) for i in range(1, 101)]).startswith("p90 90.0000")


# -- tracing --------------------------------------------------------------------


def _attributes():
    return {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in ENTRY_POINTS}


def test_traced_pass_matches_plain_and_wrappers_are_removed():
    argvs = [["analyze", "--gen", "ring:7", "--heuristic", "osh"], ["repro", "ring-volume"]]
    before = _attributes()
    _, plain, error = run_pass(cli, argvs)
    assert error is None
    trace = Trace()
    with traced(trace):
        assert all(getattr(sys.modules[m], a) is not before[(m, a)] for m, a in before)
        seconds, texts, error = run_pass(cli, argvs)
    assert error is None
    assert texts == plain
    assert _attributes() == before
    names = {span.name for span in trace.spans}
    assert names == set(SELF_TIME_METRICS) - {"model.load"}
    metrics = trace.layer_metrics(seconds)
    assert metrics["routing.candidate_calls"] > 0
    assert metrics["oracle.explored"] > 0
    assert 0 < metrics["coding.paired_fraction"] <= 1


def test_wrappers_are_removed_when_a_pass_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with traced(Trace()):
            raise RuntimeError("boom")
    assert _attributes() == before


def test_self_time_subtracts_children():
    trace = Trace(spans=[
        Span("coding.select", None, 0.0, 10.0),
        Span("routing.candidates", 0, 1.0, 4.0),
        Span("coding.match", 0, 5.0, 6.0),
        Span("power.eval", None, 10.0, 11.0),
    ])
    metrics = trace.layer_metrics(12.0)
    assert metrics["coding.select_self_s"] == 6.0
    assert metrics["routing.candidates_s"] == 3.0
    assert metrics["coding.match_s"] == 1.0
    assert metrics["cli.self_s"] == 1.0
