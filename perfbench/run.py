"""ncpower benchmark: CLI workloads, end-to-end metrics and a traced layer split.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ring-osh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run is one closed-loop client: a fresh child interpreter imports ncpower
from ``src/`` and runs passes of ``ncpower.cli.main(argv)`` back to back.
With ``--trace 0`` it reports solve_s (median pass wall time), setup_s
(median time for a fresh interpreter to import ncpower.cli) and peak_rss_mb
(the child's peak RSS).  With ``--trace 1`` a separate child alternates plain
and traced passes and reports the per-layer metrics.  Every pass is checked
against independent references (see workloads.py); a pass that raises,
exits non-zero, prints something wrong or differs from the run's first pass
counts as failed.  error_rate is failed / attempted.

Every metric is printed as ``name value unit``; the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
``--workload all`` runs every workload untraced and traced and prints every
metric, exiting non-zero if any output is wrong.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNT_METRICS, SELF_TIME_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench_work")
SETUP_REPEATS = 9
RUN_LIMIT_S = 170

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS.values()},
    "cli.self_s": "s",
    **{name: "count" for name in COUNT_METRICS},
    "coding.paired_fraction": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def measure_setup(root: Path, env: dict[str, str]) -> list[float]:
    """Wall times of fresh interpreters importing ncpower.cli, after one warm-up."""
    command = [sys.executable, "-c", "import ncpower.cli"]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=10)
        except subprocess.TimeoutExpired:
            raise BenchError("import ncpower.cli took over 10 s") from None
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"import ncpower.cli failed: {done.stderr.strip()}")
        if attempt:  # the warm-up writes the bytecode caches
            times.append(elapsed)
    return times


def run_worker(root: Path, env: dict[str, str], job: dict, timeout: float) -> dict:
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            cwd=root,
            env=env,
            input=json.dumps(job),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def tail_note(times: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, or why there is none."""
    n = len(times)
    p = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if p <= 50:
        return f"{n} passes: too few for a percentile beyond the median (needs 21)"
    value = sorted(times)[math.ceil(p * n / 100) - 1]
    return f"p{p} {value:.4f} s over {n} passes"


def judge(plan, result: dict) -> list[str | None]:
    """Per pass, None when correct, else the first reason it failed."""
    problems = {digest: plan.check(texts) for digest, texts in result["outputs"].items()}
    first = result["passes"][0]["digest"]
    verdicts = []
    for record in result["passes"]:
        if record["error"]:
            verdicts.append(record["error"])
        elif problems[record["digest"]]:
            verdicts.append("; ".join(problems[record["digest"]]))
        elif record["digest"] != first:
            verdicts.append("output differs from the first pass")
        else:
            verdicts.append(None)
    return verdicts


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One benchmark run; returns the result object the last line prints."""
    started = time.perf_counter()
    src = root / "src"
    if not (src / "ncpower" / "cli.py").is_file():
        raise BenchError(f"no ncpower sources under {src}; run from the root of a checkout")
    try:
        plan = WORKLOADS[workload](seed, WORK_DIR, root / "tests" / "data")
    except FileNotFoundError as exc:
        raise BenchError(f"workload input missing: {exc}") from None
    # setup_s times an import from warm bytecode caches, as an installed
    # package has, whatever the caller's environment says about writing them
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    setup = [] if trace else measure_setup(root, env)
    job = {"src": str(src), "argvs": plan.argvs, "seconds": seconds, "trace": trace}
    result = run_worker(root, env, job, RUN_LIMIT_S - (time.perf_counter() - started))

    print(f"# workload {workload} seed {seed} trace {int(trace)}")
    passes = result["passes"]
    verdicts = judge(plan, result)
    failed = sum(v is not None for v in verdicts)
    for record, verdict in zip(passes, verdicts):
        if verdict is not None:
            print(f"failed pass ({record['kind']}): {verdict}", file=sys.stderr)

    plain = [r["seconds"] for r in passes if r["kind"] == "plain"]
    if trace:
        traced = [r for r in passes if r["kind"] == "traced"]
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in PER_LAYER_UNITS
            if name != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(r["seconds"] for r in traced) / statistics.median(plain) - 1
        )
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "solve_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        units = END_TO_END_UNITS
        print(f"# solve_s {tail_note(plain)}; setup_s median of {len(setup)} fresh imports")
    print(f"# error_rate {failed / len(passes):.4f} ({failed} of {len(passes)} passes failed)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if args.workload != "all":
            result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
            print(json.dumps(result))
            return 0
        correct = True
        for workload in WORKLOADS:
            for trace in (False, True):
                correct &= run(workload, args.seed, args.seconds, trace, root)["correct"]
        print(f"# all outputs correct: {correct}")
        return 0 if correct else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
