"""Run one workload's passes back to back in this fresh interpreter.

Reads a job from stdin as JSON, ``{"src": dir, "argvs": [[...], ...],
"seconds": s, "trace": bool}``, and prints one JSON line: every pass with its
wall time and error, the distinct outputs keyed by digest, the per-layer
metrics of traced passes and this process's peak RSS.  ncpower is imported
from ``src`` and its stdout and stderr are captured per CLI call.

A timed run repeats a plain pass.  A traced run alternates a plain pass with
a traced one, so the tracing overhead is measured in the same process.  A
new pass (or pair) starts only while the median one still fits before the
deadline; the first always runs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Trace, traced


def run_pass(cli, argvs: list[list[str]]) -> tuple[float, list[str], str | None]:
    """One closed-loop pass: every argv through ``cli.main`` in order."""
    outputs: list[str] = []
    error = None
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception as exc:  # a crashing pass is counted as failed, the run goes on
            error = f"{' '.join(argv)}: {type(exc).__name__}: {exc}"
        if error is None and code != 0:
            error = f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}"
        outputs.append(out.getvalue())
        if error is not None:
            break
    return time.perf_counter() - start, outputs, error


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import ncpower.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: ncpower was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    kinds = ("plain", "traced") if job["trace"] else ("plain",)
    passes, outputs, cycles = [], {}, []
    deadline = time.perf_counter() + job["seconds"]
    while True:
        cycle_start = time.perf_counter()
        for kind in kinds:
            record = {"kind": kind}
            if kind == "traced":
                trace = Trace()
                with traced(trace):
                    seconds, texts, error = run_pass(cli, job["argvs"])
                record["layers"] = trace.layer_metrics(seconds)
            else:
                seconds, texts, error = run_pass(cli, job["argvs"])
            digest = hashlib.sha256(json.dumps(texts).encode()).hexdigest()
            outputs.setdefault(digest, texts)
            record.update(seconds=seconds, error=error, digest=digest)
            passes.append(record)
        now = time.perf_counter()
        cycles.append(now - cycle_start)
        if now + statistics.median(cycles) > deadline:
            break

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"passes": passes, "outputs": outputs, "peak_rss_kb": peak_rss_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
