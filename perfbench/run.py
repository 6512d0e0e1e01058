"""Benchmark of the toricgf CLI: one workload per invocation.

    python3 perfbench/run.py --workload fan3d_brion --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  Each
operation is one in-process call of ``toricgf.cli.main`` with the argv a user
would type.  The run repeats whole rounds of its operations until
``--seconds`` have passed, checks every report with ``checks.py``, and
prints one JSON object as its last line: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a run with spans
recorded around the package's functions.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 7
# The machine this benchmark runs on drifts in speed by tens of percent
# over minutes, for every program alike.  A fixed pure-Python probe, run
# between operations at least every PROBE_EVERY_S, measures that speed;
# operation times are scaled to a machine on which the probe takes
# REFERENCE_PROBE_S.
PROBE_EVERY_S = 0.5
REFERENCE_PROBE_S = 0.016
_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import toricgf.cli; "
                 "print(time.perf_counter() - t)")


def measure_setup() -> float:
    """Median time to import toricgf.cli in a fresh interpreter.

    One untimed import first writes the bytecode caches, as any earlier use
    of the checkout would have.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append(float(done.stdout))
    return statistics.median(samples)


def speed_probe() -> float:
    """Seconds for a fixed mix of tuple, dict and integer work."""
    t0 = perf_counter()
    table: dict = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + sum(x * y for x, y in zip(key, (3, 5)))
    sorted(table.items())
    return perf_counter() - t0


def invoke(main, argv):
    """Call the CLI entry point the way the console script would.

    Returns (seconds, exit code, stdout bytes, stderr text).  An exception
    that escapes ``main`` would end a real process with code 1 and a
    traceback, so it counts as exit code 1.
    """
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the operation boundary: record and go on
            code = 1
            err.write(f"uncaught {type(exc).__name__}: {exc}\n")
        elapsed = perf_counter() - t0
        out.flush()
    return elapsed, code, buf.getvalue(), err.getvalue()


def _degrees(op, report) -> int:
    """Degrees an operation processes: its region's candidates, or 1."""
    if op.kind == "query":
        return 1
    size = 1
    for lo, hi in report["region"]:
        size *= hi - lo + 1
    return size


def _failure(code, err) -> str:
    lines = err.strip().splitlines()
    return f"exit {code}: {lines[-1] if lines else ''}"


def run(workload: str, seed: int, seconds: float, tracer) -> dict:
    """Run whole rounds of the workload's operations for ``seconds``."""
    setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    import toricgf.cli as cli

    ops = workloads.operations(workload, seed)
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / ".work"))
    try:
        argvs = []
        for i, op in enumerate(ops):
            path = workdir / f"op{i}.spec"
            path.write_text(workloads.spec_text(op.spec))
            argvs.append([str(path) if a == "{spec}" else a for a in op.argv])
        if tracer:
            tracer.install()
        verified: dict[int, bytes] = {}   # op index -> report already checked
        degrees: dict[int, int] = {}
        failures: dict[str, str] = {}
        layer_sums: dict[str, float] = {}
        op_times: dict[int, list[float]] = {}
        attempted = failed = wrong = rounds = 0
        start = perf_counter()
        probes = [speed_probe()]
        last_probe = perf_counter()
        while rounds == 0 or perf_counter() - start < seconds:
            for i, op in enumerate(ops):
                if perf_counter() - last_probe >= PROBE_EVERY_S:
                    probes.append(speed_probe())
                    last_probe = perf_counter()
                if tracer:
                    tracer.reset_op()
                    mark = tracer.mark()
                elapsed, code, out, err = invoke(cli.main, argvs[i])
                attempted += 1
                reason = None
                if code != 0:
                    reason = _failure(code, err)
                elif verified.get(i) != out:
                    try:
                        report = json.loads(out)
                        reason = checks.check(op, report)
                    except (ValueError, KeyError, TypeError, IndexError) as exc:
                        reason = f"malformed report: {exc!r}"
                    if reason is None:
                        verified[i] = out
                        degrees[i] = _degrees(op, report)
                    else:
                        wrong += 1
                if reason is not None:
                    failed += 1
                    failures[op.label] = reason
                    continue
                op_times.setdefault(i, []).append(elapsed)
                if tracer:
                    for key, value in tracer.op_totals(mark).items():
                        layer_sums[key] = layer_sums.get(key, 0.0) + value
            rounds += 1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    op_seconds = {i: statistics.median(v) for i, v in op_times.items()}
    return {"setup_s": setup_s, "attempted": attempted, "failed": failed,
            "wrong": wrong, "rounds": rounds, "ops_per_round": len(ops),
            "successes": sum(map(len, op_times.values())),
            "per_op": [(op_seconds[i], degrees[i]) for i in sorted(op_seconds)],
            "op_seconds": {ops[i].label: t for i, t in op_seconds.items()},
            "failures": failures, "layer_sums": layer_sums,
            "probe_s": statistics.median(probes), "probes": len(probes)}


def end_to_end(res) -> dict:
    """Each operation's time is its median over the rounds, so that one
    slow sample or the gap between two operations' times cannot set a
    metric, scaled to the reference machine speed."""
    scale = REFERENCE_PROBE_S / res["probe_s"]
    secs = [t * scale for t, _ in res["per_op"]]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "job_s.p50": (statistics.median(secs), "s"),
        "degrees_per_s": (sum(d for _, d in res["per_op"]) / sum(secs), "1/s"),
        "setup_s": (res["setup_s"], "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def per_layer(res) -> dict:
    ok = res["successes"]
    sums = res["layer_sums"]
    return {name: (sums.get(spans.layer_source(name), 0.0) / ok, spans.layer_unit(name))
            for name in spans.LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toricgf" / "cli.py").is_file():
        print(f"error: no toricgf package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    tracer = spans.Tracer() if args.trace else None
    res = run(args.workload, args.seed, args.seconds, tracer)
    if not res["per_op"]:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    metrics = per_layer(res) if tracer else end_to_end(res)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {k: res[k] for k in ("attempted", "failed", "wrong", "rounds",
                                  "ops_per_round", "failures", "op_seconds",
                                  "probe_s", "probes")}
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
    wall = [t for t, _ in res["per_op"]]
    detail["wall_job_s.p50"] = statistics.median(wall)
    detail["wall_job_s.mean"] = statistics.fmean(wall)
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if tracer:
        tracer.dump(RESULTS / f"{stem}-spans.json")

    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
