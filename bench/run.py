"""Benchmark of the polytoeplitz CLI: one run of one workload.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload {battery,wide,deep} --seed N --seconds S --trace {0,1}

A run compiles the program's bytecode, generates the workload's inputs from
``--seed`` in a separate process (``gen.py``), then starts fresh measured
processes (``measure.py``) that drive ``polytoeplitz.cli.main`` on those
inputs and check every output.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
several fresh processes of the time from process start until the CLI is
imported and ready), ``wall_s`` and ``cpu_s`` (median over passes of the time
to verdict of one pass over the workload's operations, summed over the
operations, and the process's user+system CPU time over the same operations),
``peak_rss_mb`` (``ru_maxrss`` of the measured process) and ``ok_ratio``
(operations that ended as expected over operations attempted).  ``--trace 1`` runs the workload once untraced and once
with the span recorder of ``tracing.py`` installed, and reports per-layer
metrics plus ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation fails on
an unexpected exit code, an uncaught exception or a failed output check;
``correct`` is false when an operation that ran to completion gave a wrong
result.  Without the program's sources next to ``bench/`` the run exits 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("battery", "wide", "deep")
# fresh processes that only import the program, for the set-up median
SETUP_PROBES = 6
# every run must end within this many seconds
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def _child(args: list, env: dict, deadline: float) -> None:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("out of time before " + Path(args[1]).name)
    try:
        proc = subprocess.run(args, env=env, cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{Path(args[1]).name} exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise RunError(f"{Path(args[1]).name} exited {proc.returncode}:\n{proc.stderr[-3000:]}")


def _measure(work: Path, env: dict, deadline: float, extra: list) -> dict:
    result = work / "result.json"
    _child([sys.executable, str(BENCH / "measure.py"), "--result", str(result), *extra,
            "--t0", repr(time.monotonic())], env, deadline)
    return json.loads(result.read_text())


def end_to_end(run: dict, setups: list) -> dict:
    """The end-to-end metrics of one untraced measured process."""
    attempted = run["attempted"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in run["passes"]), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in run["passes"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "ok_ratio": ((attempted - run["failed"]) / attempted, "ratio"),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of the traced process, with the tracing overhead."""
    units = {"self_s": "s", "calls": "count", "errors": "count", "rss_delta_mb": "MB", "bytes": "B",
             "operand_bytes": "B", "words": "count", "pairs_checked": "count", "comparable_fraction": "ratio"}
    out = {}
    for name, value in traced["layers"].items():
        unit = "s" if name.startswith("cli.") and name.endswith("_s") else units[name.rsplit(".", 1)[1]]
        out[name] = (value, unit)
    traced_wall = statistics.median(p["wall_s"] for p in traced["passes"])
    out["trace.overhead_s"] = (traced_wall - statistics.median(p["wall_s"] for p in untraced["passes"]), "s")
    layers = sum(v for k, v in traced["layers"].items() if k.endswith(".self_s") and k.count(".") == 1
                 and not k.startswith("cli."))
    out["trace.layer_share"] = (layers / statistics.mean(p["wall_s"] for p in traced["passes"]), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the polytoeplitz CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum measured time per process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "polytoeplitz" / "cli.py").is_file():
        sys.stderr.write(f"error: program sources not found under {SRC}\n")
        return 2

    # the build: bytecode up front, so no measured process pays for compiling
    if not compileall.compile_dir(str(SRC), quiet=1):
        sys.stderr.write("error: the program's sources do not compile\n")
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        _child([sys.executable, str(BENCH / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
                "--out", str(work)], env, deadline)
        run_args = ["--dir", str(work), "--seconds", repr(args.seconds)]
        if args.trace:
            untraced = _measure(work, env, deadline, [*run_args, "--trace", "0"])
            runs = [untraced, _measure(work, env, deadline, [*run_args, "--trace", "1"])]
            metrics = per_layer(*runs)
        else:
            # half the set-up probes before the measured process and half after
            # it, tens of seconds later, so that their median spans more than
            # one phase of the machine's load
            setups = [_measure(work, env, deadline, ["--probe"])["setup_s"] for _ in range(SETUP_PROBES // 2)]
            untraced = _measure(work, env, deadline, [*run_args, "--trace", "0"])
            setups.append(untraced["setup_s"])
            setups += [_measure(work, env, deadline, ["--probe"])["setup_s"] for _ in range(SETUP_PROBES // 2)]
            runs = [untraced]
            metrics = end_to_end(untraced, setups)
    except (RunError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced['passes'])} pass(es), "
          f"{attempted} operations, {failed} failed (fail_ratio {failed / attempted:.4f})")
    for line in sorted({f for r in runs for f in r["failures"]}):
        print(f"  failed: {line}")
    for name, seconds in untraced["op_seconds"].items():
        print(f"  operation {name:32s} {seconds:14.6g} s (median)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": all(r["incorrect"] == 0 for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
