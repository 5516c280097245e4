"""The measured process: runs one workload's CLI operations in a closed loop.

One process imports the program, then issues the manifest's operations back to
back through ``polytoeplitz.cli.main``, one pass after another, until
``--seconds`` have passed (at least one pass).  Only the operations are timed;
their outputs are checked after each pass.  The process writes its figures as
JSON to ``--result``.

``--probe`` only imports the program and reports the set-up time.
``--trace 1`` installs the span recorder of ``tracing.py`` first.

Usage (from ``run.py``, with the program's ``src`` on ``PYTHONPATH``)::

    python3 bench/measure.py --dir WORKDIR --seconds 20 --trace 0 --t0 T --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _out_dir(op: dict):
    argv = op["argv"]
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run_op(cli, op: dict, tracer=None) -> dict:
    """Run one CLI operation in this process; never raises for program errors."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli." + op["argv"][0].replace("-", "_")) if tracer else contextlib.nullcontext()
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            code = cli.main(op["argv"])
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught program error fails the operation
        error = f"{type(exc).__module__}.{type(exc).__name__}: {exc}"
    return {
        "name": op["name"],
        "exit": code,
        "error": error,
        "seconds": time.perf_counter() - start,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
    }


def run_pass(cli, ops: list, tracer=None) -> dict:
    """One pass over the operations; ``wall_s``/``cpu_s`` sum over the operations only.

    Each operation starts without the previous one's garbage, as it would in a
    process of its own: the program's spaces hold reference cycles to
    dim^2 arrays, and when the collector happens to run would otherwise set
    the peak RSS.  The collection is not timed.
    """
    for op in ops:
        target = _out_dir(op)
        if target:
            shutil.rmtree(target, ignore_errors=True)
    results = []
    for op in ops:
        gc.collect()
        cpu0 = _cpu()
        res = run_op(cli, op, tracer)
        res["cpu_s"] = _cpu() - cpu0
        results.append(res)
    return {
        "wall_s": sum(r["seconds"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "ops": results,
    }


def _symbol_terms(doc: dict) -> dict:
    return {
        json.dumps([t["left"], t["right"]]): complex(t["re"][0][0], t["im"][0][0]) for t in doc["terms"]
    }


def check_op(op: dict, res: dict, first: list) -> str | None:
    """Why the operation's outcome is wrong, or ``None`` when it is as expected."""
    exp = op["expect"]
    if res["error"] is not None:
        return f"uncaught {res['error']}"
    if res["exit"] != exp["exit"]:
        return f"exit {res['exit']}, expected {exp['exit']}: {res['stderr'].strip()[-300:]}"
    try:
        return _check_report(op, res, first)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable or incomplete output: {type(exc).__name__}: {exc}"


def _check_report(op: dict, res: dict, first: list) -> str | None:
    exp = op["expect"]
    out = _out_dir(op)
    if out:
        report = json.loads(Path(out, op["argv"][0] + "-report.json").read_text())
    else:
        report = json.loads(res["stdout"])
    if "passed" in exp and report.get("passed") is not exp["passed"]:
        return f"passed is {report.get('passed')}, expected {exp['passed']}"
    if "same_stdout_as" in exp and res["stdout"] != first[exp["same_stdout_as"]]["stdout"]:
        return "report differs from the earlier run of the same seed"
    if "verdict" in exp and report["report"]["verdict"] is not exp["verdict"]:
        return f"verdict {report['report']['verdict']}, expected {exp['verdict']}"
    if "worst_pair" in exp and report["report"]["worst_pair"] != exp["worst_pair"]:
        return f"worst pair {report['report']['worst_pair']}, expected {exp['worst_pair']}"
    if "max_residual" in exp:
        worst = max(report["residuals"])
        if not worst <= exp["max_residual"]:
            return f"structural residual {worst:.3e} above {exp['max_residual']:.0e}"
    if "symbol" in exp:
        got = _symbol_terms(json.loads(Path(out, "symbol.json").read_text()))
        want = _symbol_terms(json.loads(Path(exp["symbol"]).read_text()))
        dev = max(abs(got.get(key, 0) - want.get(key, 0)) for key in set(got) | set(want))
        if not dev <= exp["symbol_tol"]:
            return f"extracted symbol deviates by {dev:.3e} from the planted one"
    return None


def run(seconds: float, tracer=None) -> dict:
    """Run passes of the manifest in the current directory for ``seconds``.

    Returns the pass figures and the operation counts.  The manifest's paths
    are relative to the current directory.
    """
    from polytoeplitz import cli

    manifest = json.loads(Path("manifest.json").read_text())
    ops = manifest["ops"]
    passes, outcomes, first = [], [], None
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        p = run_pass(cli, ops, tracer)
        first = first or p["ops"]
        for op, res in zip(ops, p["ops"]):
            reason = check_op(op, res, first)
            outcomes.append({
                "name": op["name"],
                "seconds": res["seconds"],
                "crashed": res["error"] is not None,
                "reason": reason,
            })
        passes.append({"wall_s": p["wall_s"], "cpu_s": p["cpu_s"]})
    failed = [o for o in outcomes if o["reason"] is not None]
    op_seconds = {op["name"]: statistics.median(o["seconds"] for o in outcomes if o["name"] == op["name"])
                  for op in ops}
    return {
        "passes": passes,
        "op_seconds": op_seconds,
        "attempted": len(outcomes),
        "failed": len(failed),
        "incorrect": sum(not o["crashed"] for o in failed),
        "failures": sorted({f"{o['name']}: {o['reason']}" for o in failed}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="measured process of the benchmark")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent spawned us")
    parser.add_argument("--result", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--dir")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from polytoeplitz import cli

    cli.build_parser()
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if not args.probe:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer().install()
        os.chdir(args.dir)
        result.update(run(args.seconds, tracer))
        if tracer is not None:
            from tracing import summarize

            result["layers"] = summarize(tracer.spans, tracer.counts, len(result["passes"]))
    Path(args.result).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
