"""Run one workload of the qpercept benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from `src/`.
The workloads, metrics and bounds are declared in BENCHMARK.json.

--trace 0 starts SETUPS fresh processes, each of which imports qpercept.cli
and prepares the workload; the last one also runs the timed window.  It
prints the end-to-end metrics.  --trace 1 starts one such process, which
alternates traced and untraced operations and traces the other workloads
once, and adds fresh-process import probes; it prints the per-layer
metrics.

The last line of standard output is the result
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full record, with provenance, which is also appended to
.perfbench/results.jsonl for compare.py.  Exit code 0 means the run
finished, whether or not every output was correct; 2 means it could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from stats import iqr, tail

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
SETUPS = 3
IMPORT_PROBES = {
    "bare": "pass",
    "qpercept_cli": "import qpercept.cli",
    "scipy_integrate": "import scipy.integrate",
}
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, role: str, env: dict) -> tuple[float, str]:
    """Start a worker; return seconds until it printed `ready`, and its later output."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker ({role}) exited with code {code}")
    return setup_s, rest


def import_probes(env: dict) -> dict:
    """Fresh-process import times: the bare interpreter, and each import net of it."""
    times: dict[str, list[float]] = {name: [] for name in IMPORT_PROBES}
    for _ in range(IMPORT_REPEATS):
        for name, code in IMPORT_PROBES.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT_S)
            times[name].append(time.perf_counter() - start)
    bare = statistics.median(times["bare"])
    return {
        "import.python_bare_s": bare,
        "import.qpercept_cli_s": statistics.median(times["qpercept_cli"]) - bare,
        "import.scipy_integrate_s": statistics.median(times["scipy_integrate"]) - bare,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(args, env: dict) -> tuple[dict, dict, dict]:
    """Run the workload; return (metric values, details, worker result)."""
    details: dict = {}
    if args.trace:
        values = import_probes(env)
        setups = []
    else:
        values = {}
        setups = [run_worker(args, "setup", env)[0] for _ in range(SETUPS - 1)]
    setup_s, output = run_worker(args, "run", env)
    setups.append(setup_s)
    result = json.loads(output.strip().splitlines()[-1])
    latencies = result["latencies"]
    if args.trace:
        values.update(result["layers"])
        # each traced operation is paired with an untraced one on the same
        # input, run next to it, so the pairs cancel slow drift in machine speed
        ratios = [t / u for t, u in zip(result["traced_latencies"], latencies)]
        values["trace.overhead_ratio"] = statistics.median(ratios)
        details.update(
            overhead_pairs=len(ratios),
            overhead_ratio_iqr=iqr(ratios) if len(ratios) > 1 else None,
            spans_file=result["spans_file"],
        )
    else:
        tail_value, tail_pct = tail(latencies)
        rss_kb = result["children_maxrss_kb"] if args.workload == "cli" else result["maxrss_kb"]
        values.update({
            "setup_s": statistics.median(setups),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_value,
            "ops_per_s": len(latencies) / result["elapsed"],
            "ok_ratio": (result["attempted"] - result["failed"]) / result["attempted"],
            "peak_rss_mb": rss_kb / 1024,
        })
        details.update(setup_samples_s=setups, tail_percentile=tail_pct, timed_ops=len(latencies))
    if result["first_error"]:
        details["first_error"] = result["first_error"]
    return values, details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the qpercept benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        for needed in ("src/qpercept/cli.py", "schemas/cli_output.schema.json"):
            if not (ROOT / needed).is_file():
                raise BenchError(f"{needed} not found; run from the root of a qpercept checkout")
        values, details, result = measure(args, child_env())
        declared = bench["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **line,
        "unreported": {k: v for k, v in values.items() if k not in metrics},
        "details": details,
        "provenance": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "seed": args.seed,
            "op_count": result["attempted"],
            **result["provenance"],
        },
    }
    results_dir = ROOT / ".perfbench"
    results_dir.mkdir(exist_ok=True)
    with open(results_dir / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
