"""Compare the benchmark results of two commits, one row per workload.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records run.py appends to `.perfbench/results.jsonl` in
a checkout of one commit.  Only untraced records whose --seconds equals
BENCHMARK.json's run_seconds are read.  A parent run is paired with the
change run of the same workload and seed (the k-th repeat of a seed with
the k-th), so run the two checkouts alternately with the same seeds,
swapping which goes first on each pair.  Runs without a partner are left
out and counted on standard error.

Each (workload, end-to-end metric) cell gets one verdict, using the bounds
in BENCHMARK.json:

  gain        the change wins at least 9/10 of at least 10 pairs (ties count
              for neither) and the medians differ by more than the parent's
              interquartile range, and the change failed no more operations
              than the parent over the paired runs
  unresolved  either side's interquartile range, as a share of its median,
              exceeds the bound, and not every change run beats every
              parent run
  regressed   the change's median is worse than the parent's by more than
              the bound
  ok          none of the above
  too-few     fewer than two pairs

The exit code is 1 when any cell regressed, else 0.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from stats import iqr, spread

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str, seconds: float) -> dict[tuple[str, int, int], dict]:
    """Untraced runs of the given length, keyed by (workload, seed, repeat of that seed)."""
    runs: dict[tuple[str, int, int], dict] = {}
    repeats: dict[tuple[str, int], int] = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] != 0 or record["seconds"] != seconds:
                continue
            key = (record["workload"], record["seed"])
            repeats[key] = repeats.get(key, -1) + 1
            runs[(*key, repeats[key])] = record
    return runs


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool) -> tuple[str, float]:
    """Verdict for one cell of paired runs, and the change of the median as a share of the parent's."""
    if len(parent) < 2:
        return "too-few", float("nan")
    beats = (lambda c, p: c < p) if better == "lower" else (lambda c, p: c > p)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    delta = (c_med - p_med) / p_med if p_med else 0.0
    wins = sum(beats(c, p) for p, c in zip(parent, change))
    if (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent) and not more_failures
            and beats(c_med, p_med) and abs(c_med - p_med) > iqr(parent)):
        return "gain", delta
    every_run_better = all(beats(c, p) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not every_run_better:
        return "unresolved", delta
    worse = delta if better == "lower" else -delta
    return ("regressed" if worse > bound else "ok"), delta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare benchmark results of a parent and a change.")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    parent = load(args.parent, bench["run_seconds"])
    change = load(args.change, bench["run_seconds"])
    regressed = False
    print("workload\t" + "\t".join(m["name"] for m in metrics))
    for workload in [w["name"] for w in bench["workloads"]]:
        keys = [k for k in parent if k[0] == workload and k in change]
        unpaired = sum(k[0] == workload and k not in keys for k in [*parent, *change])
        if unpaired:
            print(f"warning: {workload}: {unpaired} runs have no partner with the same seed", file=sys.stderr)
        p_runs, c_runs = [parent[k] for k in keys], [change[k] for k in keys]
        more_failures = sum(r["failed"] for r in c_runs) > sum(r["failed"] for r in p_runs)
        if more_failures:
            print(f"warning: {workload}: the change failed more operations; no gain is claimed", file=sys.stderr)
        cells = []
        for m in metrics:
            name = m["name"]
            result, delta = verdict(
                [r["metrics"][name]["value"] for r in p_runs],
                [r["metrics"][name]["value"] for r in c_runs],
                m["better"],
                m["bound"],
                more_failures,
            )
            regressed |= result == "regressed"
            cells.append(f"{result} {delta:+.1%}")
        print(f"{workload} ({len(keys)} pairs)\t" + "\t".join(cells))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
