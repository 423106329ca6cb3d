"""Compare two sets of benchmark runs by the repository's rule.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl --run PARENT_DIR CHANGE_DIR

The files hold full run records (``python3 -m bench ... --out FILE``).
Within each workload the i-th parent run and the i-th change run form a
pair.  ``--run`` first makes 10 pairs: for every workload it runs the
benchmark in the two checkouts alternately (seeds 1..10, the side that
goes first swapping every pair) and appends to the two files.

Per workload and end-to-end metric the report gives each side's median
and quartiles and one verdict:

* ``gain`` — the change wins at least 9 of every 10 pairs (ties count
  for neither) and the medians differ by more than the parent's
  interquartile range;
* ``REGRESSION`` — the change's median is worse than the parent's by
  more than the metric's ``BENCHMARK.json`` bound (a share of the
  parent's median; with a bound of 0, as the withheld shares have, any
  worsening at all);
* ``unresolved`` — either side's spread (IQR / median) is wider than
  the bound, unless every change run beats every parent run;
* ``same`` — none of the above.

A claim needs at least 10 pairs; with fewer, nothing is called a gain,
and neither is anything when the change failed more windows than the
parent.  The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(path) -> dict[str, list[dict]]:
    """Records per workload, in file order."""
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better (ties count for neither)."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def verdict(
    parent: list[float], change: list[float], *, better: str, bound: float, claimable: bool = True
) -> str:
    """The comparison rule for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    n = min(len(parent), len(change))
    if sign * (pm - cm) > bound * abs(pm):
        return "REGRESSION"
    if (
        claimable
        and n >= MIN_PAIRS
        and wins(parent, change, better) >= 0.9 * n
        and sign * (cm - pm) > p3 - p1
    ):
        return "gain"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    return "same"


def compare(parent_runs: dict, change_runs: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines, and whether any metric regressed."""
    lines, regressed = [], False
    for workload in (w["name"] for w in spec["workloads"]):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        n = min(len(parent), len(change))
        if not n:
            continue
        failed = [sum(r["failed"] for r in side[:n]) for side in (parent, change)]
        note = "" if n >= MIN_PAIRS else f"  (only {n} pairs: no gain can be claimed)"
        lines.append(
            f"{workload}: {n} pairs, failed windows parent {failed[0]} "
            f"change {failed[1]}{note}"
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in parent[:n] if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in change[:n] if name in r["metrics"]]
            if not a or not b:
                continue
            result = verdict(
                a,
                b,
                better=metric["better"],
                bound=metric["bound"],
                claimable=failed[1] <= failed[0],
            )
            regressed |= result == "REGRESSION"
            pa, pb = quartiles(a), quartiles(b)
            lines.append(
                f"  {name:<24} parent {pa[1]:.6g} [{pa[0]:.6g}, {pa[2]:.6g}]"
                f"  change {pb[1]:.6g} [{pb[0]:.6g}, {pb[2]:.6g}]"
                f"  wins {wins(a, b, metric['better'])}/{min(len(a), len(b))}  {result}"
            )
    return lines, regressed


def run_pairs(parent_dir, change_dir, parent_out, change_out, spec) -> None:
    """Alternate benchmark runs in the two checkouts, appending records."""
    sides = [(Path(parent_dir), Path(parent_out).resolve()), (Path(change_dir), Path(change_out).resolve())]
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in range(1, MIN_PAIRS + 1):
            order = sides if seed % 2 else sides[::-1]
            for checkout, out in order:
                command = [
                    sys.executable, "-m", "bench",
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", "0",
                    "--out", str(out),
                ]
                # A run with wrong verdicts still appends its record (and
                # its failed count), so a broken side shows in the report.
                subprocess.run(command, cwd=checkout, stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="parent runs (JSON lines)")
    parser.add_argument("change", help="change runs (JSON lines)")
    parser.add_argument("--run", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.run:
        run_pairs(*args.run, args.parent, args.change, spec)
    lines, regressed = compare(load(args.parent), load(args.change), spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
