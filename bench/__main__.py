"""Fleet benchmark: windows/s end to end, per-layer self time traced.

One workload, measured in this process (the form of the
``BENCHMARK.json`` command)::

    python3 -m bench --workload hpc_rows_quantized --seed 3 --seconds 30 --trace 0

Several workloads (default: both), each in a fresh process, one after
another, traced::

    python3 -m bench [--workload a,b] [--seed 7] [--out run.jsonl]

Every measured metric is printed as ``name value unit``; a single-
workload run ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and the ``BENCHMARK.json`` metrics of its mode (end-to-end
with ``--trace 0``, per-layer with ``--trace 1``).  The exit code is
non-zero when any verdict or the accounting is wrong.  ``--out``
appends the full record, with host fingerprint and commit, as one JSON
line (``bench/ledger.jsonl`` is such a file).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host() -> dict:
    """Where a result was measured."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def _run_one(args, spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    # Located, not imported: importing the program is timed as set-up.
    if importlib.util.find_spec("repro") is None:
        print("bench: cannot find the program (src/repro); run from the repository root", file=sys.stderr)
        return 2
    from .harness import measure

    record = measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
    )
    print(f"# workload {args.workload} seed {args.seed} segments {len(record['segments'])}")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    if record["missing_layers"]:
        print(f"# missing layers: {' '.join(record['missing_layers'])}")
    for problem in record["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    if record["failed"]:
        print(f"bench: {record['failed']} of {record['attempted']} windows wrong", file=sys.stderr)
    if args.out:
        record.update(
            tag=args.tag,
            trace=args.trace,
            seconds=args.seconds,
            smoke=args.smoke,
            commit=_commit(),
            host=host(),
        )
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {m["name"]: record["metrics"][m["name"]] for m in wanted},
            }
        )
    )
    return 0 if record["correct"] else 1


def _run_each(args, names) -> int:
    """One fresh process per workload, one after another."""
    status = 0
    for name in names:
        command = [
            sys.executable, "-m", "bench",
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.out:
            command += ["--out", str(Path(args.out).resolve()), "--tag", args.tag]
        if args.smoke:
            command.append("--smoke")
        status |= subprocess.run(command, cwd=ROOT).returncode
    return 1 if status else 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", default=",".join(workloads),
        help="one workload, or a comma list run one process each (default: all)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", help="append full records (JSON lines) here")
    parser.add_argument("--tag", default="", help="label stored in --out records")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    names = [n for n in args.workload.split(",") if n]
    unknown = sorted(set(names) - set(workloads))
    if unknown or not names:
        parser.error(f"unknown workload(s) {unknown}; choose from {workloads}")
    if len(names) == 1:
        return _run_one(args, spec)
    return _run_each(args, names)


if __name__ == "__main__":
    sys.exit(main())
