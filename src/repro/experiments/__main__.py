"""Command-line experiment runner.

Regenerate any (or all) of the paper's tables and figures:

    python -m repro.experiments --list
    python -m repro.experiments table1 fig4 claims --dvfs-scale 0.5
    python -m repro.experiments all --dvfs-scale 1.0 --hpc-scale 0.25
"""

from __future__ import annotations

import argparse
import sys
import time

from . import (
    ExperimentConfig,
    run_counter_budget_ablation,
    ExperimentContext,
    run_claims,
    run_dashboard,
    run_decomposition_ablation,
    run_diversity_ablation,
    run_fig4,
    run_fig5,
    run_fig7a,
    run_fig7b,
    run_fig8,
    run_fig9a,
    run_fig9b,
    run_em_extension,
    run_evasion_ablation,
    run_fleet,
    run_governor_ablation,
    run_ingest,
    run_platt_ablation,
    run_table1,
)

RUNNERS = {
    "table1": run_table1,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig7a": run_fig7a,
    "fig7b": run_fig7b,
    "fig8": run_fig8,
    "fig9a": run_fig9a,
    "fig9b": run_fig9b,
    "claims": run_claims,
    "ablation-platt": run_platt_ablation,
    "ablation-decomposition": run_decomposition_ablation,
    "ablation-diversity": run_diversity_ablation,
    "ablation-governor": run_governor_ablation,
    "ablation-evasion": run_evasion_ablation,
    "ablation-counter-budget": run_counter_budget_ablation,
    "extension-em": run_em_extension,
    "fleet": run_fleet,
    "ingest": run_ingest,
    "dashboard": run_dashboard,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help="experiment names (or 'all'); see --list",
    )
    parser.add_argument("--list", action="store_true", help="list experiment names")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dvfs-scale", type=float, default=0.5,
                        help="fraction of the Table I DVFS counts (1.0 = paper)")
    parser.add_argument("--hpc-scale", type=float, default=0.1,
                        help="fraction of the Table I HPC counts (1.0 = paper)")
    parser.add_argument("--n-estimators", type=int, default=100,
                        help="ensemble size M")
    parser.add_argument("--quantized", action="store_true",
                        help="ingest/dashboard experiments: hist-grown ensemble "
                             "traversed in uint8 bin codes (float64 front, "
                             "votes identical by construction)")
    parser.add_argument("--telemetry", action="store_true",
                        help="ingest experiment: drain with a live "
                             "metrics registry and print the snapshot "
                             "summary after the result")
    parser.add_argument("--telemetry-out", type=str, default=None,
                        metavar="PATH",
                        help="ingest experiment: append the final "
                             "telemetry snapshot to this JSONL file "
                             "(implies --telemetry)")
    parser.add_argument("--frames", type=int, default=None, metavar="N",
                        help="dashboard experiment: number of drive slices "
                             "/ rendered frames (default 6)")
    parser.add_argument("--refresh", type=float, default=None, metavar="S",
                        help="dashboard experiment: pause between live "
                             "frames in seconds (default 0, full speed)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.list:
        print("\n".join(RUNNERS))
        return 0

    names = list(RUNNERS) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in RUNNERS]
    if unknown:
        print(f"Unknown experiments: {unknown}; use --list.", file=sys.stderr)
        return 2

    config = ExperimentConfig(
        seed=args.seed,
        dvfs_scale=args.dvfs_scale,
        hpc_scale=args.hpc_scale,
        n_estimators=args.n_estimators,
    )
    context = ExperimentContext(config)
    for name in names:
        t0 = time.time()
        kwargs = {}
        if name in ("ingest", "dashboard"):
            if args.quantized:
                kwargs["quantized"] = True
        if name == "ingest":
            if args.telemetry:
                kwargs["telemetry"] = True
            if args.telemetry_out is not None:
                kwargs["telemetry_out"] = args.telemetry_out
        if name == "dashboard":
            if args.frames is not None:
                kwargs["frames"] = args.frames
            if args.refresh is not None:
                kwargs["refresh"] = args.refresh
        result = RUNNERS[name](context=context, **kwargs)
        print(f"\n{'=' * 70}\n{name}  [{time.time() - t0:.1f}s]\n{'=' * 70}")
        print(result.as_text())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
