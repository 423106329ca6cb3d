"""Experiment runners regenerating every table and figure (S13).

One module per paper artifact; see the per-experiment index in
DESIGN.md.  All runners accept a shared :class:`ExperimentContext` so
datasets and fitted ensembles are built once per session.
"""

from .ablations import (
    CounterBudgetResult,
    DecompositionAblationResult,
    DiversityAblationResult,
    EvasionAblationResult,
    GovernorAblationResult,
    PlattAblationResult,
    run_counter_budget_ablation,
    run_decomposition_ablation,
    run_diversity_ablation,
    run_evasion_ablation,
    run_governor_ablation,
    run_platt_ablation,
)
from .claims import Claim, ClaimsResult, demonstrate_hpc_svm_failure, run_claims
from .extension_em import EmExtensionResult, run_em_extension
from .common import (
    ENSEMBLE_KINDS,
    ExperimentConfig,
    ExperimentContext,
    boxplot_stats,
    format_table,
    make_ensemble,
)
from .dashboard import DashboardResult, run_dashboard
from .fleet import FleetResult, run_fleet
from .ingest import IngestResult, run_ingest
from .fig4 import Fig4Result, run_fig4
from .fig5 import Fig5Result, run_fig5
from .fig7 import Fig7aResult, Fig7bResult, run_fig7a, run_fig7b
from .fig8 import Fig8Result, run_fig8
from .fig9 import Fig9aResult, Fig9bResult, run_fig9a, run_fig9b
from .table1 import Table1Result, run_table1

__all__ = [
    "Claim",
    "ClaimsResult",
    "CounterBudgetResult",
    "DashboardResult",
    "DecompositionAblationResult",
    "DiversityAblationResult",
    "ENSEMBLE_KINDS",
    "EmExtensionResult",
    "EvasionAblationResult",
    "ExperimentConfig",
    "ExperimentContext",
    "Fig4Result",
    "Fig5Result",
    "Fig7aResult",
    "Fig7bResult",
    "Fig8Result",
    "Fig9aResult",
    "Fig9bResult",
    "FleetResult",
    "GovernorAblationResult",
    "IngestResult",
    "PlattAblationResult",
    "Table1Result",
    "boxplot_stats",
    "demonstrate_hpc_svm_failure",
    "format_table",
    "make_ensemble",
    "run_claims",
    "run_counter_budget_ablation",
    "run_dashboard",
    "run_decomposition_ablation",
    "run_diversity_ablation",
    "run_em_extension",
    "run_evasion_ablation",
    "run_fig4",
    "run_fig5",
    "run_fig7a",
    "run_fig7b",
    "run_fig8",
    "run_fig9a",
    "run_fig9b",
    "run_fleet",
    "run_governor_ablation",
    "run_ingest",
    "run_platt_ablation",
    "run_table1",
]
