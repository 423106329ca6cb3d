"""Smoke-scale runs of every experiment runner (shapes, not magnitudes).

The paper-shape assertions at meaningful scale live in
tests/integration/; here we verify each runner produces well-formed
output quickly on the shared small context.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.experiments import (
    run_decomposition_ablation,
    run_diversity_ablation,
    run_fleet,
    run_fig4,
    run_fig5,
    run_fig7a,
    run_fig7b,
    run_fig8,
    run_fig9a,
    run_fig9b,
    run_ingest,
    run_platt_ablation,
    run_table1,
)


class TestTable1:
    def test_rows_and_text(self, small_context):
        result = run_table1(context=small_context)
        assert len(result.rows) == 6
        assert "Table I" in result.as_text()

    def test_scaled_counts_not_paper(self, small_context):
        result = run_table1(context=small_context)
        assert not result.matches_paper()  # context is at smoke scale


class TestFig4:
    def test_all_kind_split_pairs(self, small_context):
        result = run_fig4(context=small_context)
        kinds = {k for k, _ in result.stats}
        assert kinds == {"rf", "lr", "svm"}
        assert all(s in ("known", "unknown") for _, s in result.stats)

    def test_stats_are_valid_boxplots(self, small_context):
        result = run_fig4(context=small_context)
        for stats in result.stats.values():
            assert stats["q1"] <= stats["median"] <= stats["q3"]
            assert 0 <= stats["min"] <= stats["max"] <= 1.0 + 1e-9

    def test_rf_separation_positive(self, small_context):
        result = run_fig4(context=small_context)
        assert result.separation("rf") > 0

    def test_text_renders(self, small_context):
        assert "Fig. 4" in run_fig4(context=small_context).as_text()


class TestFig5:
    def test_hpc_kinds_no_svm(self, small_context):
        result = run_fig5(context=small_context)
        kinds = {k for k, _ in result.stats}
        assert kinds == {"rf", "lr"}

    def test_text_renders(self, small_context):
        assert "SVM omitted" in run_fig5(context=small_context).as_text()


class TestFig7:
    def test_fig7a_curves_monotone(self, small_context):
        result = run_fig7a(context=small_context)
        for curve in result.curves.values():
            assert np.all(np.diff(curve) <= 1e-9)
            assert np.all((curve >= 0) & (curve <= 100))

    def test_fig7a_operating_point(self, small_context):
        result = run_fig7a(context=small_context)
        known, unknown = result.operating_point("rf", 0.40)
        assert 0 <= known <= 100 and 0 <= unknown <= 100

    def test_fig7b_series_aligned(self, small_context):
        result = run_fig7b(context=small_context)
        assert len(result.dvfs_rows) == len(result.hpc_rows) == len(result.thresholds)

    def test_fig7b_f1_bounds(self, small_context):
        result = run_fig7b(context=small_context)
        for row in result.dvfs_rows + result.hpc_rows:
            if row["f1"] is not None:
                assert 0.0 <= row["f1"] <= 1.0

    def test_text_renders(self, small_context):
        assert "threshold" in run_fig7a(context=small_context).as_text()
        assert "RF-DVFS" in run_fig7b(context=small_context).as_text()


class TestFig8:
    def test_embeddings_and_metrics(self, small_context):
        result = run_fig8(context=small_context, n_embed=200, tsne_iterations=60)
        for domain in ("dvfs", "hpc"):
            Y, labels, groups = result.embeddings[domain]
            assert Y.shape[1] == 2
            assert len(labels) == len(groups) == len(Y)
            assert set(np.unique(groups)) <= {"benign", "malware", "unknown"}
            metrics = result.metrics[domain]
            assert 0 <= metrics["train_neighborhood_purity"] <= 1

    def test_dvfs_purer_than_hpc(self, small_context):
        result = run_fig8(context=small_context, n_embed=200, tsne_iterations=60)
        assert (
            result.metrics["dvfs"]["train_neighborhood_purity"]
            > result.metrics["hpc"]["train_neighborhood_purity"]
        )


class TestFig9:
    def test_fig9a_sizes_filtered_to_ensemble(self, small_context):
        result = run_fig9a(context=small_context)
        max_m = small_context.config.n_estimators
        assert all(m <= max_m for m in result.sizes)
        assert len(result.known) == len(result.sizes)

    def test_fig9a_single_member_zero_entropy(self, small_context):
        result = run_fig9a(context=small_context)
        assert result.known[0] == pytest.approx(0.0)

    def test_fig9a_stabilization_reported(self, small_context):
        result = run_fig9a(context=small_context)
        assert result.stabilization_size() in result.sizes

    def test_fig9b_curves_bounded(self, small_context):
        result = run_fig9b(context=small_context)
        for curve in result.curves.values():
            assert np.all((curve >= 0) & (curve <= 100))

    def test_fig9b_tracking_error_small_for_hpc(self, small_context):
        result = run_fig9b(context=small_context)
        # HPC known/unknown rejection curves track closely (< 25 %pts
        # even at smoke scale).
        assert result.known_unknown_tracking_error("rf") < 25.0


class TestAblations:
    def test_platt_ablation_fields(self, small_context):
        result = run_platt_ablation(context=small_context)
        assert 0 <= result.platt_auc <= 1
        assert 0 <= result.entropy_auc <= 1
        assert "A1" in result.as_text()

    def test_entropy_beats_platt(self, small_context):
        result = run_platt_ablation(context=small_context)
        assert result.entropy_wins()

    def test_decomposition_rows_complete(self, small_context):
        result = run_decomposition_ablation(context=small_context)
        assert len(result.rows_) == 4
        for _, _, total, aleatoric, epistemic in result.rows_:
            assert total == pytest.approx(aleatoric + epistemic, abs=1e-6)

    def test_dvfs_unknown_epistemic_dominant(self, small_context):
        result = run_decomposition_ablation(context=small_context)
        assert result.mean_epistemic("dvfs", "unknown") > result.mean_epistemic(
            "dvfs", "known"
        )

    def test_hpc_aleatoric_dominant(self, small_context):
        result = run_decomposition_ablation(context=small_context)
        assert result.mean_aleatoric("hpc", "known") > result.mean_epistemic(
            "hpc", "known"
        )

    def test_diversity_ablation_rows(self, small_context):
        result = run_diversity_ablation(
            context=small_context, n_estimators=8, max_samples_grid=(0.5, 1.0)
        )
        assert len(result.rows_) == 6  # 3 bases x 2 sizes
        for _, _, diversity, auc in result.rows_:
            assert 0 <= diversity <= 1
            assert 0 <= auc <= 1

    def test_accessors_raise_on_unknown_config(self, small_context):
        result = run_diversity_ablation(
            context=small_context, n_estimators=8, max_samples_grid=(1.0,)
        )
        with pytest.raises(KeyError):
            result.diversity("tree", 0.123)
        with pytest.raises(KeyError):
            result.auc("boosted", 1.0)


class TestGovernorAblation:
    def test_rows_complete(self, small_context):
        from repro.experiments import run_governor_ablation

        result = run_governor_ablation(context=small_context, n_estimators=15)
        governors = {row[0] for row in result.rows_}
        assert governors == {"ondemand", "conservative", "performance"}

    def test_performance_governor_destroys_signal(self, small_context):
        from repro.experiments import run_governor_ablation

        result = run_governor_ablation(context=small_context, n_estimators=15)
        # Pinning the max frequency removes the workload modulation: both
        # classification quality and unknown detection collapse.
        assert result.f1("performance") < result.f1("ondemand") - 0.1
        assert result.unknown_auc("performance") < result.unknown_auc("ondemand") - 0.2

    def test_accessors_raise(self, small_context):
        from repro.experiments import run_governor_ablation
        import pytest as _pytest

        result = run_governor_ablation(context=small_context, n_estimators=15)
        with _pytest.raises(KeyError):
            result.f1("schedutil")


class TestEmExtension:
    def test_runs_and_reports(self, small_context):
        from repro.experiments import run_em_extension

        result = run_em_extension(context=small_context)
        assert "Extension E1" in result.as_text()
        assert 0 <= result.unknown_auc <= 1
        assert result.f1_known > 0.8

    def test_framework_transfers_to_em(self, small_context):
        from repro.experiments import run_em_extension

        result = run_em_extension(context=small_context)
        # Unknown workloads carry more entropy than known ones on the EM
        # channel too — the estimator is sensor-agnostic.
        assert result.separation() > 0.1
        assert result.unknown_auc > 0.6


class TestEvasionAblation:
    def test_rows_and_accessors(self, small_context):
        from repro.experiments import run_evasion_ablation

        result = run_evasion_ablation(
            context=small_context, stealth_levels=(0.0, 0.5), n_windows=15
        )
        assert len(result.rows_) == 2
        assert 0 <= result.detected(0.0) <= 1
        with pytest.raises(KeyError):
            result.detected(0.123)

    def test_plain_malware_fully_handled(self, small_context):
        from repro.experiments import run_evasion_ablation

        result = run_evasion_ablation(
            context=small_context, stealth_levels=(0.0,), n_windows=20
        )
        # Unmodified ransomware: detected or flagged, near-always.
        assert result.caught(0.0) > 0.9

    def test_stealth_decays_raw_detection(self, small_context):
        from repro.experiments import run_evasion_ablation

        result = run_evasion_ablation(
            context=small_context, stealth_levels=(0.0, 0.7), n_windows=25
        )
        assert result.detected(0.7) < result.detected(0.0)

    def test_uncertainty_recovers_part_of_the_loss(self, small_context):
        from repro.experiments import run_evasion_ablation

        result = run_evasion_ablation(
            context=small_context, stealth_levels=(0.5,), n_windows=25
        )
        assert result.caught(0.5) > result.detected(0.5)


class TestCounterBudgetAblation:
    def test_rows_and_accessor(self, small_context):
        from repro.experiments import run_counter_budget_ablation

        result = run_counter_budget_ablation(
            context=small_context, budgets=(4, 8), n_estimators=15
        )
        assert len(result.rows_) == 2
        assert 0 <= result.f1(4) <= 1
        with pytest.raises(KeyError):
            result.f1(99)

    def test_budget_clamped_to_feature_count(self, small_context):
        from repro.experiments import run_counter_budget_ablation

        result = run_counter_budget_ablation(
            context=small_context, budgets=(1000,), n_estimators=10
        )
        ds = small_context.dataset("hpc")
        assert result.rows_[0][0] == ds.n_features

    def test_small_budget_remains_usable(self, small_context):
        from repro.experiments import run_counter_budget_ablation

        result = run_counter_budget_ablation(
            context=small_context, budgets=(4,), n_estimators=15
        )
        # Even 4 well-chosen features keep the detector above chance.
        assert result.f1(4) > 0.55

    def test_features_ranked(self, small_context):
        from repro.experiments import run_counter_budget_ablation

        result = run_counter_budget_ablation(
            context=small_context, budgets=(4,), n_estimators=10
        )
        ds = small_context.dataset("hpc")
        assert len(result.selected_features) == ds.n_features


class TestFleet:
    def test_smoke_run(self, small_context):
        result = run_fleet(
            context=small_context,
            n_devices=8,
            windows_per_device=6,
            batch_size=16,
        )
        assert result.n_devices == 8
        assert result.n_windows == 48
        assert result.verdicts_identical
        assert result.sequential_wps > 0 and result.batched_wps > 0
        text = result.as_text()
        assert "Fleet monitoring" in text and "speedup" in text

    def test_audit_and_restore_identical(self, small_context):
        result = run_fleet(
            context=small_context,
            n_devices=24,
            windows_per_device=12,
            batch_size=32,
        )
        flags = {k: v for k, v in asdict(result).items() if k.endswith("_identical")}
        assert len(flags) == 2
        assert all(value is True for value in flags.values()), flags
        assert result.n_windows == 24 * 12
        assert result.windows_lost == 0
        text = result.as_text()
        assert "identical: False" not in text and "windows lost: 0" in text


class TestIngest:
    def test_batched_front_matches_reference(self, small_context):
        result = run_ingest(
            context=small_context, n_devices=12, windows_per_device=4, batch_size=32
        )
        assert result.n_windows == 48
        assert result.features_identical
        assert result.verdicts_identical
