"""ModelMaintainer policy, metrics and lifecycle behaviour."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.api import fit_gmm, maintain, predict_gmm, serve
from repro.errors import ModelError
from repro.gmm.base import EMConfig
from repro.maintain import MaintenancePolicy, ModelMaintainer
from repro.obs import Telemetry, prometheus_text

from tests.maintain.test_delta_parity import (
    append_dimension,
    append_facts,
    update_dimension,
)


class TestPolicyValidation:
    def test_bad_refresh_rejected(self):
        with pytest.raises(ModelError, match="refresh"):
            MaintenancePolicy(refresh="sometimes")

    def test_bad_bounds_rejected(self):
        with pytest.raises(ModelError, match="max_pending"):
            MaintenancePolicy(max_pending=0)
        with pytest.raises(ModelError, match="drift_bound"):
            MaintenancePolicy(drift_bound=0.0)
        with pytest.raises(ModelError, match="max_staleness"):
            MaintenancePolicy(max_staleness=-1.0)

    def test_bad_kind_rejected(self, db, multiway_star):
        with pytest.raises(ModelError, match="kind"):
            ModelMaintainer(db, "m", "svm", multiway_star.spec)


class TestRefreshPolicies:
    def test_eager_applies_on_every_event(self, db, multiway_star):
        spec = multiway_star.spec
        rng = np.random.default_rng(0)
        with ModelMaintainer(
            db, "m", "linear", spec,
            policy=MaintenancePolicy(refresh="eager"),
        ) as maintainer:
            before = maintainer.model.weights.copy()
            update_dimension(db, spec, rng)
            assert maintainer.pending_events == 0
            assert not np.array_equal(maintainer.model.weights, before)

    def test_batched_coalesces_until_max_pending(self, db, multiway_star):
        spec = multiway_star.spec
        rng = np.random.default_rng(1)
        with ModelMaintainer(
            db, "m", "linear", spec,
            policy=MaintenancePolicy(refresh="batched", max_pending=3),
        ) as maintainer:
            before = maintainer.model.weights.copy()
            update_dimension(db, spec, rng)
            update_dimension(db, spec, rng)
            assert maintainer.pending_events == 2
            assert np.array_equal(maintainer.model.weights, before)
            update_dimension(db, spec, rng)   # third event trips the bound
            assert maintainer.pending_events == 0
            assert not np.array_equal(maintainer.model.weights, before)

    def test_manual_waits_for_flush(self, db, multiway_star):
        spec = multiway_star.spec
        rng = np.random.default_rng(2)
        with ModelMaintainer(
            db, "m", "linear", spec,
            policy=MaintenancePolicy(refresh="manual"),
        ) as maintainer:
            for _ in range(5):
                update_dimension(db, spec, rng)
            assert maintainer.pending_events == 5
            assert maintainer.flush()
            assert maintainer.pending_events == 0
            assert not maintainer.flush()     # nothing left to apply

    def test_poll_fires_the_staleness_trigger(self, db, multiway_star):
        spec = multiway_star.spec
        rng = np.random.default_rng(3)
        with ModelMaintainer(
            db, "m", "linear", spec,
            policy=MaintenancePolicy(
                refresh="batched", max_pending=100, max_staleness=0.02
            ),
        ) as maintainer:
            update_dimension(db, spec, rng)
            # One lone event below max_pending: only the staleness
            # clock can flush it, via poll().
            assert maintainer.pending_events == 1
            time.sleep(0.03)
            assert maintainer.poll()
            assert maintainer.pending_events == 0
            assert not maintainer.poll()      # nothing pending anymore

    def test_staleness_is_age_of_oldest_pending(self, db, multiway_star):
        spec = multiway_star.spec
        rng = np.random.default_rng(4)
        with ModelMaintainer(
            db, "m", "linear", spec,
            policy=MaintenancePolicy(refresh="manual"),
        ) as maintainer:
            assert maintainer.staleness_seconds() == 0.0
            update_dimension(db, spec, rng)
            time.sleep(0.01)
            assert maintainer.staleness_seconds() >= 0.01
            maintainer.flush()
            assert maintainer.staleness_seconds() == 0.0


class TestRefitFallbacks:
    def test_drift_bound_forces_full_refit(self, db, multiway_star):
        spec = multiway_star.spec
        config = EMConfig(n_components=2, max_iter=4, seed=0)
        fit = fit_gmm(db, spec, algorithm="factorized", config=config)
        telemetry = Telemetry(enabled=True)
        rng = np.random.default_rng(5)
        with ModelMaintainer(
            db, "m", "gmm", spec, fit, em_config=config,
            policy=MaintenancePolicy(refresh="manual", drift_bound=1e-12),
            telemetry=telemetry,
        ) as maintainer:
            update_dimension(db, spec, rng)
            maintainer.flush()
            # Any movement exceeds the bound: the refresh must have
            # been a full refit, which re-anchors drift at zero.
            assert maintainer.drift == 0.0
            text = prometheus_text(telemetry.registry.snapshot())
            assert 'repro_maintain_refits_total{model="m"} 1' in text

    def test_inplace_fact_update_forces_refit(self, db, multiway_star):
        spec = multiway_star.spec
        telemetry = Telemetry(enabled=True)
        with ModelMaintainer(
            db, "m", "linear", spec,
            policy=MaintenancePolicy(refresh="manual"),
            telemetry=telemetry,
        ) as maintainer:
            fact = spec.resolve(db).fact
            rows = fact.scan()
            replacement = rows[:2].copy()
            for pos in fact.schema.feature_positions:
                replacement[:, pos] += 0.25
            db.update_rows(fact.name, np.arange(2), replacement)
            maintainer.flush()
            text = prometheus_text(telemetry.registry.snapshot())
            assert 'repro_maintain_refits_total{model="m"} 1' in text

    def test_delta_metrics_emitted(self, db, multiway_star):
        spec = multiway_star.spec
        telemetry = Telemetry(enabled=True)
        rng = np.random.default_rng(6)
        with ModelMaintainer(
            db, "m", "linear", spec,
            policy=MaintenancePolicy(refresh="manual"),
            telemetry=telemetry,
        ) as maintainer:
            update_dimension(db, spec, rng)
            append_facts(db, spec, rng)
            maintainer.flush()
            text = prometheus_text(telemetry.registry.snapshot())
            assert 'repro_maintain_deltas_total{model="m"} 2' in text
            assert 'repro_maintain_staleness_seconds{model="m"}' in text
            aggregates = telemetry.span_aggregates()
            assert aggregates["maintain.apply"]["count"] == 1


class TestMetricsSampleTheBooks:
    def test_series_start_at_zero(self, db, multiway_star):
        # A window asserting "no refits" must read a sample, not miss one.
        telemetry = Telemetry(enabled=True)
        with ModelMaintainer(
            db, "m", "linear", multiway_star.spec,
            policy=MaintenancePolicy(refresh="manual"),
            telemetry=telemetry,
        ) as maintainer:
            snapshot = telemetry.snapshot()
            for series in (
                "repro_maintain_deltas_total",
                "repro_maintain_refits_total",
                "repro_maintain_staleness_seconds",
            ):
                assert snapshot.value(series, model="m") == 0.0
            assert snapshot.value(
                "repro_maintain_stats_bytes", model="m"
            ) == maintainer._stats.nbytes > 0

    def test_staleness_is_read_when_sampled(self, db, multiway_star):
        spec = multiway_star.spec
        telemetry = Telemetry(enabled=True)
        rng = np.random.default_rng(7)
        with ModelMaintainer(
            db, "m", "linear", spec,
            policy=MaintenancePolicy(refresh="manual"),
            telemetry=telemetry,
        ) as maintainer:
            update_dimension(db, spec, rng)
            time.sleep(0.01)
            # No flush or tick ran: the gauge still ages with the event.
            first = telemetry.snapshot().value(
                "repro_maintain_staleness_seconds", model="m"
            )
            time.sleep(0.01)
            second = telemetry.snapshot().value(
                "repro_maintain_staleness_seconds", model="m"
            )
            assert 0.01 <= first < second
            maintainer.flush()
            snapshot = telemetry.snapshot()
            assert snapshot.value(
                "repro_maintain_staleness_seconds", model="m"
            ) == 0.0
            assert snapshot.value(
                "repro_maintain_deltas_total", model="m"
            ) == 1.0

    def test_a_closed_maintainer_is_no_longer_sampled(
        self, db, multiway_star
    ):
        telemetry = Telemetry(enabled=True)
        maintainer = ModelMaintainer(
            db, "m", "linear", multiway_star.spec,
            policy=MaintenancePolicy(refresh="manual"),
            telemetry=telemetry,
        )
        assert telemetry.snapshot().family("repro_maintain_refits_total")
        maintainer.close()
        assert not any(
            name.startswith("repro_maintain_")
            for name in telemetry.snapshot().names
        )


class TestTargets:
    def test_refresh_hot_swaps_into_model_service(self, db, multiway_star):
        spec = multiway_star.spec
        config = EMConfig(n_components=2, max_iter=4, seed=1)
        fit = fit_gmm(db, spec, algorithm="factorized", config=config)
        service = serve(db)
        rng = np.random.default_rng(7)
        try:
            service.register_gmm("m", fit, spec)
            fact = spec.resolve(db).fact
            stored = fact.scan()
            features = fact.project_features(stored[:32])
            fks = np.column_stack([
                stored[:32, fact.schema.fk_position(dim.relation)]
                for dim in spec.dimensions
            ]).astype(np.int64)
            with maintain(
                db, "m", "gmm", spec, fit, em_config=config,
                policy=MaintenancePolicy(refresh="eager"),
                targets=(service,),
            ) as maintainer:
                update_dimension(db, spec, rng, count=5)
                served = service.predict("m", features, fks)
                direct = predict_gmm(
                    db, spec, maintainer.model, features, fks
                )
                assert np.array_equal(served, direct)
        finally:
            service.close()


class TestEachMaintainerOwnsItsStatistics:
    def test_two_maintainers_over_one_join_fold_every_row_once(
        self, db, multiway_star
    ):
        spec = multiway_star.spec
        rng = np.random.default_rng(9)
        manual = MaintenancePolicy(refresh="manual")
        with ModelMaintainer(
            db, "a", "linear", spec, policy=manual,
        ) as first, ModelMaintainer(
            db, "b", "linear", spec, policy=manual,
        ) as second:
            assert first.stats is not second.stats
            append_facts(db, spec, rng, count=4)
            assert first.flush() and second.flush()
            assert first.stats.n == second.stats.n == 404
            append_dimension(db, spec, rng)
            assert first.flush() and second.flush()
            assert np.array_equal(first.model.weights, second.model.weights)

    def test_close_drops_the_statistics(self, db, multiway_star):
        maintainer = ModelMaintainer(
            db, "a", "linear", multiway_star.spec,
            policy=MaintenancePolicy(refresh="manual"),
        )
        assert maintainer.stats is not None
        maintainer.close()
        assert maintainer.stats is None

    def test_closed_maintainer_ignores_events(self, db, multiway_star):
        spec = multiway_star.spec
        rng = np.random.default_rng(8)
        maintainer = ModelMaintainer(
            db, "a", "linear", spec,
            policy=MaintenancePolicy(refresh="manual"),
        )
        maintainer.close()
        update_dimension(db, spec, rng)
        assert maintainer.pending_events == 0
