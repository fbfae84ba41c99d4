"""The synthetic star-schema generator (Section VII-A setup)."""

import numpy as np
import pytest

from repro.data.synthetic import (
    DimensionSpec,
    StarSchemaConfig,
    generate_star,
)
from repro.errors import ModelError
from repro.join.reference import nested_loop_join


class TestConfigValidation:
    def test_binary_helper(self):
        config = StarSchemaConfig.binary(
            n_s=100, n_r=10, d_s=3, d_r=4
        )
        assert config.num_dimensions_ok if hasattr(
            config, "num_dimensions_ok"
        ) else True
        assert config.dimensions[0].n_rows == 10
        assert config.tuple_ratio == 10.0

    def test_invalid_ns(self):
        with pytest.raises(ModelError):
            StarSchemaConfig.binary(n_s=0, n_r=10, d_s=3, d_r=4)

    def test_needs_dimensions(self):
        with pytest.raises(ModelError):
            StarSchemaConfig(n_s=10, d_s=2, dimensions=())

    def test_invalid_noise(self):
        with pytest.raises(ModelError):
            StarSchemaConfig.binary(
                n_s=10, n_r=5, d_s=2, d_r=2, noise=-1.0
            )

    def test_invalid_dimension_spec(self):
        with pytest.raises(ModelError):
            DimensionSpec(0, 3)


class TestGeneratedShapes:
    def test_binary_cardinalities(self, db):
        config = StarSchemaConfig.binary(
            n_s=150, n_r=12, d_s=3, d_r=5, seed=1
        )
        star = generate_star(db, config)
        assert db[star.fact_name].nrows == 150
        assert db[star.dimension_names[0]].nrows == 12
        assert db[star.fact_name].schema.num_features == 3
        assert db[star.dimension_names[0]].schema.num_features == 5

    def test_multiway_spec_arity(self, db):
        config = StarSchemaConfig(
            n_s=100,
            d_s=2,
            dimensions=(DimensionSpec(5, 2), DimensionSpec(7, 3)),
            seed=2,
        )
        star = generate_star(db, config)
        assert star.spec.num_dimensions == 2
        resolved = star.spec.resolve(db)
        assert resolved.total_features == 7

    def test_join_integrity(self, db):
        config = StarSchemaConfig.binary(
            n_s=200, n_r=15, d_s=2, d_r=3, seed=3
        )
        star = generate_star(db, config)
        star.spec.resolve(db).check_integrity()

    def test_every_key_referenced_when_ns_exceeds_nr(self, db):
        config = StarSchemaConfig.binary(
            n_s=100, n_r=20, d_s=2, d_r=2, seed=4
        )
        star = generate_star(db, config)
        fks = db[star.fact_name].foreign_keys_of()
        assert set(np.unique(fks)) == set(range(20))

    def test_duplicate_names_rejected(self, db):
        config = StarSchemaConfig.binary(n_s=10, n_r=5, d_s=2, d_r=2)
        generate_star(db, config)
        with pytest.raises(ModelError, match="exists"):
            generate_star(db, config)

    def test_determinism(self, db, tmp_path):
        from repro.storage.catalog import Database

        config = StarSchemaConfig.binary(
            n_s=50, n_r=8, d_s=2, d_r=2, seed=42
        )
        star_a = generate_star(db, config)
        other = Database(tmp_path / "other")
        star_b = generate_star(other, config)
        np.testing.assert_array_equal(
            db[star_a.fact_name].scan(), other[star_b.fact_name].scan()
        )
        other.close(delete=True)


class TestTargets:
    def test_target_present_when_requested(self, db):
        config = StarSchemaConfig.binary(
            n_s=100, n_r=10, d_s=2, d_r=2, with_target=True, seed=5
        )
        star = generate_star(db, config)
        schema = db[star.fact_name].schema
        assert schema.target_column is not None
        assert star.true_weights is not None
        assert star.true_weights.shape == (4,)

    def test_target_depends_on_dimension_features(self, db):
        """The target must need the join: shuffling the dimension side
        of the signal changes it."""
        config = StarSchemaConfig.binary(
            n_s=400, n_r=10, d_s=2, d_r=4, with_target=True, noise=0.0,
            seed=6,
        )
        star = generate_star(db, config)
        joined = nested_loop_join(db, star.spec)
        signal = joined.design.fact_block @ star.true_weights
        expected = np.sin(signal) + 0.1 * signal
        np.testing.assert_allclose(joined.targets, expected, atol=1e-9)
        # Dimension features carry nonzero weight.
        assert np.abs(star.true_weights[2:]).max() > 0.01

    def test_no_target_by_default(self, db):
        config = StarSchemaConfig.binary(
            n_s=50, n_r=5, d_s=2, d_r=2, seed=7
        )
        star = generate_star(db, config)
        assert db[star.fact_name].schema.target_column is None


class TestSkew:
    def test_zipf_skew_concentrates_mass(self, db):
        config = StarSchemaConfig.binary(
            n_s=2000, n_r=50, d_s=2, d_r=2, fk_skew=1.5, seed=8
        )
        star = generate_star(db, config)
        fks = db[star.fact_name].foreign_keys_of()
        counts = np.bincount(fks, minlength=50)
        # Top key much more popular than the median key.
        assert counts.max() > 5 * np.median(counts)

    def test_mixture_features_have_cluster_structure(self, db):
        config = StarSchemaConfig.binary(
            n_s=2000, n_r=10, d_s=4, d_r=2, n_clusters=3,
            cluster_spread=10.0, noise=0.0, seed=9,
        )
        star = generate_star(db, config)
        feats = db[star.fact_name].features()
        # Variance across rows far exceeds within-cluster variance (~1):
        # evidence of multi-modal structure.
        assert feats.var(axis=0).max() > 5.0
