"""Unit tests for embedders, dataset generation, and embedding distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preimage.embedders import (
    DatasetSpec,
    EmbedderInfo,
    FrozenMlpEmbedder,
    LinearEmbedder,
    RadiusEmbedder,
    angular_distance,
    draw_points,
    generate_dataset,
    make_embedder,
    stack_samples,
)
from preimage.errors import ConfigurationError, NumericalDomainError, ShapeError


class TestRadiusEmbedder:
    def test_pythagorean_triple(self):
        emb = RadiusEmbedder(2)
        np.testing.assert_array_equal(emb.embed(np.array([3.0, 4.0])), [5.0])

    def test_batch(self):
        emb = RadiusEmbedder(2)
        out = emb.embed(np.array([[1.0, 0.0], [0.0, -2.0]]))
        np.testing.assert_array_equal(out, [[1.0], [2.0]])

    def test_rotation_invariance(self):
        emb = RadiusEmbedder(2)
        theta = 0.8
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        x = np.array([0.3, -1.1])
        assert emb.embed(rot @ x)[0] == pytest.approx(emb.embed(x)[0], rel=1e-14)

    def test_gradient_is_unit_direction(self):
        emb = RadiusEmbedder(2)
        grad = emb.embed_grad(np.array([3.0, 4.0]))
        np.testing.assert_allclose(grad, [[0.6, 0.8]])

    def test_gradient_matches_finite_difference(self):
        emb = RadiusEmbedder(3)
        x = np.array([0.5, -1.2, 2.0])
        grad = emb.embed_grad(x)
        h = 1e-7
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            numeric = (emb.embed(xp)[0] - emb.embed(xm)[0]) / (2 * h)
            assert grad[0, j] == pytest.approx(numeric, abs=1e-6)

    def test_origin_gradient_rejected(self):
        with pytest.raises(NumericalDomainError):
            RadiusEmbedder(2).embed_grad(np.zeros(2))

    def test_wrong_dim_rejected(self):
        with pytest.raises(ShapeError):
            RadiusEmbedder(2).embed(np.zeros(3))

    # Near overflow and underflow, signed zeros, subnormals, NaN and inf.
    EDGE_VALUES = (0.0, -0.0, 1.0, -2.5, 1e-160, -3e-170, 5e-324, -1e-310, 1e154,
                   -1.5e154, 1e200, 1.7e308, -1.7e308, np.nan, -np.nan, np.inf, -np.inf)

    @classmethod
    def edge_rows(cls, d, n=200, seed=0):
        rng = np.random.default_rng([seed, d])
        pool = np.array(cls.EDGE_VALUES)
        rows = rng.choice(pool, size=(n, d))
        mixed = rng.random((n, d)) < 0.3  # some rows mix edge values with plain ones
        rows[mixed] = rng.normal(size=int(mixed.sum()))
        return np.vstack([rows, np.zeros((1, d)), -np.zeros((1, d)),
                          np.full((1, d), 1e-200), np.full((1, d), 1e160)])

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_embed_equals_linalg_norm_bitwise(self, d):
        emb = RadiusEmbedder(d)
        rows = self.edge_rows(d)
        with np.errstate(over="ignore"):
            want = np.linalg.norm(rows, axis=-1, keepdims=True)
            assert emb.embed(rows).tobytes() == want.tobytes()
            for row, w in zip(rows, want):
                assert emb.embed(row).tobytes() == w.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_embed_grad_equals_linalg_norm_bitwise(self, d):
        emb = RadiusEmbedder(d)
        for row in self.edge_rows(d, seed=1):
            with np.errstate(over="ignore", invalid="ignore"):  # x.x overflows, inf / inf
                norm = np.linalg.norm(row)
                if norm == 0.0:
                    with pytest.raises(NumericalDomainError):
                        emb.embed_grad(row)
                    continue
                got, want = emb.embed_grad(row), (row / norm)[None, :]
            assert got.tobytes() == want.tobytes()


class TestFrozenMlpEmbedder:
    def test_output_unit_norm(self):
        emb = FrozenMlpEmbedder(4, 3, seed=0)
        xs = np.random.default_rng(1).normal(size=(50, 4))
        norms = np.linalg.norm(emb.embed(xs), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_same_seed_same_function(self):
        x = np.array([0.1, 0.2, -0.3, 1.0])
        a = FrozenMlpEmbedder(4, 3, seed=7).embed(x)
        b = FrozenMlpEmbedder(4, 3, seed=7).embed(x)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        x = np.ones(4)
        a = FrozenMlpEmbedder(4, 3, seed=0).embed(x)
        b = FrozenMlpEmbedder(4, 3, seed=1).embed(x)
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        emb = FrozenMlpEmbedder(2, 2, seed=3)
        x = np.array([0.5, -0.5])
        np.testing.assert_array_equal(emb.embed(x), emb.embed(x))


class TestLinearEmbedder:
    def test_matrix_application(self):
        emb = LinearEmbedder(np.array([[1.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_array_equal(emb.embed(np.array([2.0, 3.0])), [2.0, 5.0])

    def test_additivity(self):
        emb = LinearEmbedder.from_seed(3, 2, seed=0)
        rng = np.random.default_rng(5)
        u, v = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(emb.embed(u + v), emb.embed(u) + emb.embed(v),
                                   atol=1e-12)

    def test_jacobian_matches_finite_difference(self):
        emb = LinearEmbedder.from_seed(3, 2, seed=1)
        x = np.array([0.2, -0.4, 1.0])
        jac = emb.embed_grad(x)
        h = 1e-7
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            numeric = (emb.embed(xp) - emb.embed(xm)) / (2 * h)
            np.testing.assert_allclose(jac[:, j], numeric, atol=1e-7)


class TestMakeEmbedder:
    def test_roundtrip_through_info(self):
        for emb in (RadiusEmbedder(2), FrozenMlpEmbedder(3, 2, seed=5),
                    LinearEmbedder.from_seed(2, 2, seed=9)):
            rebuilt = make_embedder(emb.info)
            x = np.random.default_rng(0).normal(size=emb.input_dim)
            np.testing.assert_array_equal(rebuilt.embed(x), emb.embed(x))

    @pytest.mark.parametrize("output_dim", [0, 2, 3])
    def test_radius_descriptor_of_another_width_rejected(self, output_dim):
        with pytest.raises(ConfigurationError, match="output_dim 1"):
            make_embedder(EmbedderInfo("radius", 2, output_dim))

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_embedder(EmbedderInfo("mystery", 2, 2))


class TestGenerateDataset:
    def annulus_spec(self, **kw):
        base = dict(distribution="annulus", input_dim=2, n_samples=200, seed=0)
        base.update(kw)
        return DatasetSpec(**base)

    def test_annulus_radii_in_range(self):
        ds = generate_dataset(self.annulus_spec(), RadiusEmbedder(2))
        radii = np.linalg.norm(ds.x, axis=1)
        assert np.all(radii >= 0.5) and np.all(radii <= 1.5)
        np.testing.assert_allclose(ds.metadata["radius"], radii, rtol=1e-12)

    def test_labels_are_exact_embeddings(self):
        emb = RadiusEmbedder(2)
        ds = generate_dataset(self.annulus_spec(n_samples=50), emb)
        for x, y in zip(ds.x, ds.y):
            np.testing.assert_array_equal(y, emb.embed(x))

    def test_fixed_seed_reproducible(self):
        emb = RadiusEmbedder(2)
        a = generate_dataset(self.annulus_spec(attribute="angle"), emb)
        b = generate_dataset(self.annulus_spec(attribute="angle"), emb)
        for name in ("x", "y", "a"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.metadata.keys() == b.metadata.keys()
        for key in a.metadata:
            np.testing.assert_array_equal(a.metadata[key], b.metadata[key])

    def test_columns_have_one_row_per_sample(self):
        ds = generate_dataset(self.annulus_spec(n_samples=30), RadiusEmbedder(2))
        assert ds.x.shape == (30, 2) and ds.y.shape == (30, 1) and ds.a is None
        assert sorted(ds.metadata) == ["angle", "radius", "upper"]
        assert all(col.shape == (30,) and col.dtype == np.float64
                   for col in ds.metadata.values())

    def test_angle_attribute_is_atan2(self):
        ds = generate_dataset(self.annulus_spec(attribute="angle"), RadiusEmbedder(2))
        assert ds.a.shape == (200, 1)
        np.testing.assert_array_equal(ds.a[:, 0], ds.metadata["angle"])
        for x, a in zip(ds.x[:20], ds.a[:20]):
            assert a[0] == np.arctan2(x[1], x[0])

    def test_binary_metadata_matches_halfplane(self):
        ds = generate_dataset(self.annulus_spec(), RadiusEmbedder(2))
        for x, upper in zip(ds.x[:50], ds.metadata["upper"][:50]):
            assert upper == (1.0 if x[1] > 0 else 0.0)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_dataset(self.annulus_spec(attribute="pose"), RadiusEmbedder(2))

    def test_annulus_must_be_2d(self):
        spec = DatasetSpec("annulus", input_dim=3, n_samples=10, seed=0)
        with pytest.raises(ConfigurationError):
            generate_dataset(spec, RadiusEmbedder(3))

    def test_dim_mismatch_with_embedder_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_dataset(self.annulus_spec(), RadiusEmbedder(3))

    def test_gaussian_mixture_components_labeled(self):
        spec = DatasetSpec("gaussian-mixture", input_dim=3, n_samples=100, seed=2,
                           params={"n_components": 3})
        ds = generate_dataset(spec, FrozenMlpEmbedder(3, 2, seed=0))
        assert set(ds.metadata) == {"component"}
        assert set(ds.metadata["component"]) <= {0.0, 1.0, 2.0}

    def test_clustered_identities_cluster_tightly(self):
        spec = DatasetSpec("clustered-identities", input_dim=4, n_samples=300, seed=3,
                           params={"n_identities": 5, "cluster_std": 0.01})
        ds = generate_dataset(spec, FrozenMlpEmbedder(4, 3, seed=1))
        ident = ds.metadata["identity"]
        for i in np.unique(ident):
            assert np.linalg.norm(ds.x[ident == i].std(axis=0)) < 0.05

    def test_unknown_distribution_rejected(self):
        spec = DatasetSpec("doughnut", input_dim=2, n_samples=10, seed=0)
        with pytest.raises(ConfigurationError):
            generate_dataset(spec, RadiusEmbedder(2))

    def test_draw_points_matches_dataset_distribution(self):
        spec = self.annulus_spec(n_samples=50)
        pts = draw_points(spec, np.random.default_rng(spec.seed), 50)
        np.testing.assert_array_equal(pts, generate_dataset(spec, RadiusEmbedder(2)).x)

    def test_stack_samples(self):
        ds = generate_dataset(self.annulus_spec(n_samples=10, attribute="angle"),
                              RadiusEmbedder(2))
        xs, ys, a = stack_samples(ds)
        assert xs is ds.x and ys is ds.y and a is ds.a
        assert xs.shape == (10, 2) and ys.shape == (10, 1) and a.shape == (10, 1)
        assert stack_samples(generate_dataset(self.annulus_spec(), RadiusEmbedder(2)))[2] is None


class TestAngularDistance:
    def test_identical_vectors(self):
        assert angular_distance(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == pytest.approx(
            0.0, abs=1e-7
        )

    def test_orthogonal_vectors(self):
        assert angular_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.5

    def test_opposite_vectors(self):
        assert angular_distance(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 1.0

    @given(st.floats(0.1, 50.0), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, c, seed):
        rng = np.random.default_rng(seed)
        y1, y2 = rng.normal(size=3), rng.normal(size=3)
        assert angular_distance(c * y1, y2) == pytest.approx(
            angular_distance(y1, y2), abs=1e-12
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(NumericalDomainError):
            angular_distance(np.zeros(2), np.array([1.0, 0.0]))

    def test_clipping_handles_rounding(self):
        y = np.array([1.0, 1e-8])
        assert angular_distance(y, y) == 0.0

    def test_agrees_with_arccos_of_the_cosine(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            y1, y2 = rng.normal(size=(2, int(rng.integers(2, 9))))
            cos = y1 @ y2 / (np.linalg.norm(y1) * np.linalg.norm(y2))
            assert angular_distance(y1, y2) == pytest.approx(np.arccos(cos) / np.pi, abs=1e-12)

    def test_scaled_copy_reads_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            y = rng.normal(size=3)
            assert angular_distance(y, y * rng.uniform(0.5, 2.0)) <= 1e-15
            assert angular_distance(y, -y * rng.uniform(0.5, 2.0)) >= 1.0 - 1e-15


class NoDraws:
    """Stands in for a numpy Generator: building it is allowed, any draw from
    it fails the test."""

    def __init__(self, *args, **kwargs):
        pass

    def __getattr__(self, name):
        raise AssertionError(f"drew with {name} before refusing the params")


def draw_both(distribution, params, input_dim=2, n=16, seed=0):
    """The errors of draw_points and of generate_dataset on one spec: [] if
    both draw, else one ConfigurationError message per call that refused."""
    spec = DatasetSpec(distribution, input_dim, n, seed, params=params)
    messages = []
    for call in (lambda: draw_points(spec, np.random.default_rng(seed), n),
                 lambda: generate_dataset(spec, RadiusEmbedder(input_dim))):
        try:
            call()
        except ConfigurationError as exc:
            messages.append(str(exc))
    return messages


class TestDatasetParams:
    """Every caller of draw_points and generate_dataset gets the one check of
    the params before any draw, and the one refusal of draws beyond float64's
    range, with no RuntimeWarning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("distribution, params, message", [
        ("annulus", {"r_min": "a"}, "annulus params config 'r_min' must be a finite number >= 0"),
        ("annulus", {"r_mn": 0.2}, "unknown annulus params config keys: r_mn"),
        ("annulus", {"r_max": np.inf}, "annulus params config 'r_max' must be"),
        ("annulus", {"r_max": 10**400}, "annulus params config 'r_max' must be"),
        ("annulus", {"spread": 2.0}, "unknown annulus params config keys: spread"),
        ("gaussian-mixture", {"spread": -1}, "gaussian-mixture params config 'spread' must be"),
        ("gaussian-mixture", {"component_std": np.nan},
         "gaussian-mixture params config 'component_std' must be"),
        ("gaussian-mixture", {"n_components": 2.5},
         "gaussian-mixture params config 'n_components' must be a positive integer"),
        ("gaussian-mixture", {"n_components": np.int64(0)},
         "gaussian-mixture params config 'n_components' must be a positive integer"),
        ("gaussian-mixture", {"spread": np.float32(2.0)},
         "gaussian-mixture params config 'spread' must be a finite number >= 0"),
        ("clustered-identities", {"center_scale": -np.inf},
         "clustered-identities params config 'center_scale' must be a finite number"),
        ("clustered-identities", {"cluster_std": "wide"},
         "clustered-identities params config 'cluster_std' must be"),
        ("clustered-identities", [("n_identities", 2)],
         "the clustered-identities params config must be a JSON object"),
        ("ring", {}, "unknown distribution 'ring'"),
    ])
    def test_a_bad_knob_is_refused_naming_it_before_any_draw(self, monkeypatch, distribution,
                                                             params, message):
        monkeypatch.setattr(np.random, "default_rng", NoDraws)
        messages = draw_both(distribution, params)
        assert len(messages) == 2 and all(m.startswith(message) for m in messages), messages

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("distribution, params, input_dim, refused_draws", [
        ("annulus", {"r_max": 1e308}, 2, False),  # finite points whose norms overflow
        ("annulus", {"r_max": 1e200}, 2, False),
        ("gaussian-mixture", {"spread": 1e308, "n_components": 8}, 8, True),
        ("gaussian-mixture", {"component_std": 1e308}, 8, True),
        ("clustered-identities", {"center_scale": 1e300}, 2, False),  # its embedding overflows
        ("clustered-identities", {"cluster_std": 1e308, "n_identities": 8}, 8, True),
    ])
    def test_draws_beyond_float64_are_refused(self, distribution, params, input_dim,
                                              refused_draws):
        # draw_points refuses points beyond float64's range; generate_dataset
        # refuses those and also finite points whose embeddings overflow.
        messages = draw_both(distribution, params, input_dim)
        assert len(messages) == 1 + refused_draws
        assert all(m == f"dataset params {params} draw points or embeddings beyond "
                   f"float64's range" for m in messages)

    @pytest.mark.parametrize("distribution, params, input_dim", [
        ("annulus", {"r_min": 0, "r_max": 2}, 2),
        ("annulus", {"r_min": np.float64(0.25), "r_max": np.int64(3)}, 2),
        ("gaussian-mixture", {"n_components": np.int64(3), "spread": 0, "component_std": 1}, 3),
        ("clustered-identities", {"n_identities": 2, "cluster_std": 0.0, "center_scale": -1.5},
         4),
    ])
    def test_every_knob_in_range_draws_the_bits_of_a_float(self, distribution, params,
                                                           input_dim):
        # An integer or numpy knob draws what its float value draws.
        as_float = {k: v if k.startswith("n_") else float(v) for k, v in params.items()}
        specs = [DatasetSpec(distribution, input_dim, 32, 5, params=p) for p in (params, as_float)]
        emb = LinearEmbedder.from_seed(input_dim, 2)
        ds, ds_float = (generate_dataset(spec, emb) for spec in specs)
        pts, pts_float = (draw_points(spec, np.random.default_rng(5), 32) for spec in specs)
        assert ds.x.tobytes() == ds_float.x.tobytes() == pts.tobytes() == pts_float.tobytes()
        assert ds.y.tobytes() == ds_float.y.tobytes()
