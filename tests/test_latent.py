"""Unit tests for interpolation, PCA, and semantic directions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preimage.errors import ConfigurationError, NumericalDomainError, ShapeError
from preimage.latent import (
    Direction,
    custom_direction,
    fit_pca,
    lerp,
    mean_norm,
    percentile_split,
    project_first_k,
    slerp,
    traverse,
)


class TestLerp:
    def test_endpoints(self):
        y1, y2 = np.array([1.0, 2.0]), np.array([-3.0, 4.0])
        np.testing.assert_array_equal(lerp(y1, y2, 0.0), y1)
        np.testing.assert_array_equal(lerp(y1, y2, 1.0), y2)

    def test_midpoint(self):
        np.testing.assert_array_equal(
            lerp(np.array([0.0, 0.0]), np.array([2.0, 4.0]), 0.5), [1.0, 2.0]
        )


class TestSlerp:
    def test_endpoint_identities(self):
        rng = np.random.default_rng(0)
        y1, y2 = rng.normal(size=4), rng.normal(size=4)
        np.testing.assert_allclose(slerp(y1, y2, 0.0), y1, atol=1e-12)
        np.testing.assert_allclose(slerp(y1, y2, 1.0), y2, atol=1e-12)

    def test_orthogonal_midpoint(self):
        out = slerp(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
        np.testing.assert_allclose(out, [np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-15)

    def test_unit_sphere_stays_on_sphere(self):
        rng = np.random.default_rng(1)
        y1 = rng.normal(size=5)
        y1 /= np.linalg.norm(y1)
        y2 = rng.normal(size=5)
        y2 /= np.linalg.norm(y2)
        for tau in np.linspace(0, 1, 11):
            assert np.linalg.norm(slerp(y1, y2, tau)) == pytest.approx(1.0, abs=1e-12)

    def test_near_parallel_falls_back_to_lerp(self):
        y1 = np.array([1.0, 0.0])
        y2 = np.array([2.0, 0.0])
        np.testing.assert_array_equal(slerp(y1, y2, 0.25), lerp(y1, y2, 0.25))

    def test_antiparallel_rejected(self):
        with pytest.raises(NumericalDomainError):
            slerp(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 0.5)

    def test_zero_vector_rejected(self):
        with pytest.raises(NumericalDomainError):
            slerp(np.zeros(2), np.array([1.0, 0.0]), 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("y1, y2", [([1e308], [1.0]), ([1e200, 1.0], [1e200, 0.0]),
                                        ([1e308], [1e308])])
    def test_endpoints_beyond_float64_rejected(self, y1, y2):
        # The parent warned of the overflow, then returned lerp's or NaNs.
        with pytest.raises(NumericalDomainError, match="beyond float64's range"):
            slerp(np.array(y1), np.array(y2), 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("end", ["y1", "y2"])
    def test_non_finite_endpoints_rejected(self, bad, end):
        # A NaN endpoint once returned [nan, nan].
        ends = {"y1": np.array([1.0, 0.0]), "y2": np.array([0.0, 1.0])}
        ends[end][1] = bad
        with pytest.raises(NumericalDomainError, match=f"^{end} holds non-finite values"):
            slerp(ends["y1"], ends["y2"], 0.5)

    @given(st.floats(0.0, 1.0), st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_interpolates_the_angle(self, tau, seed):
        # For equal-norm endpoints the angle from y1 to the interpolant is
        # tau times the full angle.
        rng = np.random.default_rng(seed)
        y1, y2 = rng.normal(size=3), rng.normal(size=3)
        y1 /= np.linalg.norm(y1)
        y2 /= np.linalg.norm(y2)
        full = np.arccos(np.clip(
            np.dot(y1, y2) / (np.linalg.norm(y1) * np.linalg.norm(y2)), -1, 1))
        if full < 1e-3 or full > np.pi - 1e-3:
            return
        mid = slerp(y1, y2, tau)
        part = np.arccos(np.clip(
            np.dot(y1, mid) / (np.linalg.norm(y1) * np.linalg.norm(mid)), -1, 1))
        assert part == pytest.approx(tau * full, abs=1e-7)


class TestDirection:
    def test_non_unit_rejected(self):
        with pytest.raises(ConfigurationError):
            Direction(np.array([1.0, 1.0]), "bad", "pca-axis")

    @pytest.mark.parametrize("vector", [[np.nan, 0.0], [np.nan, np.nan], [np.inf, 0.0]])
    def test_non_finite_rejected(self, vector):
        # A NaN norm passed the unit-norm check.
        with pytest.raises(ConfigurationError, match="unit norm"):
            Direction(np.array(vector), "x", "pca-axis")

    def test_bad_provenance_rejected(self):
        with pytest.raises(ConfigurationError):
            Direction(np.array([1.0, 0.0]), "bad", "vibes")


class TestFitPca:
    def test_rank_one_line_recovered(self):
        rng = np.random.default_rng(2)
        axis = np.array([1.0, 2.0]) / np.sqrt(5.0)
        ys = np.outer(rng.normal(size=100), axis)
        basis = fit_pca(ys)
        np.testing.assert_allclose(np.abs(basis.axes[0]), axis, atol=1e-12)
        assert basis.axes[0][1] > 0
        assert basis.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)

    def test_axes_orthonormal(self):
        rng = np.random.default_rng(3)
        basis = fit_pca(rng.normal(size=(200, 6)))
        np.testing.assert_allclose(basis.axes @ basis.axes.T, np.eye(6), atol=1e-10)

    def test_eigenvalues_descending_nonnegative(self):
        rng = np.random.default_rng(4)
        basis = fit_pca(rng.normal(size=(50, 5)))
        assert np.all(np.diff(basis.eigenvalues) <= 0)
        assert np.all(basis.eigenvalues >= 0)

    def test_eigenvalues_equal_projected_variance(self):
        rng = np.random.default_rng(5)
        ys = rng.normal(size=(300, 4)) * np.array([3.0, 1.0, 0.5, 0.1])
        basis = fit_pca(ys)
        for i in range(4):
            proj = (ys - basis.mean) @ basis.axes[i]
            assert basis.eigenvalues[i] == pytest.approx(np.var(proj, ddof=1), rel=1e-8)

    def test_isotropic_cloud_flat_spectrum(self):
        ys = np.random.default_rng(6).standard_normal((10000, 4))
        basis = fit_pca(ys)
        assert basis.eigenvalues[0] / basis.eigenvalues[-1] < 1.2

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(7)
        ys = rng.normal(size=(80, 3))
        a = fit_pca(ys)
        b = fit_pca(ys.copy())
        np.testing.assert_array_equal(a.axes, b.axes)
        for i in range(3):
            j = np.argmax(np.abs(a.axes[i]))
            assert a.axes[i, j] > 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        # A NaN row once gave a NaN basis, and an inf row a RuntimeWarning.
        ys = np.random.default_rng(3).normal(size=(6, 3))
        ys[2, 1] = bad
        with pytest.raises(NumericalDomainError, match="^ys holds non-finite values"):
            fit_pca(ys)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_pca(np.ones((1, 3)))


class TestProjectFirstK:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.ys = rng.normal(size=(100, 5)) * np.array([4.0, 2.0, 1.0, 0.5, 0.2])
        self.basis = fit_pca(self.ys)
        self.y = rng.normal(size=5)

    def test_full_projection_reconstructs(self):
        np.testing.assert_allclose(project_first_k(self.y, self.basis, 5), self.y,
                                   atol=1e-8)

    def test_zero_axes_gives_mean(self):
        np.testing.assert_array_equal(project_first_k(self.y, self.basis, 0),
                                      self.basis.mean)

    def test_projection_idempotent(self):
        once = project_first_k(self.y, self.basis, 2)
        twice = project_first_k(once, self.basis, 2)
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_error_decreases_with_more_axes(self):
        errs = [np.linalg.norm(self.y - project_first_k(self.y, self.basis, n))
                for n in range(6)]
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(5))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            project_first_k(self.y, self.basis, 6)
        with pytest.raises(ConfigurationError):
            project_first_k(self.y, self.basis, -1)


class TestCustomDirection:
    def test_unit_step_between_means(self):
        a = np.array([[0.0, 0.0], [0.0, 0.0]])
        b = np.array([[2.0, 0.0], [2.0, 0.0]])
        d = custom_direction(a, b)
        np.testing.assert_array_equal(d.vector, [1.0, 0.0])
        assert d.provenance == "binary-split"

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        fwd = custom_direction(a, b).vector
        rev = custom_direction(b, a).vector
        np.testing.assert_array_equal(fwd, -rev)

    def test_identical_means_rejected(self):
        pts = np.random.default_rng(10).normal(size=(4, 2))
        with pytest.raises(NumericalDomainError):
            custom_direction(pts, pts.copy())

    def test_empty_group_rejected(self):
        with pytest.raises(ConfigurationError):
            custom_direction(np.zeros((0, 2)), np.ones((3, 2)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("group", ["group_a", "group_b"])
    def test_non_finite_group_rejected(self, bad, group):
        # A NaN once made a Direction of NaNs.
        groups = {"group_a": np.zeros((3, 2)), "group_b": np.ones((3, 2))}
        groups[group][1, 0] = bad
        with pytest.raises(NumericalDomainError, match=f"^{group} holds non-finite values"):
            custom_direction(groups["group_a"], groups["group_b"])


class TestPercentileSplit:
    def test_decile_split_of_one_to_hundred(self):
        values = np.arange(1.0, 101.0)
        lo, hi = percentile_split(values)
        assert lo.dtype == bool and lo.shape == hi.shape == values.shape
        assert values[lo].tolist() == [float(v) for v in range(1, 11)]
        assert values[hi].tolist() == [float(v) for v in range(91, 101)]

    def test_binary_feature_routed_to_two_groups(self):
        lo, hi = percentile_split(np.array([0.0, 1.0, 0.0, 1.0, 1.0]))
        assert lo.tolist() == [True, False, True, False, False]
        assert hi.tolist() == [False, True, False, True, True]

    def test_constant_feature_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile_split(np.ones(5))

    @pytest.mark.parametrize("values", [np.zeros(0), np.zeros((4, 2))])
    def test_column_must_be_nonempty_and_1d(self, values):
        with pytest.raises(ConfigurationError):
            percentile_split(values)


class TestTraverse:
    def test_step_scales_with_corpus_norm(self):
        d = Direction(np.array([0.0, 1.0]), "up", "pca-axis")
        out = traverse(np.array([1.0, 0.0]), d, alpha=2.0, corpus_norm=1.5)
        np.testing.assert_array_equal(out, [1.0, 3.0])

    def test_zero_alpha_is_identity(self):
        d = Direction(np.array([1.0, 0.0]), "x", "pca-axis")
        y = np.array([0.3, 0.4])
        np.testing.assert_array_equal(traverse(y, d, 0.0, 2.0), y)

    def test_nonpositive_corpus_norm_rejected(self):
        d = Direction(np.array([1.0, 0.0]), "x", "pca-axis")
        with pytest.raises(ConfigurationError):
            traverse(np.zeros(2), d, 1.0, 0.0)

    def test_nan_corpus_norm_rejected(self):
        d = Direction(np.array([1.0, 0.0]), "x", "pca-axis")
        with pytest.raises(ConfigurationError, match="corpus_norm"):
            traverse(np.zeros(2), d, 1.0, np.nan)

    def test_mean_norm(self):
        ys = np.array([[3.0, 4.0], [0.0, 1.0]])
        assert mean_norm(ys) == 3.0

    def test_mean_norm_empty_rejected(self):
        with pytest.raises(ShapeError):
            mean_norm(np.zeros((0, 2)))
