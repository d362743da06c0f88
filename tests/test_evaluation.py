"""Unit tests for metrics and the rejection / gradient-descent baselines."""

import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preimage import evaluation, nn
from preimage.diffusion import SampleConfig, make_cosine_schedule
from preimage.embedders import LinearEmbedder, RadiusEmbedder, angular_distance
from preimage.errors import (
    AcceptanceStarvationError,
    ConfigurationError,
    DivergenceError,
    NumericalDomainError,
    ShapeError,
)
from preimage.evaluation import (
    DISTANCE_ROWS,
    _distance_sum,
    cell_seed,
    diversity,
    energy_distance,
    guidance_sweep,
    identity_distances,
    identity_error,
    rejection_oracle,
    verification_accuracy,
    whitebox_gd_invert,
)
from preimage.nn import ConditionalDenoiser, run_lanes

R = DISTANCE_ROWS


def pairwise_reference(a, b):
    """The Euclidean distance matrix through the (n, m, d) difference tensor,
    kept as the reference for the row-blocked distance sums."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


class TestIdentityError:
    def test_exact_preimages_score_zero(self):
        xs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert identity_error(xs, np.array([1.0]), RadiusEmbedder(2)) == 0.0

    def test_single_offset_sample(self):
        xs = np.array([[2.0, 0.0]])
        assert identity_error(xs, np.array([1.0]), RadiusEmbedder(2)) == 1.0

    def test_mean_over_samples(self):
        xs = np.array([[1.0, 0.0], [3.0, 0.0]])
        # Distances to target radius 1 are 0 and 2.
        assert identity_error(xs, np.array([1.0]), RadiusEmbedder(2)) == 1.0

    def test_order_invariant(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(10, 2))
        emb = RadiusEmbedder(2)
        y = np.array([1.0])
        assert identity_error(xs, y, emb) == identity_error(xs[::-1], y, emb)

    def test_angular_metric(self):
        emb = LinearEmbedder(np.eye(2))
        xs = np.array([[0.0, 1.0]])
        assert identity_error(xs, np.array([1.0, 0.0]), emb, metric="angular") == 0.5

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            identity_error(np.ones((1, 2)), np.ones(1), RadiusEmbedder(2), metric="cosine")

    @staticmethod
    def angular_loop(samples, target_y, embedder):
        """The angular metric as one angular_distance call per row, kept as
        the reference for the vectorised form."""
        ys = embedder.embed(np.asarray(samples, dtype=np.float64))
        return float(np.mean([angular_distance(y, target_y) for y in ys]))

    def test_angular_matches_the_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d, k, n = (int(v) for v in rng.integers(1, 9, size=3))
            emb = LinearEmbedder(rng.normal(size=(k, d)))
            xs = rng.normal(size=(n, d))
            y = rng.normal(size=k)
            want = self.angular_loop(xs, y, emb)
            assert identity_error(xs, y, emb, metric="angular") == pytest.approx(
                want, rel=1e-12, abs=1e-12)

    def test_angular_exact_preimages_read_zero(self):
        # The embedding of an exact pre-image lies along the target. arccos
        # of the cosine, with its unbounded slope at 1, read up to 6.7e-9 in
        # 46 of these 200 cases; the atan2 form reads at most 8.7e-17.
        rng = np.random.default_rng(13)
        for _ in range(200):
            emb = LinearEmbedder(rng.normal(size=(3, 3)))
            xs = rng.normal(size=(1, 3))
            y = emb.embed(xs[0]) * rng.uniform(0.5, 2.0)
            assert identity_error(xs, y, emb, metric="angular") <= 1e-15

    def test_angular_row_along_the_target_near_the_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            emb = LinearEmbedder(rng.normal(size=(3, 3)))
            xs = rng.normal(size=(4, 3))
            y = emb.embed(xs[0]) * rng.uniform(0.5, 2.0)
            got = identity_error(xs, y, emb, metric="angular")
            assert abs(got - self.angular_loop(xs, y, emb)) <= 1e-7

    @pytest.mark.parametrize("xs, y", [
        (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0])),  # a zero embedding
        (np.array([[1.0, 0.0]]), np.zeros(2)),  # a zero target
    ])
    def test_angular_zero_vector_rejected(self, xs, y):
        with pytest.raises(NumericalDomainError):
            identity_error(xs, y, LinearEmbedder(np.eye(2)), metric="angular")

    @pytest.mark.parametrize("y", [np.ones(3), np.ones(1), np.ones((1, 2))])
    def test_angular_target_length_mismatch_rejected(self, y):
        with pytest.raises(ShapeError):
            identity_error(np.ones((4, 2)), y, LinearEmbedder(np.eye(2)), metric="angular")

    def test_distances_are_the_norms_and_their_mean_the_error(self):
        rng = np.random.default_rng(4)
        emb = LinearEmbedder(rng.normal(size=(3, 2)))
        xs, y = rng.normal(size=(7, 2)), rng.normal(size=3)
        dists = identity_distances(xs, y, emb)
        assert dists.tobytes() == np.linalg.norm(emb.embed(xs) - y, axis=1).tobytes()
        assert identity_error(xs, y, emb) == float(np.mean(dists))

    @pytest.mark.parametrize("y", [np.ones(2), np.ones((1, 1)), np.ones(0)])
    def test_target_shape_other_than_the_embeddings_rejected(self, y):
        # A radius embedding is (n, 1): a 2-entry target used to broadcast to
        # (n, 2) and return a number.
        xs = np.ones((4, 2))
        for distance in (identity_distances, identity_error):
            with pytest.raises(ShapeError, match="target of shape"):
                distance(xs, y, RadiusEmbedder(2))


def no_sums(a, b):
    raise AssertionError("a distance sum ran")


class TestDiversity:
    def test_two_points(self):
        assert diversity(np.array([[0.0, 0.0], [3.0, 4.0]])) == 5.0

    def test_three_collinear(self):
        # Pairwise distances g, g, 2g average to 4g/3.
        g = 0.6
        pts = np.array([[0.0], [g], [2 * g]])
        assert diversity(pts) == pytest.approx(4 * g / 3)

    def test_coincident_points(self):
        assert diversity(np.ones((5, 3))) == 0.0

    def test_single_sample_rejected(self):
        with pytest.raises(ShapeError):
            diversity(np.ones((1, 2)))

    @pytest.mark.parametrize("samples", [np.ones((3, 0)), np.ones(4), np.ones((3, 2, 1))])
    def test_not_a_batch_of_points_rejected(self, samples):
        with pytest.raises(ShapeError):
            diversity(samples)

    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_matches_the_pairwise_tensor(self, d):
        rng = np.random.default_rng(d)
        for n in (2, R - 1, R, R + 1, 2 * R + 3):
            xs = rng.normal(size=(n, d))
            dists = pairwise_reference(xs, xs)
            want = dists[np.triu_indices(n, k=1)].mean()
            assert diversity(xs) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_refused_before_any_block(self, monkeypatch, bad):
        monkeypatch.setattr(evaluation, "_distance_sum", no_sums)
        xs = np.random.default_rng(4).normal(size=(2 * R + 3, 2))
        xs[R + 1, 1] = bad
        with pytest.raises(NumericalDomainError, match="samples"):
            diversity(xs)

    def test_near_duplicates_match_the_pairwise_tensor(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=3) + 1e-9 * rng.normal(size=(2 * R + 3, 3))
        dists = pairwise_reference(xs, xs)
        assert diversity(xs) == pytest.approx(dists[np.triu_indices(len(xs), k=1)].mean(),
                                              rel=1e-12)


class TestVerificationAccuracy:
    def test_separable_distances(self):
        pairs = [(0.1, True), (0.2, True), (0.8, False), (0.9, False)]
        res = verification_accuracy(pairs)
        assert res.accuracy == 1.0
        assert 0.2 < res.threshold < 0.8
        assert res.n_pairs == 4

    def test_interleaved_four_pairs(self):
        # Positives at 0.3 and 0.7, negatives at 0.5 and 0.9: the best any
        # threshold can do is 3 of 4.
        pairs = [(0.3, True), (0.7, True), (0.5, False), (0.9, False)]
        res = verification_accuracy(pairs)
        assert res.accuracy == 0.75
        assert res.threshold == pytest.approx(0.4)

    def test_all_same_label(self):
        res = verification_accuracy([(0.2, True), (0.4, True)])
        assert res.accuracy == 1.0

    def test_single_pair(self):
        res = verification_accuracy([(0.5, False)])
        assert res.accuracy == 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_never_below_class_prior(self, seed):
        # The sentinel thresholds classify everything one way, so the sweep
        # can always fall back to the majority class.
        rng = np.random.default_rng(seed)
        pairs = [(float(d), bool(l)) for d, l in
                 zip(rng.random(30), rng.random(30) < 0.7)]
        # The prior as the accuracy is computed, a count over n: 1 - 10/30
        # rounds above 20/30.
        n_same = sum(l for _, l in pairs)
        prior = max(n_same, len(pairs) - n_same) / len(pairs)
        assert verification_accuracy(pairs).accuracy >= prior

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            verification_accuracy([])

    @staticmethod
    def loop_reference(pairs):
        """The sweep as one full pass per candidate threshold, kept as the
        reference for the sorted, cumulative-count implementation."""
        dists = np.array([float(d) for d, _ in pairs])
        labels = np.array([bool(s) for _, s in pairs])
        uniq = np.unique(dists)
        candidates = np.concatenate((
            [uniq[0] - 1.0],
            (uniq[:-1] + uniq[1:]) / 2.0,
            [uniq[-1] + 1.0],
        ))
        best_acc = -1.0
        best_thr = candidates[0]
        for thr in candidates:
            acc = float(np.mean((dists < thr) == labels))
            if acc > best_acc:
                best_acc = acc
                best_thr = float(thr)
        return best_thr, best_acc

    def random_pairs(self, rng):
        n = int(rng.choice([1, 2, 3, int(rng.integers(4, 300))]))
        grid = int(rng.integers(1, 8))
        if rng.random() < 0.5:
            dists = rng.integers(0, grid, size=n) / grid  # heavy ties
        else:
            dists = rng.random(n)
        if rng.random() < 0.1:
            dists[rng.random(n) < 0.2] = np.inf
        return [(float(d), bool(s)) for d, s in zip(dists, rng.random(n) < rng.random())]

    def test_matches_the_loop_on_random_inputs(self):
        rng = np.random.default_rng(2024)
        for _ in range(400):
            pairs = self.random_pairs(rng)
            res = verification_accuracy(pairs)
            assert (res.threshold, res.accuracy) == self.loop_reference(pairs)
            assert type(res.threshold) is float and type(res.accuracy) is float

    @pytest.mark.parametrize("pairs", [
        [(1.0, True)], [(1.0, False)],
        [(0.5, True), (0.5, False)], [(0.2, False), (0.7, True)],
        [(0.3, True), (0.3, True), (0.3, False)],
        [(1.0, True), (np.nextafter(1.0, 2.0), False)],  # the midpoint rounds onto a distance
        [(1e17, True), (2e17, False)],  # the sentinels round onto the distances
        [(0.1, True), (np.nan, False), (0.4, False)],
        [(0.1, True), (0.4, True), (np.nan, False)],  # a NaN cut calls nothing "same"
        [(np.nan, True), (np.nan, False)],
    ])
    def test_matches_the_loop_on_edge_cases(self, pairs):
        res = verification_accuracy(pairs)
        np.testing.assert_equal((res.threshold, res.accuracy), self.loop_reference(pairs))

    def test_two_equally_good_cuts_take_the_smaller(self):
        # Cutting between 0.2 and 0.4 or between 0.6 and 0.8 both get 5 of 6.
        pairs = [(0.1, True), (0.2, True), (0.4, False),
                 (0.6, True), (0.8, False), (0.9, False)]
        res = verification_accuracy(pairs)
        assert res.accuracy == 5 / 6
        assert res.threshold == pytest.approx(0.3)
        assert (res.threshold, res.accuracy) == self.loop_reference(pairs)


def annulus_draw(rng, count):
    radii = rng.uniform(0.5, 1.5, size=count)
    angles = rng.uniform(0, 2 * np.pi, size=count)
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)


class TestRejectionOracle:
    def test_kept_samples_in_tolerance(self):
        emb = RadiusEmbedder(2)
        out = rejection_oracle(emb, np.array([1.0]), 0.05, annulus_draw, 200,
                               np.random.default_rng(0))
        assert out.shape == (200, 2)
        radii = np.linalg.norm(out, axis=1)
        assert np.all(np.abs(radii - 1.0) <= 0.05)

    def test_zero_epsilon_linear_identity(self):
        # Drawing the target itself is the only way to be kept at epsilon 0.
        emb = LinearEmbedder(np.eye(2))
        target = np.array([0.25, -0.5])

        def draw(rng, count):
            return np.tile(target, (count, 1))

        out = rejection_oracle(emb, target, 0.0, draw, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(out, np.tile(target, (5, 1)))

    def test_starvation_diagnostic(self):
        emb = RadiusEmbedder(2)
        with pytest.raises(AcceptanceStarvationError) as exc:
            rejection_oracle(emb, np.array([50.0]), 0.01, annulus_draw, 10,
                             np.random.default_rng(0), max_draws=2000)
        assert exc.value.acceptance_rate == 0.0
        assert exc.value.n_draws == 2000

    def test_partial_result_when_budget_short(self):
        emb = RadiusEmbedder(2)
        out = rejection_oracle(emb, np.array([1.0]), 0.01, annulus_draw, 100_000,
                               np.random.default_rng(1), max_draws=5000)
        assert 0 < len(out) < 100_000

    def test_deterministic_given_rng_seed(self):
        emb = RadiusEmbedder(2)
        a = rejection_oracle(emb, np.array([1.0]), 0.1, annulus_draw, 50,
                             np.random.default_rng(7))
        b = rejection_oracle(emb, np.array([1.0]), 0.1, annulus_draw, 50,
                             np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            rejection_oracle(RadiusEmbedder(2), np.array([1.0]), -0.1,
                             annulus_draw, 1, np.random.default_rng(0))

    def test_nan_epsilon_rejected_before_drawing(self):
        draws = []

        def draw(rng, count):
            draws.append(count)
            return annulus_draw(rng, count)

        with pytest.raises(ConfigurationError, match="epsilon"):
            rejection_oracle(RadiusEmbedder(2), np.array([1.0]), float("nan"),
                             draw, 1, np.random.default_rng(0), max_draws=8192)
        assert draws == []

    def test_target_shape_other_than_the_embeddings_rejected(self):
        with pytest.raises(ShapeError, match="target of shape"):
            rejection_oracle(RadiusEmbedder(2), np.array([1.0, 1.0]), 0.5,
                             annulus_draw, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("returned", [1, 6])
    def test_a_draw_of_another_row_count_refused_naming_both(self, returned):
        # A short draw used to count as 5 draws, so n_draws and the
        # acceptance rate were wrong and the partial result came back.
        def draw(rng, count):
            return annulus_draw(rng, returned)

        with pytest.raises(ShapeError, match=f"draw\\(rng, 5\\) must return 5 rows, got {returned}$"):
            rejection_oracle(RadiusEmbedder(2), np.array([1.0]), 0.1, draw, 3,
                             np.random.default_rng(0), batch_size=5)

    @pytest.mark.parametrize("kwargs", [{"batch_size": 0}, {"batch_size": -4},
                                        {"max_draws": 0}, {"max_draws": -1},
                                        {"n": 0}, {"n": 2.5}, {"n": math.nan}])
    def test_sizes_must_be_positive_integers_before_drawing(self, kwargs):
        # At batch_size 0 the first draw is empty, at -4 numpy refuses the
        # size, max_draws 0 and n NaN starve without drawing at all, and
        # n 2.5 fails slicing the kept draws.
        draws = []

        def draw(rng, count):
            draws.append(count)
            return annulus_draw(rng, count)

        with pytest.raises(ConfigurationError, match=f"^{next(iter(kwargs))} "):
            rejection_oracle(RadiusEmbedder(2), np.array([1.0]), 0.1, draw,
                             **{"n": 1, **kwargs}, rng=np.random.default_rng(0))
        assert draws == []


class TestWhiteboxGdInvert:
    def test_radius_descent_shrinks_along_ray(self):
        emb = RadiusEmbedder(2)
        res = whitebox_gd_invert(emb, np.array([1.0]), np.array([2.0, 0.0]),
                                 step_size=0.1, max_steps=500)
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-5)

    def test_direction_preserved_exactly_for_radius(self):
        # The norm gradient points along x, so every iterate stays on the
        # initial ray.
        emb = RadiusEmbedder(2)
        x0 = np.array([1.2, 0.9])
        res = whitebox_gd_invert(emb, np.array([0.5]), x0, step_size=0.2)
        unit0 = x0 / np.linalg.norm(x0)
        unit = res.x / np.linalg.norm(res.x)
        np.testing.assert_allclose(unit, unit0, atol=1e-12)

    def test_linear_identity_geometric_convergence(self):
        emb = LinearEmbedder(np.eye(3))
        y = np.array([1.0, -2.0, 0.5])
        res = whitebox_gd_invert(emb, y, np.zeros(3), step_size=0.5)
        assert res.converged
        np.testing.assert_allclose(res.x, y, atol=1e-5)
        assert np.all(np.diff(res.loss_trace) <= 0)

    def test_loss_trace_starts_at_initial_loss(self):
        emb = LinearEmbedder(np.eye(2))
        y = np.array([2.0, 0.0])
        res = whitebox_gd_invert(emb, y, np.zeros(2), step_size=0.1, max_steps=3)
        assert res.loss_trace[0] == 0.5 * 4.0

    def test_divergence_diagnostic(self):
        # step_size 3 on the identity map scales the residual by 2 each step.
        emb = LinearEmbedder(np.eye(2))
        with pytest.raises(DivergenceError) as exc:
            whitebox_gd_invert(emb, np.array([1.0, 0.0]), np.zeros(2), step_size=3.0)
        assert len(exc.value.loss_trace) > 100

    def test_origin_start_for_radius_rejected(self):
        with pytest.raises(NumericalDomainError):
            whitebox_gd_invert(RadiusEmbedder(2), np.array([1.0]), np.zeros(2))

    @pytest.mark.parametrize("x_init, target", [
        ([math.nan, 0.0], [1.0]), ([math.inf, 0.0], [1.0]),
        ([2.0, 0.0], [math.nan]), ([2.0, 0.0], [-math.inf]),
    ])
    def test_non_finite_start_or_target_refused_before_any_step(self, x_init, target):
        # A NaN loss never rises, so such a run took every step and
        # returned x = [nan, nan] without an error.
        emb = RadiusEmbedder(2)
        calls = []
        emb.embed = lambda x: calls.append(x)
        with pytest.raises(NumericalDomainError, match="finite"):
            whitebox_gd_invert(emb, np.array(target), np.array(x_init))
        assert calls == []

    @pytest.mark.parametrize("x_init, target, name", [
        ([math.nan, 0.0], [1.0], "x_init"), ([math.nan, 0.0], [math.nan], "x_init"),
        ([2.0, 0.0], [math.inf], "target_y"),
    ])
    def test_the_refusal_names_the_non_finite_input(self, x_init, target, name):
        with pytest.raises(NumericalDomainError, match=f"^{name} holds non-finite values$"):
            whitebox_gd_invert(RadiusEmbedder(2), np.array(target), np.array(x_init))

    @pytest.mark.parametrize("step_size", [0.0, -0.1, math.nan])
    def test_step_size_must_be_positive(self, step_size):
        # A NaN step would run all max_steps and return x = [nan, nan].
        with pytest.raises(ConfigurationError, match="step_size"):
            whitebox_gd_invert(RadiusEmbedder(2), np.array([1.0]), np.array([2.0, 0.0]),
                               step_size=step_size)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_tol_must_be_positive(self, tol):
        # A NaN tol would report a run that reached the target as not converged.
        with pytest.raises(ConfigurationError, match="tol"):
            whitebox_gd_invert(RadiusEmbedder(2), np.array([1.0]), np.array([2.0, 0.0]),
                               tol=tol)

    @pytest.mark.parametrize("max_steps", [math.nan, math.inf, 2.5, -3, True, "10"])
    def test_max_steps_must_be_a_nonnegative_integer(self, max_steps):
        # The target is reachable, so an unchecked budget returns instead of
        # raising; on an unreachable one a NaN or infinite budget never stops.
        with pytest.raises(ConfigurationError, match="max_steps"):
            whitebox_gd_invert(RadiusEmbedder(2), np.array([1.0]), np.array([2.0, 0.0]),
                               max_steps=max_steps)

    @pytest.mark.parametrize("max_steps", [0, 3, np.int64(3)])
    def test_integer_max_steps_is_the_step_budget(self, max_steps):
        res = whitebox_gd_invert(LinearEmbedder([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 1.0]),
                                 np.zeros(2), max_steps=max_steps)
        assert res.n_steps == max_steps and not res.converged

    @staticmethod
    def loop_reference(embedder, target_y, x_init, step_size=0.1, max_steps=1000, tol=1e-6):
        """The descent loop with np.linalg.norm for the residual norm and a
        for/else final evaluation, kept as the bitwise reference."""
        target_y = np.asarray(target_y, dtype=np.float64)
        x = np.array(x_init, dtype=np.float64)
        trace = []
        rising = 0
        converged = False
        steps_taken = 0
        for _ in range(max_steps):
            resid = target_y - embedder.embed(x)
            loss = 0.5 * float(resid @ resid)
            trace.append(loss)
            if np.linalg.norm(resid) < tol:
                converged = True
                break
            if len(trace) > 1 and trace[-1] > trace[-2]:
                rising += 1
                if rising >= 100:
                    raise DivergenceError("diverging", trace)
            else:
                rising = 0
            jac = embedder.embed_grad(x)
            x = x + step_size * (jac.T @ resid)
            steps_taken += 1
        else:
            resid = target_y - embedder.embed(x)
            trace.append(0.5 * float(resid @ resid))
            converged = bool(np.linalg.norm(resid) < tol)
        return x, np.array(trace), converged, steps_taken

    def test_matches_the_loop_bitwise(self):
        rng = np.random.default_rng(21)
        cases = []
        for _ in range(60):
            d = int(rng.integers(2, 6))
            emb = (RadiusEmbedder(d) if rng.random() < 0.5 else
                   LinearEmbedder(np.eye(d) + 0.3 * rng.normal(size=(d, d))))
            y = (np.array([rng.uniform(0.2, 2.0)]) if isinstance(emb, RadiusEmbedder)
                 else rng.normal(size=d))
            kwargs = {"step_size": float(rng.uniform(0.01, 0.6)),
                      "max_steps": int(rng.choice([0, 1, 5, 40, 1000])),
                      # 1e-300 stands for a tol no run reaches; 0 is refused.
                      "tol": float(rng.choice([1e-6, 1e-3, 1e-300]))}
            cases.append((emb, y, rng.normal(size=d), kwargs))
        # Step 3 oscillates on the radius map until max_steps and diverges on the identity.
        cases.append((RadiusEmbedder(2), np.array([1.0]), np.array([1.5, 0.5]),
                      {"step_size": 3.0, "max_steps": 300}))
        cases.append((LinearEmbedder(np.eye(2)), np.array([1.0, 0.0]), np.zeros(2),
                      {"step_size": 3.0}))
        for emb, y, x0, kwargs in cases:
            try:
                want = self.loop_reference(emb, y, x0, **kwargs)
            except DivergenceError as exc:
                with pytest.raises(DivergenceError) as got:
                    whitebox_gd_invert(emb, y, x0, **kwargs)
                assert np.array(got.value.loss_trace).tobytes() == \
                    np.array(exc.loss_trace).tobytes()
                continue
            res = whitebox_gd_invert(emb, y, x0, **kwargs)
            assert res.x.tobytes() == want[0].tobytes()
            assert res.loss_trace.tobytes() == want[1].tobytes()
            assert type(res.converged) is bool and res.converged == want[2]
            assert res.n_steps == want[3]

    def test_embedder_without_gradient_rejected(self):
        class Opaque:
            def embed(self, x):
                return np.zeros(1)

        with pytest.raises(ConfigurationError):
            whitebox_gd_invert(Opaque(), np.array([0.0]), np.zeros(2))

    @pytest.mark.parametrize("y", [np.ones(2), np.ones((1, 1))])
    def test_target_shape_other_than_the_embedding_rejected(self, y):
        with pytest.raises(ShapeError, match="target of shape"):
            whitebox_gd_invert(RadiusEmbedder(2), y, np.array([2.0, 0.0]))


class TestEnergyDistance:
    def test_identical_batches_zero(self):
        a = np.random.default_rng(0).normal(size=(20, 3))
        assert energy_distance(a, a) == 0.0

    def test_singletons(self):
        x = np.array([[0.0, 0.0]])
        y = np.array([[3.0, 4.0]])
        assert energy_distance(x, y) == 10.0

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(15, 2)), rng.normal(size=(10, 2))
        assert energy_distance(a, b) == pytest.approx(energy_distance(b, a), rel=1e-12)

    @given(st.integers(0, 5000), st.integers(R + 1, 2 * R + 3), st.integers(1, 2 * R + 3))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed, n, m):
        # n always crosses a block boundary of the row-blocked distance sums.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, 2))
        b = rng.normal(loc=rng.normal(), size=(m, 2))
        assert energy_distance(a, b) >= -1e-12

    def test_separated_batches_score_high(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(50, 2))
        b = rng.normal(size=(50, 2)) + np.array([10.0, 0.0])
        assert energy_distance(a, b) > 10.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            energy_distance(np.ones((3, 2)), np.ones((3, 3)))

    @pytest.mark.parametrize("a, b", [
        (np.arange(5.0), np.arange(5.0) + 1.0),  # five 1-D samples, not one 5-D point
        (np.ones((4, 1)), np.arange(5.0)),
        (np.ones((0, 2)), np.ones((3, 2))),
        (np.ones((3, 0)), np.ones((3, 0))),
        (np.ones((3, 2, 1)), np.ones((3, 2, 1))),
        (5.0, 6.0),
    ])
    def test_not_a_batch_of_points_rejected(self, a, b):
        with pytest.raises(ShapeError):
            energy_distance(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["batch_a", "batch_b"])
    def test_non_finite_batch_refused_by_name_before_any_block(self, monkeypatch, name, bad):
        monkeypatch.setattr(evaluation, "_distance_sum", no_sums)
        rng = np.random.default_rng(8)
        batches = {"batch_a": rng.normal(size=(2 * R + 3, 2)),
                   "batch_b": rng.normal(size=(R + 1, 2))}
        batches[name][R, 0] = bad
        with pytest.raises(NumericalDomainError, match=name):
            energy_distance(**batches)

    def test_identical_batches_zero_across_blocks(self):
        a = np.random.default_rng(3).normal(size=(2 * R + 3, 64))
        assert energy_distance(a, a) == 0.0
        assert energy_distance(a, a.copy()) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_matches_the_pairwise_tensor(self, d):
        rng = np.random.default_rng(100 + d)
        sizes = (1, R - 1, R, R + 1, 2 * R + 3)
        for n in sizes:
            for m in sizes:
                a = rng.normal(size=(n, d))
                b = rng.normal(loc=0.3, size=(m, d))
                self.check_against_reference(a, b)

    def test_near_duplicates_match_the_pairwise_tensor(self):
        rng = np.random.default_rng(6)
        for d in (1, 2, 64):
            a = rng.normal(size=(2 * R + 3, d))
            b = a[:R + 1] + 1e-9 * rng.normal(size=(R + 1, d))
            self.check_against_reference(a, b)
            tight = rng.normal(size=d) + 1e-9 * rng.normal(size=(R + 2, d))
            self.check_against_reference(tight, tight[::-1] + 1e-9)

    @staticmethod
    def check_against_reference(a, b):
        """Each mean term to 1e-12 relative, the energy distance to 1e-12
        of the cross mean, against the (n, m, d) formula."""
        means = {}
        for name, (u, v) in {"cross": (a, b), "within_a": (a, a), "within_b": (b, b)}.items():
            want = pairwise_reference(u, v).mean()
            means[name] = want
            assert _distance_sum(u, v) / (len(u) * len(v)) == pytest.approx(want, rel=1e-12)
        want = 2.0 * means["cross"] - means["within_a"] - means["within_b"]
        assert abs(energy_distance(a, b) - want) <= 1e-12 * means["cross"]

    def test_memory_does_not_grow_with_the_batch(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(4000, 64)), rng.normal(loc=0.1, size=(4000, 64))
        tracemalloc.start()
        try:
            energy_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


def distance_lanes(monkeypatch, workers):
    """Force nn.WORKERS to workers and record the threads that run distance
    lanes; returns the set, filled as the lanes run."""
    monkeypatch.setattr(nn, "WORKERS", workers)
    threads = set()

    def recording(fn, lanes, pool):
        def lane(w):
            threads.add(threading.get_ident())
            return fn(w)
        return run_lanes(lane, lanes, pool)

    monkeypatch.setattr(nn, "run_lanes", recording)
    return threads


def block_threads():
    return [t for t in threading.enumerate() if t.name.startswith("preimage-block")]


class TestDistanceWorkers:
    """The distance sums' row blocks split over worker lanes give the bits
    of the serial sums, whatever the machine: the worker count is forced."""

    # (n, m): n < R, m = 1, n a multiple of R and not, one block and many.
    SIZES = [(1, 1), (5, 7), (R - 1, 1), (R, R + 1), (R + 1, 1), (2 * R + 3, R - 1),
             (3 * R, 2 * R + 5), (5 * R + 7, 3)]

    def serial_and_lanes(self, monkeypatch, workers, fn):
        """fn() at one worker and at workers, with the threads of the latter."""
        distance_lanes(monkeypatch, 1)
        serial = fn()
        threads = distance_lanes(monkeypatch, workers)
        return serial, fn(), len(threads)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_every_worker_count_gives_the_serial_bits(self, monkeypatch, d, workers):
        rng = np.random.default_rng(200 + d)
        for n, m in self.SIZES:
            a, b = rng.normal(size=(n, d)), rng.normal(loc=0.2, size=(m, d))
            serial, threaded, threads = self.serial_and_lanes(
                monkeypatch, workers, lambda: _distance_sum(a, b))
            # A pool thread may take two lanes, so three lanes may run on two.
            lanes = min(workers, -(-n // R))
            assert threaded.hex() == serial.hex() and (threads > 1) == (lanes > 1)
            assert threads <= lanes
            for fn in (lambda: energy_distance(a, b), lambda: diversity(a) if n > 1 else 0.0):
                serial, threaded, _ = self.serial_and_lanes(monkeypatch, workers, fn)
                assert threaded.hex() == serial.hex(), (n, m)

    def test_identical_batches_still_zero(self, monkeypatch):
        threads = distance_lanes(monkeypatch, 2)
        a = np.random.default_rng(9).normal(size=(3 * R + 5, 64))
        assert energy_distance(a, a) == 0.0
        assert energy_distance(a, a.copy()) == 0.0
        assert len(threads) == 2

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_an_error_in_a_lane_reaches_the_caller(self, monkeypatch, where):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(3 * R, 2)), rng.normal(size=(2 * R, 2))
        want = energy_distance(a, b)
        monkeypatch.setattr(nn, "WORKERS", 2)
        caller = threading.get_ident()

        def failing(fn, lanes, pool):
            def lane(w):
                if (threading.get_ident() == caller) == (where == "caller"):
                    raise FloatingPointError(f"block failed on the {where}")
                return fn(w)
            return run_lanes(lane, lanes, pool)

        monkeypatch.setattr(nn, "run_lanes", failing)
        with pytest.raises(FloatingPointError, match=where):
            energy_distance(a, b)
        assert block_threads() == []
        threads = distance_lanes(monkeypatch, 2)
        assert energy_distance(a, b).hex() == want.hex() and len(threads) == 2

    def test_an_overflow_raises_alike_at_every_worker_count(self, monkeypatch):
        # The caller's np.errstate reaches every lane, so no pool lane warns
        # of the overflow that the caller's lane raises.
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(2 * R, 2)), rng.normal(size=(2 * R, 2))
        a[40:] = 1e200
        errors = []
        for workers in (1, 2):
            threads = distance_lanes(monkeypatch, workers)
            with warnings.catch_warnings(record=True) as caught, np.errstate(over="raise"):
                warnings.simplefilter("always")
                with pytest.raises(FloatingPointError) as error:
                    energy_distance(a, b)
            assert [str(w.message) for w in caught] == [] and len(threads) == workers
            errors.append(str(error.value))
        assert errors == ["overflow encountered in square"] * 2

    def test_no_block_thread_outlives_a_call(self, monkeypatch):
        assert block_threads() == []
        threads = distance_lanes(monkeypatch, 3)
        rng = np.random.default_rng(11)
        energy_distance(rng.normal(size=(4 * R, 2)), rng.normal(size=(4 * R, 2)))
        assert len(threads) > 1 and block_threads() == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_a_threaded_energy_distance(self, monkeypatch):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(4 * R, 2)), rng.normal(size=(3 * R, 2))
        threads = distance_lanes(monkeypatch, 2)
        want = energy_distance(a, b)
        assert len(threads) == 2
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(20)
                threads.clear()
                got = energy_distance(a, b)
                code = 0 if got.hex() == want.hex() and len(threads) == 2 else 3
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status


_THREAD_DISTANCES = textwrap.dedent("""
    import threading
    import numpy as np
    from preimage import nn
    from preimage.evaluation import diversity, energy_distance

    threads, run_lanes = set(), nn.run_lanes

    def recording(fn, lanes, pool):
        def lane(w):
            threads.add(threading.get_ident())
            return fn(w)
        return run_lanes(lane, lanes, pool)

    nn.run_lanes = recording
    rng = np.random.default_rng(13)
    for n, d in ((2000, 2), (300, 64)):
        a, b = rng.normal(size=(n, d)), rng.normal(loc=0.1, size=(n, d))
        print(n, d, energy_distance(a, b).hex(), diversity(a).hex())
    print("threads", len(threads))
""")


def test_distances_bitwise_equal_across_blas_thread_counts():
    # One BLAS thread leaves a core per distance lane, so on two or more
    # cores the "1" child sums its blocks on more than one thread.
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs, threads = [], []
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas,
                   MKL_NUM_THREADS=blas)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _THREAD_DISTANCES], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        *lines, ran = proc.stdout.splitlines()
        outputs.append(lines)
        threads.append(int(ran.removeprefix("threads ")))
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]
    if len(os.sched_getaffinity(0)) >= 2:
        assert threads[0] > 1


def tiny_fitted_model(seed=0):
    model = ConditionalDenoiser(2, 1, hidden_dims=(8,), time_embed_dim=8, seed=seed)
    model.params[...] = np.random.default_rng(seed + 50).normal(scale=0.2, size=model.params.size)
    model.freeze()
    return model


class TestGuidanceSweep:
    def setup_method(self):
        self.model = tiny_fitted_model()
        self.sched = make_cosine_schedule(10)
        self.emb = RadiusEmbedder(2)
        self.cfg = SampleConfig(seed=42)

    def test_row_per_scale(self):
        rows = guidance_sweep(self.model, self.sched, self.emb,
                              np.array([[1.0]]), [1.0, 2.0, 3.0], 3, self.cfg)
        assert [r.guidance_scale for r in rows] == [1.0, 2.0, 3.0]
        assert all(r.n_samples == 3 for r in rows)

    def test_deterministic(self):
        args = (self.model, self.sched, self.emb, np.array([[1.0]]), [1.0, 2.0], 3)
        a = guidance_sweep(*args, self.cfg)
        b = guidance_sweep(*args, self.cfg)
        assert a == b

    def test_base_seed_changes_results(self):
        args = (self.model, self.sched, self.emb, np.array([[1.0]]), [2.0], 3)
        a = guidance_sweep(*args, SampleConfig(seed=1))
        b = guidance_sweep(*args, SampleConfig(seed=2))
        assert a != b

    def test_multiple_targets_averaged(self):
        rows = guidance_sweep(self.model, self.sched, self.emb,
                              np.array([[0.8], [1.2]]), [2.0], 4, self.cfg)
        assert rows[0].n_samples == 8

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            guidance_sweep(self.model, self.sched, self.emb,
                           np.array([[1.0]]), [2.0], 1, self.cfg)

    def test_empty_scales_rejected(self):
        with pytest.raises(ConfigurationError):
            guidance_sweep(self.model, self.sched, self.emb,
                           np.array([[1.0]]), [], 3, self.cfg)

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_base_seed_that_is_not_a_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            guidance_sweep(self.model, self.sched, self.emb, np.array([[1.0]]), [2.0], 3,
                           SampleConfig(seed=seed))

    def test_cell_seed_is_the_seed_sequence_of_base_and_cell(self):
        for cell in [(), (3,), (2, 5)]:
            want = np.random.SeedSequence((7, *cell)).generate_state(1)[0]
            assert cell_seed(7, *cell) == int(want)
        with pytest.raises(ConfigurationError, match="seed"):
            cell_seed(-1, 0)
