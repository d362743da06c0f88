"""Unit tests for schedules, corruption, guidance, respacing, and sampling."""

import math
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preimage.diffusion import (
    NoiseSchedule,
    SampleConfig,
    TrainConfig,
    cfg_combine,
    dynamic_threshold,
    make_cosine_schedule,
    make_linear_schedule,
    null_attr_token,
    null_id_token,
    predict_x0,
    q_sample,
    respace,
    sample,
    sample_batch,
    schedule_from_betas,
    train,
    training_loss,
)
from preimage.errors import (
    ConfigurationError,
    DivergenceError,
    NumericalDomainError,
    SamplingError,
    ShapeError,
    StateError,
)
from preimage import diffusion, nn
from preimage.diffusion import _quantile_last_axis
from preimage.embedders import RadiusEmbedder
from preimage.evaluation import guidance_sweep
from preimage.nn import ROW_BLOCK, Adam, ConditionalDenoiser
from preimage.persistence import load_checkpoint, save_checkpoint


def cosine_bar_closed_form(t: int, n_steps: int) -> float:
    """Independent oracle for the cosine schedule's alpha_bar."""

    def g(u):
        return math.cos((u + 0.008) / 1.008 * math.pi / 2.0) ** 2

    return g(t / n_steps) / g(0.0)


class NoiseRecoveringStub:
    """Test double that recovers the exact drawn noise from (x_t, t).

    Knowing the clean batch and the schedule, the noise that produced x_t is
    (x_t - sqrt(abar) x0) / sqrt(1 - abar); adding a fixed offset yields a
    model with a known residual. Records the conditioning it was shown.
    """

    def __init__(self, x0_batch, schedule, offset=0.0):
        self.x0 = np.asarray(x0_batch, dtype=np.float64)
        self.schedule = schedule
        self.offset = offset
        self.seen = {}
        self.data_dim = self.x0.shape[1]
        self.id_dim = 1
        self.attr_dim = 1

    def forward(self, x_t, y, t, a=None):
        self.seen = {"y": np.array(y), "a": None if a is None else np.array(a), "t": t}
        bars = self.schedule.alpha_bars[np.asarray(t, dtype=np.int64) - 1][:, None]
        eps = (x_t - np.sqrt(bars) * self.x0) / np.sqrt(1.0 - bars)
        return eps + self.offset

    def backward(self, grad_out):
        self.seen["grad"] = np.array(grad_out)
        return grad_out


class TestSchedules:
    def test_cosine_matches_closed_form_where_unclipped(self):
        sched = make_cosine_schedule(1000)
        for t in (1, 10, 250, 500, 900):
            assert sched.alpha_bars[t - 1] == pytest.approx(
                cosine_bar_closed_form(t, 1000), rel=1e-9
            )

    def test_cosine_terminal_bar_small(self):
        sched = make_cosine_schedule(1000)
        assert sched.alpha_bars[-1] < 1e-3

    def test_cosine_invariants(self):
        for T in (1, 2, 10, 100, 1000):
            sched = make_cosine_schedule(T)
            assert np.all(sched.betas > 0) and np.all(sched.betas < 1)
            assert np.all(np.diff(sched.alpha_bars) < 0) or T == 1
            np.testing.assert_allclose(
                sched.alpha_bars, np.cumprod(1.0 - sched.betas), rtol=0
            )

    def test_linear_endpoints_at_reference_length(self):
        sched = make_linear_schedule(1000)
        assert sched.betas[0] == 1e-4
        assert sched.betas[-1] == 0.02

    def test_linear_rescales_with_length(self):
        sched = make_linear_schedule(100)
        assert sched.betas[0] == pytest.approx(1e-3)
        assert sched.betas[-1] == pytest.approx(0.2)

    def test_linear_small_T_stays_valid(self):
        sched = make_linear_schedule(5)
        assert np.all(sched.betas < 1.0)
        assert np.all(np.diff(sched.alpha_bars) < 0)

    def test_posterior_variance_first_step_zero(self):
        for make in (make_cosine_schedule, make_linear_schedule):
            assert make(50).posterior_variances[0] == 0.0

    def test_posterior_variance_below_beta(self):
        sched = make_cosine_schedule(200)
        assert np.all(sched.posterior_variances <= sched.betas)

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            make_cosine_schedule(0)
        with pytest.raises(ConfigurationError):
            make_linear_schedule(0)

    def test_invalid_betas_rejected(self):
        with pytest.raises(ConfigurationError):
            schedule_from_betas(np.array([0.1, 1.0]))
        with pytest.raises(ConfigurationError):
            schedule_from_betas(np.array([]))
        # NaN <= 0 and NaN >= 1 are both false: [nan, 0.1] once gave NaN alpha_bars.
        for betas in ([np.nan, 0.1], [0.1, np.nan], [np.nan]):
            with pytest.raises(ConfigurationError, match="strictly inside"):
                schedule_from_betas(np.array(betas))


class TestQSample:
    def test_quarter_bar_mixture(self):
        # One step with beta 0.75 gives abar exactly 0.25.
        sched = schedule_from_betas(np.array([0.75]))
        out = q_sample(np.array([1.0, 0.0]), 1, np.array([0.0, 1.0]), sched)
        np.testing.assert_allclose(out, [0.5, math.sqrt(3) / 2], rtol=0, atol=1e-15)

    def test_batched_rows_match_scalar_calls(self):
        sched = make_cosine_schedule(50)
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(4, 3))
        eps = rng.normal(size=(4, 3))
        t = np.array([1, 10, 30, 50])
        batch = q_sample(x0, t, eps, sched)
        for i in range(4):
            np.testing.assert_array_equal(batch[i], q_sample(x0[i], int(t[i]), eps[i], sched))

    @given(st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_with_predict_x0(self, t):
        sched = make_cosine_schedule(60)
        rng = np.random.default_rng(t)
        x0 = rng.normal(size=5)
        eps = rng.normal(size=5)
        x_t = q_sample(x0, t, eps, sched)
        np.testing.assert_allclose(predict_x0(x_t, eps, t, sched), x0, atol=1e-9)

    def test_out_of_range_step_rejected(self):
        sched = make_cosine_schedule(10)
        with pytest.raises(ConfigurationError):
            q_sample(np.zeros(2), 0, np.zeros(2), sched)
        with pytest.raises(ConfigurationError):
            q_sample(np.zeros(2), 11, np.zeros(2), sched)

    @pytest.mark.parametrize("t", [2.5, 2.0, np.nan, np.array([1, 2.5]), True])
    def test_non_integer_step_rejected(self, t):
        # 2.5 once read step 2 and NaN ended in numpy's own ValueError.
        sched = make_cosine_schedule(10)
        x0 = np.zeros((2, 2)) if np.ndim(t) else np.zeros(2)
        with pytest.raises(ConfigurationError, match="t must be an integer in"):
            q_sample(x0, t, np.zeros_like(x0), sched)

    def test_noise_shape_mismatch_rejected(self):
        sched = make_cosine_schedule(10)
        with pytest.raises(ShapeError):
            q_sample(np.zeros(2), 1, np.zeros(3), sched)


class TestCfgCombine:
    def test_scale_one_is_conditional_bitwise(self):
        rng = np.random.default_rng(1)
        u, c = rng.normal(size=4), rng.normal(size=4)
        out = cfg_combine(u, c, 1.0)
        np.testing.assert_array_equal(out, c)
        assert out is not c

    def test_scale_zero_is_unconditional(self):
        u, c = np.array([1.0, 2.0]), np.array([5.0, -3.0])
        np.testing.assert_array_equal(cfg_combine(u, c, 0.0), u)

    def test_equal_branches_fixed_point(self):
        v = np.array([0.3, -0.7])
        np.testing.assert_array_equal(cfg_combine(v, v, 3.0), v)

    def test_exact_affinity_on_dyadic_inputs(self):
        # Dyadic rationals make every float64 operation exact, so the
        # affine identity out - u == s * (c - u) holds bitwise.
        u = np.array([0.5, -2.0, 0.25, 8.0])
        c = np.array([1.5, 0.25, -4.0, 8.5])
        for s in (1.0, 1.5, 2.0, 2.5, 3.0):
            np.testing.assert_array_equal(cfg_combine(u, c, s) - u, s * (c - u))

    @given(st.floats(1.0, 8.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_affinity_property(self, s, seed):
        rng = np.random.default_rng(seed)
        u, c = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(cfg_combine(u, c, s) - u, s * (c - u), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            cfg_combine(np.zeros(2), np.zeros(3), 2.0)


class TestPredictX0:
    def test_no_noise_identity(self):
        sched = make_cosine_schedule(20)
        x = np.array([0.4, -1.0])
        t = 5
        x_t = q_sample(x, t, np.zeros(2), sched)
        np.testing.assert_allclose(predict_x0(x_t, np.zeros(2), t, sched), x, atol=1e-12)

    def test_zero_bar_rejected(self):
        bad = NoiseSchedule(
            betas=np.array([0.5]),
            alpha_bars=np.array([0.0]),
            posterior_variances=np.array([0.0]),
            coef_x0=np.array([0.5]),
            coef_xt=np.array([0.0]),
            timestep_map=np.array([1]),
        )
        with pytest.raises(NumericalDomainError):
            predict_x0(np.zeros(2), np.zeros(2), 1, bad)

    @pytest.mark.parametrize("t", [0, -1, 11, 2.0, np.nan])
    def test_out_of_range_step_rejected(self, t):
        # t = 0 once read alpha_bars[-1], and t = T + 1 raised a bare IndexError.
        with pytest.raises(ConfigurationError, match=r"t must be an integer in \[1, 10\]"):
            predict_x0(np.zeros(2), np.zeros(2), t, make_cosine_schedule(10))


class TestDynamicThreshold:
    def test_in_range_values_unchanged(self):
        x = np.array([0.7, -0.2, 0.0])
        np.testing.assert_array_equal(dynamic_threshold(x), x)

    def test_symmetric_spike_normalized(self):
        np.testing.assert_allclose(
            dynamic_threshold(np.array([10.0, 0.0, -10.0]), 0.99), [1.0, 0.0, -1.0]
        )

    def test_single_entry(self):
        np.testing.assert_allclose(dynamic_threshold(np.array([2.0]), 0.99), [1.0])

    def test_rowwise_on_batches(self):
        x = np.array([[10.0, 0.0], [0.5, -0.5]])
        out = dynamic_threshold(x, 1.0)
        np.testing.assert_allclose(out[0], [1.0, 0.0])
        np.testing.assert_array_equal(out[1], x[1])

    def test_clips_outliers_beyond_percentile(self):
        x = np.concatenate([np.full(99, 2.0), [200.0]])
        out = dynamic_threshold(x, 0.5)
        assert np.max(np.abs(out)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            dynamic_threshold(np.array([]))

    def test_bad_percentile_rejected(self):
        with pytest.raises(ConfigurationError):
            dynamic_threshold(np.ones(3), 0.0)

    def test_quantile_bitwise_equal_to_numpy(self):
        rng = np.random.default_rng(12)
        for i in range(600):
            n, d = int(rng.integers(1, 5)), int(rng.integers(1, 10))
            v = np.abs(rng.normal(size=(n, d))) * 10.0 ** rng.uniform(-3, 3)
            if i % 3 == 1:
                v = np.round(v)  # ties
            elif i % 3 == 2:
                v = rng.integers(0, 3, size=(n, d)).astype(np.float64)
            if i % 5 == 0:
                v = v[0]
            q = (1.0, 0.99, 0.5, 0.25, float(rng.uniform(0.01, 1.0)))[i % 5]
            expected = np.quantile(v, q, axis=-1, keepdims=True)
            got = _quantile_last_axis(v, q)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (v, q)

    def test_clipping_bitwise_equal_to_np_clip(self):
        # dynamic_threshold clips without np.clip's Python wrapper; np.clip
        # is the reference, signed zeros, infinities and NaN signs included.
        rng = np.random.default_rng(13)
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0])
        for i in range(300):
            n, d = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-1, 2)
            mask = rng.random((n, d)) < (0.0, 0.2, 0.5)[i % 3]
            x[mask] = rng.choice(specials, size=int(mask.sum()))
            q = (1.0, 0.99, 0.5)[i % 3]
            with np.errstate(invalid="ignore"):
                s = np.maximum(_quantile_last_axis(np.abs(x), q), 1.0)
                want = np.clip(x, -s, s) / s
                got = dynamic_threshold(x, q)
            assert got.tobytes() == want.tobytes(), (x, q)

    def test_quantile_propagates_nan_like_numpy(self):
        v = np.array([[np.nan, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]])
        np.testing.assert_array_equal(_quantile_last_axis(v, 0.5),
                                      np.quantile(v, 0.5, axis=-1, keepdims=True))


class TestRespace:
    def test_full_length_is_identity(self):
        sched = make_cosine_schedule(40)
        sub = respace(sched, 40)
        np.testing.assert_allclose(sub.alpha_bars, sched.alpha_bars, atol=1e-12)
        np.testing.assert_array_equal(sub.timestep_map, np.arange(1, 41))

    def test_kept_bars_preserved(self):
        sched = make_cosine_schedule(100)
        sub = respace(sched, 25)
        assert sub.n_steps == 25
        for i in range(25):
            orig = sched.alpha_bars[sub.timestep_map[i] - 1]
            assert abs(sub.alpha_bars[i] - orig) < 1e-12

    def test_final_step_always_kept(self):
        sched = make_linear_schedule(77)
        for n in (1, 2, 10, 77):
            assert respace(sched, n).timestep_map[-1] == 77

    def test_single_step(self):
        sched = make_cosine_schedule(30)
        sub = respace(sched, 1)
        assert sub.n_steps == 1
        assert abs(sub.alpha_bars[0] - sched.alpha_bars[-1]) < 1e-12

    def test_out_of_range_rejected(self):
        sched = make_cosine_schedule(10)
        with pytest.raises(ConfigurationError):
            respace(sched, 0)
        with pytest.raises(ConfigurationError):
            respace(sched, 11)


class TestTrainingLoss:
    def setup_method(self):
        self.sched = make_cosine_schedule(50)
        rng = np.random.default_rng(7)
        self.x0 = rng.normal(size=(8, 4))
        self.y = rng.normal(size=(8, 1))

    def test_perfect_predictor_loss_vanishes(self):
        stub = NoiseRecoveringStub(self.x0, self.sched)
        loss = training_loss(stub, self.x0, self.y, self.sched,
                             np.random.default_rng(0), dropout_prob=0.0)
        assert loss < 1e-20

    def test_unit_offset_loss_is_inverse_dim(self):
        # Residual is exactly the all-ones offset, so the mean square is 1.
        stub = NoiseRecoveringStub(self.x0, self.sched, offset=1.0)
        loss = training_loss(stub, self.x0, self.y, self.sched,
                             np.random.default_rng(0), dropout_prob=0.0)
        assert loss == pytest.approx(1.0, abs=1e-10)

    def test_upstream_gradient_scaling(self):
        stub = NoiseRecoveringStub(self.x0, self.sched, offset=1.0)
        training_loss(stub, self.x0, self.y, self.sched,
                      np.random.default_rng(0), dropout_prob=0.0)
        np.testing.assert_allclose(stub.seen["grad"], 2.0 / self.x0.size, atol=1e-10)

    def test_forced_dropout_uses_null_tokens(self):
        stub = NoiseRecoveringStub(self.x0, self.sched)
        a = np.random.default_rng(1).normal(size=(8, 2))
        training_loss(stub, self.x0, self.y, self.sched,
                      np.random.default_rng(0), a_batch=a, dropout_prob=1.0)
        np.testing.assert_array_equal(stub.seen["y"], np.zeros((8, 1)))
        np.testing.assert_array_equal(stub.seen["a"], -np.ones((8, 2)))

    def test_no_dropout_passes_conditioning_through(self):
        stub = NoiseRecoveringStub(self.x0, self.sched)
        training_loss(stub, self.x0, self.y, self.sched,
                      np.random.default_rng(0), dropout_prob=0.0)
        np.testing.assert_array_equal(stub.seen["y"], self.y)

    def test_timesteps_within_range(self):
        stub = NoiseRecoveringStub(self.x0, self.sched)
        training_loss(stub, self.x0, self.y, self.sched, np.random.default_rng(3))
        t = np.asarray(stub.seen["t"])
        assert np.all(t >= 1) and np.all(t <= 50)

    def test_bad_dropout_rejected(self):
        stub = NoiseRecoveringStub(self.x0, self.sched)
        with pytest.raises(ConfigurationError):
            training_loss(stub, self.x0, self.y, self.sched,
                          np.random.default_rng(0), dropout_prob=1.5)

    @pytest.mark.filterwarnings("error")
    def test_an_empty_batch_is_refused_before_any_draw(self):
        # It once returned NaN after numpy's "Mean of empty slice" warning.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ShapeError, match="at least one row"):
            training_loss(toy_model(), np.empty((0, 2)), np.empty((0, 1)), self.sched, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("shape", [(4, 1), (2, 1), (3,), (1,), (3, 1, 1)])
    def test_attributes_of_another_row_count_or_rank_are_refused_up_front(self, shape):
        # They once reached np.where and raised numpy's broadcasting ValueError.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        x0 = np.random.default_rng(1).normal(size=(3, 2))
        with pytest.raises(ShapeError, match="a must be 2-D with 3 rows"):
            training_loss(toy_model(attr_dim=1), x0, x0[:, :1], self.sched, rng,
                          a_batch=np.ones(shape))
        assert rng.bit_generator.state == state


def toy_model(seed=0, attr_dim=None):
    """A tiny randomized denoiser, still writable."""
    model = ConditionalDenoiser(2, 1, hidden_dims=(8, 8), time_embed_dim=8,
                                attr_dim=attr_dim, seed=seed)
    model.params[...] = np.random.default_rng(seed + 100).normal(scale=0.2,
                                                                size=model.params.size)
    return model


def fitted_toy_model(seed=0, attr_dim=None):
    """toy_model, frozen, for sampler plumbing tests."""
    model = toy_model(seed, attr_dim)
    model.freeze()
    return model


class TestSampler:
    def setup_method(self):
        self.sched = make_cosine_schedule(20)
        self.model = fitted_toy_model()

    def test_fixed_seed_bitwise_reproducible(self):
        cfg = SampleConfig(seed=5, guidance_scale=2.0)
        a = sample_batch(self.model, np.array([1.0]), self.sched, cfg, 3)
        b = sample_batch(self.model, np.array([1.0]), self.sched, cfg, 3)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        cfg_a = SampleConfig(seed=5)
        cfg_b = SampleConfig(seed=6)
        y = np.array([1.0])
        assert not np.array_equal(
            sample_batch(self.model, y, self.sched, cfg_a, 2),
            sample_batch(self.model, y, self.sched, cfg_b, 2),
        )

    def test_zeroed_conditioning_makes_guidance_inert(self):
        # With the id projection zeroed, conditional and unconditional
        # branches coincide, so any guidance scale reproduces the scale-1
        # trajectory bitwise.
        model = toy_model(seed=3)
        model.id_proj.weight[...] = 0.0
        model.id_proj.bias[...] = 0.0
        model.freeze()
        y = np.array([2.0])
        base = SampleConfig(seed=9, guidance_scale=1.0, threshold=False)
        guided = SampleConfig(seed=9, guidance_scale=2.0, threshold=False)
        np.testing.assert_array_equal(
            sample_batch(model, y, self.sched, base, 4),
            sample_batch(model, y, self.sched, guided, 4),
        )

    def test_single_sample_matches_batch_of_one(self):
        cfg = SampleConfig(seed=11)
        one = sample(self.model, np.array([0.5]), self.sched, cfg)
        np.testing.assert_array_equal(
            one, sample_batch(self.model, np.array([0.5]), self.sched, cfg, 1)[0]
        )

    def test_unfitted_model_rejected(self):
        model = ConditionalDenoiser(2, 1, (8,), 8)
        with pytest.raises(StateError):
            sample(model, np.array([1.0]), self.sched, SampleConfig(seed=0))
        # The documented writable copy of a fitted model is not fitted either.
        m = self.model
        with pytest.raises(StateError):
            sample(ConditionalDenoiser(**m.topology(), seed=m.seed, params=m.params),
                   np.array([1.0]), self.sched, SampleConfig(seed=0))

    @pytest.mark.parametrize("name, y, a", [
        ("y", [np.nan], None), ("y", [np.inf], None), ("y", np.array([[1.0], [-np.inf]]), None),
        ("a", [1.0], [np.nan]), ("a", [1.0], np.array([[0.5], [np.nan]])),
    ])
    @pytest.mark.parametrize("guidance", [1.0, 2.0])
    def test_non_finite_target_or_attribute_refused_before_any_work(
            self, monkeypatch, name, y, a, guidance):
        # These once ran a reverse step and then blamed the model with a
        # SamplingError; now nothing is planned or drawn.
        model = fitted_toy_model(seed=8, attr_dim=1)

        def no_draw(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(NumericalDomainError, match=f"^{name} holds non-finite values"):
            sample_batch(model, np.asarray(y), self.sched,
                         SampleConfig(seed=0, guidance_scale=guidance), 2, a=a)
        assert model.sampler_plan is None

    def test_guidance_sweep_refuses_a_non_finite_target(self):
        with pytest.raises(NumericalDomainError, match="^y holds non-finite values"):
            guidance_sweep(self.model, self.sched, RadiusEmbedder(2), np.array([[1.0], [np.nan]]),
                           [1.0, 2.0], 2, SampleConfig(seed=0))

    def test_guidance_below_one_clamped_with_warning(self):
        with pytest.warns(UserWarning):
            cfg = SampleConfig(seed=1, guidance_scale=0.5).resolved()
        assert cfg.guidance_scale == 1.0

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            SampleConfig(seed=seed).resolved()

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_guidance_rejected(self, scale):
        # nan < 1.0 is false, so nan would otherwise reach the sampler.
        with pytest.raises(ConfigurationError, match="guidance scale must be finite"):
            SampleConfig(seed=0, guidance_scale=scale).resolved()

    def test_threshold_auto_resolution(self):
        assert SampleConfig(seed=0, guidance_scale=2.0).resolved().threshold is True
        assert SampleConfig(seed=0, guidance_scale=1.0).resolved().threshold is False
        assert SampleConfig(seed=0, guidance_scale=1.5).resolved().threshold is False

    def test_variance_modes_differ(self):
        y = np.array([1.0])
        a = sample_batch(self.model, y, self.sched,
                         SampleConfig(seed=4, variance_mode="posterior"), 2)
        b = sample_batch(self.model, y, self.sched,
                         SampleConfig(seed=4, variance_mode="beta"), 2)
        assert not np.array_equal(a, b)

    def test_bad_variance_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            sample(self.model, np.array([1.0]), self.sched,
                   SampleConfig(seed=0, variance_mode="sigma"))

    def test_nan_model_aborts_with_step_diagnostic(self):
        model = toy_model(seed=2)
        model.output.weight[...] = np.nan
        model.freeze()
        with pytest.raises(SamplingError, match="step"):
            sample(model, np.array([1.0]), self.sched, SampleConfig(seed=0))

    def test_attr_rejected_without_attr_model(self):
        with pytest.raises(ConfigurationError):
            sample(self.model, np.array([1.0]), self.sched,
                   SampleConfig(seed=0), a=np.array([0.3]))

    def test_attr_conditioning_accepted(self):
        model = fitted_toy_model(seed=8, attr_dim=1)
        out = sample_batch(model, np.array([1.0]), self.sched,
                           SampleConfig(seed=2), 2, a=np.array([0.5]))
        assert out.shape == (2, 2)
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("guidance", [1.0, 2.0])
    def test_attr_model_without_a_samples_the_no_preference_token(self, guidance):
        # The model saw only attributes and the null token in training.
        model = fitted_toy_model(seed=8, attr_dim=2)
        cfg = SampleConfig(seed=3, guidance_scale=guidance)
        np.testing.assert_array_equal(
            sample_batch(model, np.array([1.0]), self.sched, cfg, 4),
            sample_batch(model, np.array([1.0]), self.sched, cfg, 4, a=null_attr_token(2)))

    @pytest.mark.parametrize("y", [np.array(1.0), np.array([1.0]), np.ones((3, 1))])
    def test_accepted_target_shapes(self, y):
        cfg = SampleConfig(seed=2)
        out = sample_batch(self.model, y, self.sched, cfg, 3)
        assert out.shape == (3, 2)
        if y.ndim < 2:
            np.testing.assert_array_equal(
                out, sample_batch(self.model, np.array([1.0]), self.sched, cfg, 3))

    @pytest.mark.parametrize("y", [np.ones((1, 1)), np.ones(2), np.ones((3, 2)), np.ones((2, 1))])
    def test_rejected_target_shapes(self, y):
        with pytest.raises(ShapeError):
            sample_batch(self.model, y, self.sched, SampleConfig(seed=2), 3)

    def test_attr_shapes(self):
        model = fitted_toy_model(seed=8, attr_dim=1)
        for a in (np.array(0.5), np.array([0.5]), np.full((3, 1), 0.5)):
            out = sample_batch(model, np.array([1.0]), self.sched, SampleConfig(seed=2), 3, a=a)
            assert out.shape == (3, 2)
        with pytest.raises(ShapeError):
            sample_batch(model, np.array([1.0]), self.sched, SampleConfig(seed=2), 3,
                         a=np.full((1, 1), 0.5))

    def test_shared_target_matches_tiled_rows(self):
        model = fitted_toy_model(seed=8, attr_dim=1)
        cfg = SampleConfig(seed=4, guidance_scale=2.0)
        y, a = np.array([0.8]), np.array([0.3])
        shared = sample_batch(model, y, self.sched, cfg, 5, a=a)
        rows = sample_batch(model, np.tile(y, (5, 1)), self.sched, cfg, 5, a=np.tile(a, (5, 1)))
        # The float32 network rounds a shared and a per-row condition
        # differently: at most 3.5e-8 apart here.
        np.testing.assert_allclose(shared, rows, rtol=1e-9, atol=3e-7)

    def test_shared_target_and_null_tokens_reach_model_as_vectors(self):
        model = fitted_toy_model(seed=8, attr_dim=2)
        calls = []

        def step_tables(t, null):
            calls.append((t, [np.array(v) for v in null]))
            return ConditionalDenoiser.step_tables(model, t, null)

        def condition_terms(y, a, tables, nulls=None):
            calls.append((np.array(y), np.array(a), tables, nulls))
            return ConditionalDenoiser.condition_terms(model, y, a, tables, nulls)

        model.step_tables, model.condition_terms = step_tables, condition_terms
        for guidance in (2.0, 1.0):
            sample_batch(model, np.array([0.7]), self.sched,
                         SampleConfig(seed=0, guidance_scale=guidance, respace_steps=1), 4,
                         a=np.array([0.1, 0.2]))
        # The plan conditions the null tokens once, on the request's
        # respaced timesteps, as a request for them alone; each request its
        # own branch, over the plan's null branch when guided.
        [(t, null), (*null_request, _, null_nulls), *requests] = calls
        np.testing.assert_array_equal(t, respace(self.sched, 1).timestep_map)
        for y_null, a_null in (null, null_request):
            np.testing.assert_array_equal(y_null, null_id_token(1))
            np.testing.assert_array_equal(a_null, null_attr_token(2))
        plan = model.sampler_plan
        assert null_nulls is None
        (*_, guided), (*_, alone) = requests
        assert guided is plan.nulls and alone is None
        for y_cond, a_cond, tables, _ in requests:
            np.testing.assert_array_equal(y_cond, [0.7])
            np.testing.assert_array_equal(a_cond, [0.1, 0.2])
            assert tables is plan.tables

    def test_sampling_writes_no_activation_cache(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 2))
        cfg = TrainConfig(seed=2, timesteps=10, total_batches=5, batch_size=8)
        model = train(x, x[:, :1].copy(), cfg, attrs=x[:, 1:].copy(),
                      hidden_dims=(8, 8), time_embed_dim=8).model
        assert model._cache is None
        sample_batch(model, np.array([1.0]), self.sched, SampleConfig(seed=0), 3,
                     a=np.full((3, 1), 0.5))
        assert model._cache is None


@pytest.fixture(scope="module")
def ring_fit(tmp_path_factory):
    """A small trained ring model and the path of its saved checkpoint."""
    x = np.random.default_rng(0).normal(size=(64, 2))
    result = train(x, np.linalg.norm(x, axis=1, keepdims=True),
                   TrainConfig(seed=1, timesteps=20, total_batches=10, batch_size=8),
                   hidden_dims=(8, 8), time_embed_dim=8)
    path = str(tmp_path_factory.mktemp("ring") / "ring.ckpt")
    save_checkpoint(path, replace(result, embedder_info=RadiusEmbedder(2).info))
    return result, path


def sampled_models(ring_fit):
    """(model, schedule) of each way the benchmark and the CLI get a model to
    sample, fresh: ema_model() of the trained record ("TrainResult") and of
    the loaded one ("Checkpoint", the record's old name), and the loaded
    ckpt.model of --no-ema."""
    result, path = ring_fit
    ema_ckpt, live_ckpt = load_checkpoint(path), load_checkpoint(path)
    return {"TrainResult.ema_model()": (result.ema_model(), result.schedule),
            "Checkpoint.ema_model()": (ema_ckpt.ema_model(), ema_ckpt.schedule),
            "ckpt.model": (live_ckpt.model, live_ckpt.schedule)}


class TestSamplerPlan:
    """The plan sample_batch keeps on a fitted, so frozen, model: reused while
    the schedule, step count and variance mode are those it was built from,
    rebuilt otherwise, and never a cause of other bytes."""

    Y = np.array([0.8])

    def setup_method(self):
        self.sched = make_cosine_schedule(20)
        self.model = fitted_toy_model(seed=4)

    def fresh(self, cfg, sched=None):
        """The request on a clone, which starts without a plan."""
        model = self.model.clone()
        assert model.sampler_plan is None
        return sample_batch(model, self.Y, sched or self.sched, cfg, 3)

    @pytest.mark.parametrize("guidance, threshold", [(1.0, "auto"), (2.0, "auto"),
                                                     (2.0, False), (1.0, True)])
    def test_reused_plan_gives_the_bytes_of_a_fresh_clone(self, guidance, threshold):
        sample_batch(self.model, self.Y, self.sched, SampleConfig(seed=0), 3)
        plan = self.model.sampler_plan
        cfg = SampleConfig(seed=7, guidance_scale=guidance, threshold=threshold)
        got = sample_batch(self.model, self.Y, self.sched, cfg, 3)
        assert self.model.sampler_plan is plan
        assert got.tobytes() == self.fresh(cfg).tobytes()

    def test_reused_plan_serves_attributes_and_per_row_targets(self):
        model = fitted_toy_model(seed=5, attr_dim=2)
        cfg = SampleConfig(seed=3, guidance_scale=2.0)
        rows = np.random.default_rng(0).normal(size=(4, 1))
        attrs = np.random.default_rng(1).normal(size=(4, 2))
        sample_batch(model, self.Y, self.sched, cfg, 4)
        plan = model.sampler_plan
        for y, a in ((self.Y, np.array([0.5, -0.5])), (rows, None), (rows, attrs)):
            got = sample_batch(model, y, self.sched, cfg, 4, a=a)
            want = sample_batch(model.clone(), y, self.sched, cfg, 4, a=a)
            assert got.tobytes() == want.tobytes()
        assert model.sampler_plan is plan

    def test_respace_steps_beyond_the_schedule_refused_by_name_before_planning(self):
        model = self.model.clone()
        with pytest.raises(ConfigurationError,
                           match=r"respace_steps must be an integer in \[1, 20\], got 21"):
            sample_batch(model, self.Y, self.sched, SampleConfig(seed=0, respace_steps=21), 3)
        assert model.sampler_plan is None

    @pytest.mark.parametrize("attr_dim", [None, 2])
    def test_a_guided_request_conditions_one_branch(self, monkeypatch, attr_dim):
        # The plan holds the null branch's tables, so a request on a kept
        # plan runs id_proj, attr_proj and each inject map once.
        model = fitted_toy_model(seed=6, attr_dim=attr_dim)
        cfg = SampleConfig(seed=2, guidance_scale=2.0)
        sample_batch(model, self.Y, self.sched, cfg, 3)
        calls = {}
        layers = [model.id_proj, *model.inject] + ([model.attr_proj] if attr_dim else [])
        for layer in layers:
            def counted(*args, layer=layer, forward=layer.forward, **kwargs):
                calls[id(layer)] = calls.get(id(layer), 0) + 1
                return forward(*args, **kwargs)
            monkeypatch.setattr(layer, "forward", counted)
        sample_batch(model, self.Y, self.sched, cfg, 3)
        assert [calls.get(id(layer), 0) for layer in layers] == [1] * len(layers)

    def test_equal_schedule_object_reuses_the_plan(self):
        cfg = SampleConfig(seed=1)
        sample_batch(self.model, self.Y, self.sched, cfg, 3)
        plan = self.model.sampler_plan
        sample_batch(self.model, self.Y, make_cosine_schedule(20), cfg, 3)
        assert self.model.sampler_plan is plan

    @pytest.mark.parametrize("kind", ["train", "TrainResult.ema_model()",
                                      "Checkpoint.ema_model()", "ckpt.model", "clone()"])
    def test_a_fitted_model_refuses_every_edit(self, ring_fit, kind):
        # A kept plan is valid because nothing can change the params under it.
        result = ring_fit[0]
        if kind == "train":
            model = result.model
        elif kind == "clone()":
            model = result.model.clone()
        else:
            model = sampled_models(ring_fit)[kind][0]
        sample_batch(model, self.Y, result.schedule, SampleConfig(seed=0), 2)
        before = model.params.copy()
        edits = [lambda: model.params.__setitem__(0, 1.0),
                 lambda: model.set_params_flat(before + 1.0)]
        edits += [lambda view=view: view.__iadd__(0.5)
                  for _, layer in model._layers for view in (layer.weight, layer.bias)]
        assert model.fitted and len(edits) == 2 + 2 * len(model._layers)
        for edit in edits:
            with pytest.raises(ValueError, match="read-only"):
                edit()
        # Adam refuses before it moves its own state, so a caller that catches
        # the error holds an optimizer that has not stepped.
        opt = Adam(before)
        with pytest.raises(StateError, match="read-only"):
            opt.step(model.params, np.ones_like(before))
        assert opt.step_count == 0 and not opt.m.any() and not opt.v.any()
        assert model.params.tobytes() == before.tobytes()

    def test_the_bench_and_cli_request_mix_keeps_one_plan_per_model(self, monkeypatch,
                                                                    ring_fit):
        calls = {}
        step_tables = ConditionalDenoiser.step_tables

        def counted(model, t, null):
            calls[id(model)] = calls.get(id(model), 0) + 1
            return step_tables(model, t, null)

        monkeypatch.setattr(ConditionalDenoiser, "step_tables", counted)
        gallery = np.random.default_rng(3).uniform(0.5, 1.5, size=(64, 1))
        mix = [(self.Y, 1, 1.0), (self.Y, 1, 2.0), (self.Y, 64, 2.0), (gallery, 64, 2.0)]
        for name, (model, schedule) in sampled_models(ring_fit).items():
            for seed in range(20):
                y, n, guidance = mix[seed % len(mix)]
                cfg = SampleConfig(seed=100 + seed, guidance_scale=guidance)
                assert sample_batch(model, y, schedule, cfg, n).shape == (n, 2)
                if not seed:
                    plan = model.sampler_plan
                assert model.sampler_plan is plan, (name, seed)
            assert calls.pop(id(model)) == 1, name

    @pytest.mark.parametrize("change", ["schedule", "steps", "variance_mode"])
    def test_other_key_rebuilds_the_plan(self, change):
        base = SampleConfig(seed=6, guidance_scale=2.0)
        sched, cfg = self.sched, base
        if change == "schedule":
            sched = make_linear_schedule(20)
        elif change == "steps":
            cfg = replace(base, respace_steps=7)
        else:
            cfg = replace(base, variance_mode="beta")
        sample_batch(self.model, self.Y, self.sched, base, 3)
        first = self.model.sampler_plan
        got = sample_batch(self.model, self.Y, sched, cfg, 3)
        second = self.model.sampler_plan
        assert second is not first
        assert got.tobytes() == self.fresh(cfg, sched).tobytes()
        # One plan per model: going back replaces it again.
        again = sample_batch(self.model, self.Y, self.sched, base, 3)
        assert self.model.sampler_plan is not second
        assert again.tobytes() == self.fresh(base).tobytes()

    def test_sampling_writes_nothing_onto_the_model_but_its_plan(self):
        model = self.model.clone()
        before = dict(vars(model))
        sample_batch(model, self.Y, self.sched, SampleConfig(seed=3, guidance_scale=2.0), 300)
        after = dict(vars(model))
        assert before.pop("sampler_plan") is None and after.pop("sampler_plan") is not None
        assert after.keys() == before.keys()
        assert all(after[name] is before[name] for name in before)

    def test_concurrent_requests_on_one_model_give_their_serial_bytes(self, monkeypatch):
        # Four threads on one frozen model, their step counts replacing each
        # other's plans, with more lanes than cores once n passes a block.
        monkeypatch.setattr(nn, "WORKERS", 2)
        model, rng = tiny_model(9, attr_dim=2), np.random.default_rng(34)
        requests = []
        for i, (steps, guidance, n) in enumerate(
                [(5, 2.0, 1), (20, 1.0, 300), (10, 3.0, 64), (5, 1.0, 600), (20, 2.0, 1),
                 (10, 2.0, 2 * ROW_BLOCK + 3), (5, 2.0, 64), (20, 1.0, 1)]):
            y = np.array([0.9]) if i % 2 else rng.uniform(0.5, 1.5, size=(n, 1))
            a = np.array([0.4, -0.6]) if i % 3 else rng.normal(size=(n, 2))
            cfg = SampleConfig(seed=i, guidance_scale=guidance, respace_steps=steps)
            requests.append((y, cfg, n, a))
        serial = [sample_batch(model, y, self.sched, cfg, n, a=a).tobytes()
                  for y, cfg, n, a in requests]
        results = {}

        def worker(j):
            for _ in range(3):
                for i in range(j, len(requests), 4):
                    y, cfg, n, a = requests[i]
                    results.setdefault(i, []).append(
                        sample_batch(model, y, self.sched, cfg, n, a=a).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(j,)) for j in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {i: [want] * 3 for i, want in enumerate(serial)}

    def test_alternating_guidance_is_bitwise_reproducible(self):
        requests = [SampleConfig(seed=s, guidance_scale=g)
                    for s, g in enumerate((1.0, 2.0, 1.0, 3.0, 1.3, 2.0))]
        first = [sample_batch(self.model, self.Y, self.sched, cfg, 3) for cfg in requests]
        second = [sample_batch(self.model, self.Y, self.sched, cfg, 3) for cfg in requests]
        for cfg, a, b in zip(requests, first, second, strict=True):
            assert a.tobytes() == b.tobytes() == self.fresh(cfg).tobytes()

    def test_guidance_sweep_respaces_and_embeds_timesteps_once(self, monkeypatch):
        # Counted as the benchmark's timing shims patch: a function under
        # every module namespace of the package that holds it.
        calls = {}
        package = [m for name, m in sys.modules.items()
                   if name == "preimage" or name.startswith("preimage.")]
        for home, qual in ((diffusion, "respace"), (nn, "sinusoidal_embed"),
                           (diffusion, "sample_batch")):
            fn = getattr(home, qual)
            calls[qual] = 0

            def counted(*args, _fn=fn, _qual=qual, **kwargs):
                calls[_qual] += 1
                return _fn(*args, **kwargs)

            for mod in package:
                if mod.__dict__.get(qual) is fn:
                    monkeypatch.setattr(mod, qual, counted)
        targets = np.array([[0.6], [0.9], [1.2], [1.5]])
        rows = guidance_sweep(self.model, self.sched, RadiusEmbedder(2), targets,
                              [1.0, 1.5, 2.0, 3.0, 4.0], 3, SampleConfig(seed=8))
        assert len(rows) == 5
        assert calls == {"respace": 1, "sinusoidal_embed": 1, "sample_batch": 20}


@pytest.mark.parametrize("workers", [1, 2])
def test_sampling_memory_does_not_grow_with_the_row_count(monkeypatch, workers):
    # The workspace holds one row block per buffer and worker plus the
    # (B, n, d) output; the step's own (n, d) temporaries come on top. A
    # workspace of (n, h) buffers per hidden layer, about 28 MB here, fails
    # the bound.
    monkeypatch.setattr(nn, "WORKERS", workers)
    model = ConditionalDenoiser(2, 1, hidden_dims=(128, 128, 128), time_embed_dim=64, seed=0)
    model.freeze()
    sched = make_cosine_schedule(100)
    cfg = SampleConfig(seed=0, guidance_scale=2.0, respace_steps=3)
    y, n, branches = np.array([1.0]), 4096, 2
    sample_batch(model, y, sched, cfg, 1)
    tracemalloc.start()
    try:
        sample_batch(model, y, sched, cfg, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = min(n, ROW_BLOCK)
    workspace = 8 * (workers * (block * 128 + 2 * branches * block * 128) + branches * n * 2)
    assert peak < 2 * workspace + 32 * 8 * n * 2, peak


@pytest.mark.parametrize("workers", [1, 2])
def test_gallery_memory_counts_float32_rows_tables(monkeypatch, workers):
    # A per-row y adds one float32 (n, h) term per hidden layer, which the
    # request keeps, and the (n, emb) float64 condition they are made from;
    # the float32 workspace and the step's (n, d) temporaries come on top.
    # float64 rows tables (14.1 MiB at one worker) fail the bound.
    monkeypatch.setattr(nn, "WORKERS", workers)
    model = ConditionalDenoiser(2, 1, hidden_dims=(128, 128, 128), time_embed_dim=64, seed=0)
    model.freeze()
    sched = make_cosine_schedule(100)
    cfg = SampleConfig(seed=0, guidance_scale=2.0, respace_steps=3)
    n, branches = 4096, 2
    y = np.random.default_rng(1).uniform(0.5, 1.5, size=(n, 1))
    sample_batch(model, y[:1], sched, cfg, 1)
    tracemalloc.start()
    try:
        sample_batch(model, y, sched, cfg, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = min(n, ROW_BLOCK)
    workspace = 4 * workers * (block * 128 + 2 * branches * block * 128) + 12 * branches * n * 2
    rows, cond = 3 * 4 * n * 128, 8 * n * 64
    assert peak < 2 * workspace + rows + cond + 32 * 8 * n * 2, peak


class TestFloat32Network:
    """The sampler's network runs in float32 on the plan's read-only float32
    weights and terms; the state, and so every sample, stays float64."""

    def model(self, attr_dim=None, scale=0.1):
        model = ConditionalDenoiser(2, 1, attr_dim=attr_dim, seed=0)
        model.params[...] = np.random.default_rng(40).normal(scale=scale,
                                                             size=model.params.size)
        model.freeze()
        return model

    def test_weights_and_terms_are_float32_and_read_only_and_samples_float64(self):
        model, sched = self.model(attr_dim=2), make_cosine_schedule(100)
        n = 300
        out = sample_batch(model, np.array([1.0]), sched, SampleConfig(seed=1), n)
        assert out.dtype == np.float64
        plan = model.sampler_plan
        mains, output = plan.weights
        for weight, layer in zip([*mains, output], [*model.mains, model.output], strict=True):
            assert weight.dtype == np.float32 and weight.flags.c_contiguous
            assert not weight.flags.writeable
            np.testing.assert_array_equal(weight, layer.weight.astype(np.float32))
        assert all(table.dtype == np.float64 for table in plan.tables)
        assert all(null.dtype == np.float32 and not null.flags.writeable for null in plan.nulls)
        rng = np.random.default_rng(2)
        for y, a in ((np.array([1.0]), np.array([0.5, -0.5])),
                     (rng.uniform(0.5, 1.5, size=(n, 1)), rng.normal(size=(n, 2)))):
            for steps, rows in model.condition_terms(y, a, plan.tables, plan.nulls):
                for array in (steps,) if rows is None else (steps, rows):
                    assert array.dtype == np.float32 and not array.flags.writeable
            out = sample_batch(model, y, sched, SampleConfig(seed=1, guidance_scale=2.0), n, a=a)
            assert out.dtype == np.float64

    def test_a_large_guided_request_stays_near_the_float64_reference(self):
        # forward_reference runs the float64 forward the model was trained
        # as. Over these 2,500 rows the samples moved by at most 6.5e-7.
        model, sched = self.model(), make_cosine_schedule(100)
        cfg = SampleConfig(seed=41, guidance_scale=2.0)
        got = sample_batch(model, np.array([1.0]), sched, cfg, 2500)
        want = forward_reference(model, np.array([1.0]), sched, cfg, 2500)
        np.testing.assert_allclose(got, want, rtol=0, atol=5e-6)

    @pytest.mark.parametrize("layer, where, value, name", [
        ("output", "weight", 1e39, "output.weight"),
        ("hidden_0", "weight", -1e39, "hidden_0.weight"),
        ("input_proj", "weight", 4e38, "input_proj.weight"),
        ("input_proj", "bias", 1e39, "hidden layer 0's condition terms"),
        ("inject_2", "bias", -1e39, "hidden layer 2's condition terms"),
    ])
    def test_a_parameter_float32_cannot_hold_is_refused_by_name_before_any_draw(
            self, monkeypatch, layer, where, value, name):
        model = ConditionalDenoiser(2, 1, hidden_dims=(8, 8, 8), time_embed_dim=8, seed=0)
        getattr(dict(model._layers)[layer], where).flat[3] = value
        model.freeze()

        def no_draws(*args, **kwargs):
            raise AssertionError("a draw before the refusal")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDomainError, match=re.escape(name)):
                sample_batch(model, np.array([1.0]), make_cosine_schedule(10),
                             SampleConfig(seed=0, guidance_scale=2.0), 4)
        assert model.sampler_plan is None


def overflow_model(hidden_dims=(8, 8, 8)):
    """A frozen model whose weights float32 holds but whose activations it
    does not: a fresh model's last two trunk weights scaled by 1e20, the
    output weights set to 1e-30. The float64 forward stays finite."""
    model = ConditionalDenoiser(2, 1, hidden_dims=hidden_dims, time_embed_dim=8, seed=0)
    for layer in model.mains[-2:]:
        layer.weight[...] *= 1e20
    model.output.weight[...] = 1e-30
    model.freeze()
    return model


class TestOverflow:
    """Every overflow in sampling, in the float32 network or the float64
    tail, on the calling thread or a lane, is a PreimageError and leaks no
    RuntimeWarning."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1, 600])
    @pytest.mark.parametrize("guidance", [1.0, 2.0])
    def test_an_activation_float32_cannot_hold_is_named_with_its_layer_and_step(
            self, monkeypatch, workers, n, guidance):
        model = overflow_model()
        x = np.random.default_rng(0).normal(size=(4, 2))
        assert np.isfinite(model.forward(x, np.array([1.0]), 100)).all()
        monkeypatch.setattr(nn, "WORKERS", workers)
        with pytest.raises(NumericalDomainError, match=re.escape(
                "hidden layer 2's activations at reverse step 25: "
                "values beyond float32's range")):
            sample_batch(model, np.array([1.0]), make_cosine_schedule(100),
                         SampleConfig(seed=0, guidance_scale=guidance), n)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1, 600])
    @pytest.mark.parametrize("threshold", [True, False])
    def test_an_overflow_in_the_float64_tail_is_a_sampling_error(
            self, monkeypatch, workers, n, threshold):
        monkeypatch.setattr(nn, "WORKERS", workers)
        with pytest.raises(SamplingError, match=re.escape(
                "non-finite state at reverse step 25 (original step 100)")):
            sample_batch(tiny_model(3), np.array([1.0]), make_cosine_schedule(100),
                         SampleConfig(seed=0, guidance_scale=1e308, threshold=threshold), n)


def _reverse_step_coeffs(schedule, i: int):
    """Posterior-mean coefficients for respaced step i (1-indexed), one step
    at a time, as the sampler computed them before the schedule held them."""
    bar = schedule.alpha_bars[i - 1]
    prev_bar = 1.0 if i == 1 else schedule.alpha_bars[i - 2]
    beta = schedule.betas[i - 1]
    alpha = 1.0 - beta
    coef_x0 = math.sqrt(prev_bar) * beta / (1.0 - bar)
    coef_xt = math.sqrt(alpha) * (1.0 - prev_bar) / (1.0 - bar)
    return coef_x0, coef_xt


@pytest.mark.parametrize("make", [make_cosine_schedule, make_linear_schedule])
@pytest.mark.parametrize("steps", [None, 1, 7, 25, 100])
def test_schedule_posterior_coefficients_equal_the_step_by_step_reference(make, steps):
    sched = make(100)
    if steps is not None:
        sched = respace(sched, steps)
    want = np.array([_reverse_step_coeffs(sched, i) for i in range(1, sched.n_steps + 1)])
    np.testing.assert_array_equal(sched.coef_x0, want[:, 0])
    np.testing.assert_array_equal(sched.coef_xt, want[:, 1])


def forward_reference(model, y, schedule, config, n, a=None):
    """The guided reverse loop as it ran through model.forward, one call per
    branch per step, before the inference path: the oracle it must match."""
    cfg = config.resolved()
    steps = cfg.respace_steps
    if steps is None:
        steps = max(1, schedule.n_steps // 4)
    sub = respace(schedule, steps)
    y_null = null_id_token(model.id_dim)
    a_null = None if a is None else null_attr_token(model.attr_dim)
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((n, model.data_dim))
    scale = cfg.guidance_scale
    for i in range(sub.n_steps, 0, -1):
        t_orig = int(sub.timestep_map[i - 1])
        eps_cond = model.forward(x, y, t_orig, a=a)
        if scale == 1.0:
            eps_hat = eps_cond
        else:
            eps_uncond = model.forward(x, y_null, t_orig, a=a_null)
            eps_hat = cfg_combine(eps_uncond, eps_cond, scale)
        x0_hat = predict_x0(x, eps_hat, i, sub)
        if cfg.threshold:
            x0_hat = dynamic_threshold(x0_hat)
        coef_x0, coef_xt = _reverse_step_coeffs(sub, i)
        mean = coef_x0 * x0_hat + coef_xt * x
        if i > 1:
            if cfg.variance_mode == "posterior":
                var = sub.posterior_variances[i - 1]
            else:
                var = sub.betas[i - 1]
            x = mean + math.sqrt(var) * rng.standard_normal((n, model.data_dim))
        else:
            x = mean
    return x


class TestInferencePathMatchesForward:
    """sample_batch's cache-free path against forward_reference."""

    N = 6

    @pytest.mark.parametrize("y_rows, attr, guidance, threshold, variance, steps", [
        (False, None, 1.0, "auto", "posterior", None),
        (False, None, 2.0, "auto", "posterior", None),
        (True, None, 2.0, "auto", "posterior", None),
        (False, "shared", 2.0, "auto", "posterior", None),
        (False, "rows", 2.0, "auto", "posterior", None),
        (True, "rows", 3.0, "auto", "posterior", None),
        (False, None, 2.0, False, "posterior", None),
        (False, None, 1.0, True, "posterior", None),
        (False, None, 2.0, "auto", "beta", None),
        (True, "shared", 1.0, "auto", "beta", None),
        (False, None, 2.0, "auto", "posterior", 1),
        (True, "rows", 2.0, "auto", "posterior", 1),
    ])
    def test_matches_forward_reference(self, y_rows, attr, guidance, threshold,
                                       variance, steps):
        model = fitted_toy_model(seed=5, attr_dim=None if attr is None else 2)
        rng = np.random.default_rng(12)
        y = rng.uniform(0.5, 1.5, size=(self.N, 1)) if y_rows else np.array([0.9])
        a = {None: None, "shared": np.array([0.3, -0.4]),
             "rows": rng.normal(size=(self.N, 2))}[attr]
        cfg = SampleConfig(seed=21, guidance_scale=guidance, threshold=threshold,
                           variance_mode=variance, respace_steps=steps)
        sched = make_cosine_schedule(20)
        got = sample_batch(model, y, sched, cfg, self.N, a=a)
        want = forward_reference(model, y, sched, cfg, self.N, a=a)
        # The float32 network against the float64 forward: at most 1.5e-5
        # over these cases (unthresholded), at most 1.0e-7 thresholded.
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-4)

    @pytest.mark.parametrize("y_rows, attr, guidance", [
        (False, None, 2.0), (True, "rows", 2.0), (False, "rows", 1.0),
    ])
    def test_matches_forward_reference_across_row_blocks(self, y_rows, attr, guidance):
        # More rows than one block and not a multiple of it: a last, short block.
        n = 2 * ROW_BLOCK + 3
        model = fitted_toy_model(seed=6, attr_dim=None if attr is None else 2)
        rng = np.random.default_rng(13)
        y = rng.uniform(0.5, 1.5, size=(n, 1)) if y_rows else np.array([0.9])
        a = None if attr is None else rng.normal(size=(n, 2))
        cfg = SampleConfig(seed=22, guidance_scale=guidance, respace_steps=5)
        sched = make_cosine_schedule(20)
        got = sample_batch(model, y, sched, cfg, n, a=a)
        want = forward_reference(model, y, sched, cfg, n, a=a)
        # At most 2.3e-5 over these cases (guidance 1, unthresholded).
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-4)


_THREAD_SAMPLER = textwrap.dedent("""
    import hashlib
    import threading
    import numpy as np
    from preimage import nn
    from preimage.diffusion import SampleConfig, make_cosine_schedule, sample_batch
    from preimage.nn import ROW_BLOCK, ConditionalDenoiser

    threads, silu = set(), nn.silu

    def silu_on_some_thread(*args, **kwargs):
        threads.add(threading.get_ident())
        return silu(*args, **kwargs)

    nn.silu = silu_on_some_thread

    model = ConditionalDenoiser(2, 1, hidden_dims=(64, 64), time_embed_dim=16, seed=0)
    rng = np.random.default_rng(100)
    model.params[...] = rng.normal(scale=0.2, size=model.params.size)
    model.freeze()
    sched = make_cosine_schedule(20)
    cfg = SampleConfig(seed=7, guidance_scale=2.0)
    for n in (1, 64, 2048, 3 * ROW_BLOCK + 5):
        out = sample_batch(model, np.array([1.0]), sched, cfg, n)
        print(n, hashlib.sha256(out.tobytes()).hexdigest())
    gallery = rng.uniform(0.5, 1.5, size=(2048, 1))
    out = sample_batch(model, gallery, sched, cfg, 2048)
    print("gallery", hashlib.sha256(out.tobytes()).hexdigest())
    out = sample_batch(model, np.array([1.0]), sched, SampleConfig(seed=7, guidance_scale=1.0), 2048)
    print("g1", hashlib.sha256(out.tobytes()).hexdigest())
    attr_model = ConditionalDenoiser(2, 1, hidden_dims=(64, 64), time_embed_dim=16,
                                     attr_dim=3, seed=1)
    attr_model.params[...] = rng.normal(scale=0.2, size=attr_model.params.size)
    attr_model.freeze()
    for kind, y, a in (("shared_a", np.array([1.0]), np.array([0.5, -1.0, 0.25])),
                       ("rows_a", gallery, rng.normal(size=(2048, 3)))):
        out = sample_batch(attr_model, y, sched, cfg, 2048, a=a)
        print(kind, hashlib.sha256(out.tobytes()).hexdigest())
    print("threads", len(threads))
""")


def test_sampling_bitwise_equal_across_blas_thread_counts():
    # One BLAS thread leaves a core per block worker, so on two or more cores
    # the "1" child runs its blocks on more than one thread: the digests then
    # compare threaded blocks against the other child's.
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests, threads = [], []
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas,
                   MKL_NUM_THREADS=blas)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _THREAD_SAMPLER], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        *lines, ran = proc.stdout.splitlines()
        digests.append(lines)
        threads.append(int(ran.removeprefix("threads ")))
    assert len(digests[0]) == 8
    assert digests[0] == digests[1]
    if len(os.sched_getaffinity(0)) >= 2:
        assert threads[0] > 1


_THREAD_TRAINER = textwrap.dedent("""
    import hashlib
    import numpy as np
    from preimage.diffusion import TrainConfig, train
    from preimage.embedders import DatasetSpec, EmbedderInfo, generate_dataset, make_embedder

    spec = DatasetSpec(distribution="annulus", input_dim=2, n_samples=2000, seed=0)
    ds = generate_dataset(spec, make_embedder(EmbedderInfo("radius", 2, 1)))
    for batch in (64, 256):
        cfg = TrainConfig(seed=4, timesteps=100, batch_size=batch, learning_rate=1e-3,
                          ema_rate=0.999, total_batches=200)
        result = train(ds.x, ds.y, cfg, hidden_dims=(128, 128, 128), time_embed_dim=64)
        digest = hashlib.sha256(result.model.params.tobytes())
        digest.update(result.ema.shadow.tobytes())
        digest.update(np.array(result.loss_history).tobytes())
        print(batch, digest.hexdigest())
""")


def test_training_bitwise_equal_across_blas_thread_counts():
    # The ring configuration at batch 64 and 256; the larger batch makes a
    # threaded BLAS split the float32 matmuls. "" leaves the thread count
    # unset, so BLAS takes every core.
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for blas in ("1", "2", ""):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")}
        if blas:
            env.update(OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas, MKL_NUM_THREADS=blas)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _THREAD_TRAINER], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        digests.append(proc.stdout.splitlines())
    assert [line.split()[0] for line in digests[0]] == ["64", "256"]
    assert digests[0] == digests[1] == digests[2]


_TINY = dict(hidden_dims=(16, 16), time_embed_dim=8)


def tiny_model(seed, attr_dim=None):
    model = ConditionalDenoiser(2, 1, attr_dim=attr_dim, seed=seed, **_TINY)
    model.params[...] = np.random.default_rng(seed + 200).normal(scale=0.3, size=model.params.size)
    model.freeze()
    return model


class TestBlockWorkers:
    """A request's row blocks split over worker threads give the bytes of
    the serial path, whatever the machine: the worker count is forced."""

    def setup_method(self):
        self.sched = make_cosine_schedule(20)
        self.rng = np.random.default_rng(31)

    def run(self, monkeypatch, workers, model, y, cfg, n, a=None):
        """sample_batch with nn.WORKERS = workers, and the threads that ran
        the blocks."""
        monkeypatch.setattr(nn, "WORKERS", workers)
        threads, silu = set(), nn.silu

        def recording(*args, **kwargs):
            threads.add(threading.get_ident())
            return silu(*args, **kwargs)

        monkeypatch.setattr(nn, "silu", recording)
        out = sample_batch(model, y, self.sched, cfg, n, a=a)
        monkeypatch.setattr(nn, "silu", silu)
        return out, len(threads)

    @pytest.mark.parametrize("guidance", [1.0, 2.0])
    @pytest.mark.parametrize("n", [256, 257, 1000])
    @pytest.mark.parametrize("kind", ["shared", "gallery", "shared_a", "rows_a"])
    def test_two_workers_give_the_serial_bytes(self, monkeypatch, kind, n, guidance):
        model = tiny_model(3, attr_dim=None if kind in ("shared", "gallery") else 2)
        y = (np.array([0.9]) if kind in ("shared", "shared_a")
             else self.rng.uniform(0.5, 1.5, size=(n, 1)))
        a = {"shared_a": np.array([0.4, -0.6]),
             "rows_a": self.rng.normal(size=(n, 2))}.get(kind)
        cfg = SampleConfig(seed=12, guidance_scale=guidance)
        serial, one = self.run(monkeypatch, 1, model, y, cfg, n, a)
        threaded, two = self.run(monkeypatch, 2, model, y, cfg, n, a)
        assert one == 1 and two == (1 if n <= ROW_BLOCK else 2)
        assert threaded.tobytes() == serial.tobytes()

    def test_more_workers_than_cores_under_frequent_switches(self, monkeypatch):
        # Four workers, so each request opens a pool of three threads,
        # switching threads every microsecond: every block still lands bit
        # for bit. A pool thread may take two workers' blocks, so only "more
        # than one" holds.
        model, cfg = tiny_model(7, attr_dim=2), SampleConfig(seed=8, guidance_scale=3.0)
        y, a = self.rng.uniform(0.5, 1.5, size=(1000, 1)), self.rng.normal(size=(1000, 2))
        serial, _ = self.run(monkeypatch, 1, model, y, cfg, 1000, a)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                threaded, threads = self.run(monkeypatch, 4, model, y, cfg, 1000, a)
                assert threads > 1 and threaded.tobytes() == serial.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("outcome", ["returns", "raises"])
    def test_no_block_thread_outlives_its_request(self, monkeypatch, outcome):
        def block_threads():
            return [t for t in threading.enumerate() if t.name.startswith("preimage-block")]

        assert block_threads() == []
        model, cfg, y = tiny_model(6), SampleConfig(seed=4), np.array([1.2])
        if outcome == "raises":
            caller, silu = threading.get_ident(), nn.silu

            def failing(*args, **kwargs):
                if threading.get_ident() != caller:
                    raise RuntimeError("block failed on a worker")
                return silu(*args, **kwargs)

            monkeypatch.setattr(nn, "silu", failing)
            monkeypatch.setattr(nn, "WORKERS", 3)
            with pytest.raises(RuntimeError, match="worker"):
                sample_batch(model, y, self.sched, cfg, 900)
        else:
            assert self.run(monkeypatch, 3, model, y, cfg, 900)[1] == 3
        assert block_threads() == []

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_an_error_in_a_block_reaches_the_caller(self, monkeypatch, where):
        model, cfg, y = tiny_model(4), SampleConfig(seed=5), np.array([1.1])
        serial, _ = self.run(monkeypatch, 1, model, y, cfg, 600)
        monkeypatch.setattr(nn, "WORKERS", 2)
        caller, silu = threading.get_ident(), nn.silu

        def failing(*args, **kwargs):
            if (threading.get_ident() == caller) == (where == "caller"):
                raise RuntimeError(f"block failed on the {where}")
            return silu(*args, **kwargs)

        monkeypatch.setattr(nn, "silu", failing)
        with pytest.raises(RuntimeError, match=where):
            sample_batch(model, y, self.sched, cfg, 600)
        monkeypatch.setattr(nn, "silu", silu)
        again, threads = self.run(monkeypatch, 2, model, y, cfg, 600)
        assert threads == 2 and again.tobytes() == serial.tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_threaded_requests(self, monkeypatch):
        # The child has none of the parent's pool threads: a pool kept across
        # the fork takes its work and never runs it, and the child hangs.
        model, cfg, y = tiny_model(5), SampleConfig(seed=6), np.array([0.8])
        want, threads = self.run(monkeypatch, 2, model, y, cfg, 1024)
        assert threads == 2
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(20)
                got = self.run(monkeypatch, 2, model, y, cfg, 1024)
                code = 0 if got[0].tobytes() == want.tobytes() and got[1] == 2 else 3
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status


class TestTrainDriver:
    def test_loss_decreases_on_toy_problem(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(256, 2))
        y = np.linalg.norm(x, axis=1, keepdims=True)
        cfg = TrainConfig(seed=1, timesteps=20, total_batches=300,
                          learning_rate=3e-3, batch_size=32)
        result = train(x, y, cfg, hidden_dims=(32, 32), time_embed_dim=16)
        early = np.mean(result.loss_history[:30])
        late = np.mean(result.loss_history[-30:])
        assert late < early
        assert result.model.fitted

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(64, 2))
        y = x[:, :1].copy()
        cfg = TrainConfig(seed=3, timesteps=10, total_batches=20, batch_size=8)
        r1 = train(x, y, cfg, hidden_dims=(8,), time_embed_dim=8)
        r2 = train(x, y, cfg, hidden_dims=(8,), time_embed_dim=8)
        np.testing.assert_array_equal(r1.model.params_flat(), r2.model.params_flat())
        np.testing.assert_array_equal(r1.ema.flat(), r2.ema.flat())

    def test_ema_model_differs_from_live_after_training(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(64, 2))
        y = x[:, :1].copy()
        cfg = TrainConfig(seed=5, timesteps=10, total_batches=50, batch_size=8,
                          learning_rate=1e-2, ema_rate=0.99)
        result = train(x, y, cfg, hidden_dims=(8,), time_embed_dim=8)
        assert not np.array_equal(result.ema_model().params_flat(),
                                  result.model.params_flat())

    @pytest.mark.parametrize("field", ["x0s", "ys", "attrs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_rejected_up_front(self, field, bad):
        rng = np.random.default_rng(6)
        data = {"x0s": rng.normal(size=(32, 2)), "ys": rng.normal(size=(32, 1)),
                "attrs": rng.normal(size=(32, 1))}
        data[field][7, 0] = bad
        cfg = TrainConfig(seed=0, timesteps=10, total_batches=5, batch_size=8)
        with pytest.raises(NumericalDomainError, match=field):
            train(data["x0s"], data["ys"], cfg, attrs=data["attrs"],
                  hidden_dims=(8,), time_embed_dim=8)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_loss_names_the_batch(self):
        # A learning rate of 1e200 does not fit Adam's float32 update, so the
        # first batch's update overflows: its loss was finite, its trace entry
        # is not.
        rng = np.random.default_rng(7)
        x = rng.normal(size=(64, 2))
        y = x[:, :1].copy()
        cfg = TrainConfig(seed=1, timesteps=10, total_batches=20, batch_size=8,
                          learning_rate=1e200)
        with pytest.raises(DivergenceError, match="batch 1/20") as exc:
            train(x, y, cfg, hidden_dims=(8, 8), time_embed_dim=8)
        trace = exc.value.loss_trace
        assert len(trace) == 1 and not math.isfinite(trace[0])

    @pytest.mark.filterwarnings("error")
    def test_an_update_that_fits_float32_diverges_in_the_next_forward(self, monkeypatch):
        # A learning rate of 1e30 throws the weights to ~1e30, which float32
        # holds, so the second batch's forward pass overflows instead.
        steps = []

        class Recording(Adam):
            def step(self, params, grads):
                super().step(params, grads)
                steps.append(float(np.abs(params).max()))

        monkeypatch.setattr(diffusion, "Adam", Recording)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(64, 2))
        y = x[:, :1].copy()
        cfg = TrainConfig(seed=1, timesteps=10, total_batches=20, batch_size=8,
                          learning_rate=1e30)
        with pytest.raises(DivergenceError, match="batch 2/20") as exc:
            train(x, y, cfg, hidden_dims=(8, 8), time_embed_dim=8)
        trace = exc.value.loss_trace
        assert len(trace) == 2 and math.isfinite(trace[0]) and not math.isfinite(trace[1])
        assert len(steps) == 1 and 1e29 < steps[0] < np.finfo(np.float32).max

    def test_float32_network_and_adam_over_float64_master_params(self, monkeypatch):
        # train steps a float32 model; after every step, before the EMA reads
        # the master params, the float32 params are those params cast.
        nets, opts, checked = [], [], []

        class RecordingAdam(Adam):
            def __init__(self, grads, lr):
                super().__init__(grads, lr)
                opts.append(self)

        class CheckingEma(nn.EmaParams):
            def update(self, params):
                (net,) = set(nets)
                assert params.dtype == np.float64 and net.params.dtype == np.float32
                assert net.params.tobytes() == params.astype(np.float32).tobytes()
                checked.append(params.copy())
                super().update(params)

        def recording_loss(model, *args, **kwargs):
            nets.append(model)
            return training_loss(model, *args, **kwargs)

        monkeypatch.setattr(diffusion, "Adam", RecordingAdam)
        monkeypatch.setattr(diffusion, "EmaParams", CheckingEma)
        monkeypatch.setattr(diffusion, "training_loss", recording_loss)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(64, 2))
        cfg = TrainConfig(seed=2, timesteps=10, total_batches=12, batch_size=8,
                          learning_rate=1e-2, ema_rate=0.9)
        result = train(x, x[:, :1].copy(), cfg, hidden_dims=(8, 8), time_embed_dim=8)
        assert len(nets) == len(checked) == 12 and len(opts) == 1
        assert nets[0] is not result.model and nets[0].topology() == result.model.topology()
        (opt,) = opts
        assert opt.m.dtype == opt.v.dtype == np.float32 and opt.step_count == 12
        assert result.model.params.dtype == result.ema.shadow.dtype == np.float64
        assert result.ema_model().params.dtype == np.float64
        # The master params moved in float64, below float32's resolution too.
        assert result.model.params.tobytes() == checked[-1].tobytes()
        assert not np.array_equal(result.model.params,
                                  result.model.params.astype(np.float32))
        assert all(isinstance(v, float) for v in result.loss_history)

    @pytest.mark.parametrize("batch_size", [64, 256])
    @pytest.mark.parametrize("with_attrs", [False, True])
    def test_the_timestep_table_keeps_the_direct_paths_bytes(self, monkeypatch, batch_size,
                                                             with_attrs):
        # forward reads the batch's embeddings from train's timestep table;
        # with no table it computes them, and the run must not move a bit.
        rng = np.random.default_rng(10)
        x = rng.normal(size=(512, 2))
        attrs = rng.normal(size=(512, 2)) if with_attrs else None
        cfg = TrainConfig(seed=4, timesteps=30, total_batches=25, batch_size=batch_size,
                          learning_rate=1e-2, ema_rate=0.9)
        calls, embed = [], nn.sinusoidal_embed

        def counted(*args, **kwargs):
            calls.append(args)
            return embed(*args, **kwargs)

        def run():
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(nn, "sinusoidal_embed", counted)
                result = train(x, x[:, :1].copy(), cfg, attrs=attrs, hidden_dims=(16, 16),
                               time_embed_dim=8)
            return len(calls), [np.asarray(v).tobytes() for v in
                                (result.loss_history, result.model.params, result.ema.shadow)]

        tabled = run()
        monkeypatch.setattr(ConditionalDenoiser, "tabulate_timesteps", lambda self, n: None)
        direct = run()
        assert (tabled[0], direct[0]) == (1, cfg.total_batches)
        assert tabled[1] == direct[1]

    def test_negative_log_every_rejected_before_training(self, capsys):
        x = np.random.default_rng(8).normal(size=(32, 2))
        cfg = TrainConfig(seed=0, timesteps=10, total_batches=5, batch_size=8)
        with pytest.raises(ConfigurationError, match="log_every"):
            train(x, x[:, :1], cfg, hidden_dims=(8,), time_embed_dim=8, log_every=-1)
        assert capsys.readouterr().out == ""

    def test_log_every_prints_the_mean_of_each_window(self, capsys):
        x = np.random.default_rng(8).normal(size=(32, 2))
        cfg = TrainConfig(seed=0, timesteps=10, total_batches=5, batch_size=8)
        result = train(x, x[:, :1], cfg, hidden_dims=(8,), time_embed_dim=8, log_every=2)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines] == ["2/5", "4/5"]
        assert float(lines[1].split()[-1]) == pytest.approx(
            np.mean(result.loss_history[2:4]), abs=1e-5)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(seed=0, cond_dropout=2.0).validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(seed=0, schedule="quadratic").validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(seed=0, timesteps=0).validate()

    @pytest.mark.parametrize("rate", [0.0, -1e-3, math.nan, math.inf])
    def test_learning_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ConfigurationError, match="learning_rate"):
            TrainConfig(seed=0, learning_rate=rate).validate()

    @pytest.mark.parametrize("seed", [-1, 1.5, 2**64, "3", True, None])
    def test_seed_must_fit_the_checkpoint_u64(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            TrainConfig(seed=seed).validate()
        TrainConfig(seed=2**64 - 1).validate()
        TrainConfig(seed=np.uint64(2**64 - 1)).validate()


_RING_TRAINING_FAULTS = textwrap.dedent("""
    import resource
    from preimage.diffusion import TrainConfig, train
    from preimage.embedders import DatasetSpec, EmbedderInfo, generate_dataset, make_embedder

    spec = DatasetSpec(distribution="annulus", input_dim=2, n_samples=2000, seed=0)
    ds = generate_dataset(spec, make_embedder(EmbedderInfo("radius", 2, 1)))
    cfg = TrainConfig(seed=9, timesteps=100, batch_size=64, learning_rate=1e-3,
                      ema_rate=0.999, total_batches=400)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(ds.x, ds.y, cfg, hidden_dims=(128, 128, 128), time_embed_dim=64)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour")
def test_ring_training_does_not_refault_its_heap_every_batch():
    # Per-batch (64, 128) temporaries of about 1 MiB would pass glibc's heap
    # trim threshold, so that every batch faulted the trimmed pages back in:
    # about 114 minor faults a batch. Reused buffers leave a few in total.
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _RING_TRAINING_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert int(proc.stdout) / 400 < 20
