"""Unit tests for schedules, corruption, guidance, respacing, and sampling."""

import math
import os
import subprocess
import sys
import textwrap
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
from preimage.diffusion import _quantile_last_axis
from preimage.nn import ConditionalDenoiser


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
        self.fitted = True
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
            alphas=np.array([0.5]),
            alpha_bars=np.array([0.0]),
            posterior_variances=np.array([0.0]),
            timestep_map=np.array([1]),
        )
        with pytest.raises(NumericalDomainError):
            predict_x0(np.zeros(2), np.zeros(2), 1, bad)


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


def fitted_toy_model(seed=0, attr_dim=None):
    """A tiny randomized denoiser marked as fitted, for sampler plumbing tests."""
    model = ConditionalDenoiser(2, 1, hidden_dims=(8, 8), time_embed_dim=8,
                                attr_dim=attr_dim, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for _, p in model.parameters():
        p[...] = rng.normal(scale=0.2, size=p.shape)
    model.fitted = True
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
        model = fitted_toy_model(seed=3)
        model.id_proj.weight[...] = 0.0
        model.id_proj.bias[...] = 0.0
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

    def test_guidance_below_one_clamped_with_warning(self):
        with pytest.warns(UserWarning):
            cfg = SampleConfig(seed=1, guidance_scale=0.5).resolved()
        assert cfg.guidance_scale == 1.0

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
        class NanStub:
            fitted = True
            data_dim = 2
            id_dim = 1
            attr_dim = None

            def forward(self, x_t, y, t, a=None):
                return np.full_like(np.asarray(x_t, dtype=np.float64), np.nan)

        with pytest.raises(SamplingError, match="step"):
            sample(NanStub(), np.array([1.0]), self.sched, SampleConfig(seed=0))

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
        np.testing.assert_allclose(shared, rows, rtol=1e-9, atol=1e-12)

    def test_shared_target_and_null_tokens_reach_model_as_vectors(self):
        class Recorder:
            fitted = True
            data_dim = 2
            id_dim = 1
            attr_dim = 2

            def __init__(self):
                self.calls = []

            def forward(self, x_t, y, t, a=None):
                self.calls.append((np.array(y), np.array(a)))
                return np.zeros_like(x_t)

        stub = Recorder()
        sample_batch(stub, np.array([0.7]), self.sched,
                     SampleConfig(seed=0, guidance_scale=2.0, respace_steps=1), 4,
                     a=np.array([0.1, 0.2]))
        (y_cond, a_cond), (y_null, a_null) = stub.calls
        np.testing.assert_array_equal(y_cond, [0.7])
        np.testing.assert_array_equal(a_cond, [0.1, 0.2])
        np.testing.assert_array_equal(y_null, null_id_token(1))
        np.testing.assert_array_equal(a_null, null_attr_token(2))


_THREAD_SAMPLER = textwrap.dedent("""
    import hashlib
    import numpy as np
    from preimage.diffusion import SampleConfig, make_cosine_schedule, sample_batch
    from preimage.nn import ConditionalDenoiser

    model = ConditionalDenoiser(2, 1, hidden_dims=(64, 64), time_embed_dim=16, seed=0)
    rng = np.random.default_rng(100)
    for _, p in model.parameters():
        p[...] = rng.normal(scale=0.2, size=p.shape)
    model.fitted = True
    sched = make_cosine_schedule(20)
    cfg = SampleConfig(seed=7, guidance_scale=2.0)
    for n in (1, 64, 2048):
        out = sample_batch(model, np.array([1.0]), sched, cfg, n)
        print(n, hashlib.sha256(out.tobytes()).hexdigest())
    gallery = rng.uniform(0.5, 1.5, size=(2048, 1))
    out = sample_batch(model, gallery, sched, cfg, 2048)
    print("gallery", hashlib.sha256(out.tobytes()).hexdigest())
""")


def test_sampling_bitwise_equal_across_blas_thread_counts():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _THREAD_SAMPLER], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        digests.append(proc.stdout)
    assert digests[0].count("\n") == 4
    assert digests[0] == digests[1]


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_names_the_batch(self):
        # A learning rate of 1e200 throws the weights to ~1e200 in one step,
        # so the second batch's forward pass overflows.
        rng = np.random.default_rng(7)
        x = rng.normal(size=(64, 2))
        y = x[:, :1].copy()
        cfg = TrainConfig(seed=1, timesteps=10, total_batches=20, batch_size=8,
                          learning_rate=1e200)
        with pytest.raises(DivergenceError, match="batch 2/20") as exc:
            train(x, y, cfg, hidden_dims=(8, 8), time_embed_dim=8)
        trace = exc.value.loss_trace
        assert len(trace) == 2 and math.isfinite(trace[0]) and not math.isfinite(trace[1])

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(seed=0, cond_dropout=2.0).validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(seed=0, schedule="quadratic").validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(seed=0, timesteps=0).validate()
