"""Unit tests for the manually differentiated network core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preimage.diffusion import TrainResult
from preimage.errors import ConfigurationError, ShapeError, StateError
from preimage.nn import (
    Adam,
    ConditionalDenoiser,
    EmaParams,
    LinearLayer,
    param_count,
    sigmoid,
    silu,
    silu_grad,
    sinusoidal_embed,
)
from preimage.persistence import Checkpoint


def finite_difference_grads(model, x, y, t, a, upstream, h=1e-6):
    """Independent oracle: central differences through the full forward pass.

    Returns (analytic, numeric, max_rel_err) where the relative error of each
    entry is guarded by a 1e-3 magnitude floor so that float64 evaluation
    noise on near-zero gradients does not register as disagreement.
    """
    model.zero_grad()
    model.forward(x, y, t, a=a)
    model.backward(upstream)
    analytic = {name: g.copy() for name, g in model.gradients()}

    def objective():
        return float(np.sum(model.forward(x, y, t, a=a) * upstream))

    max_rel = 0.0
    for name, param in model.parameters():
        ana = analytic[name]
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + h
            f_plus = objective()
            param[idx] = orig - h
            f_minus = objective()
            param[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(ana[idx]), abs(numeric), 1e-3)
            max_rel = max(max_rel, abs(ana[idx] - numeric) / denom)
    return analytic, max_rel


def small_model(seed=0, attr_dim=2):
    return ConditionalDenoiser(
        data_dim=3, id_dim=2, hidden_dims=(6, 5), time_embed_dim=8,
        attr_dim=attr_dim, seed=seed,
    )


def randomize_params(model, seed):
    """Overwrite all parameters, including the zero-initialized output layer."""
    rng = np.random.default_rng(seed)
    for _, p in model.parameters():
        p[...] = rng.normal(scale=0.5, size=p.shape)


class TestSinusoidalEmbed:
    def test_t_zero_is_zeros_then_ones(self):
        np.testing.assert_array_equal(sinusoidal_embed(0, 4), [0.0, 0.0, 1.0, 1.0])

    def test_entries_bounded_by_one(self):
        emb = sinusoidal_embed(np.arange(0, 5000, 7), 64)
        assert np.all(np.abs(emb) <= 1.0)

    def test_distinct_timesteps_distinct_embeddings(self):
        assert not np.array_equal(sinusoidal_embed(0, 64), sinusoidal_embed(1, 64))

    def test_batch_matches_scalar(self):
        batch = sinusoidal_embed(np.array([3.0, 11.0]), 10)
        np.testing.assert_array_equal(batch[0], sinusoidal_embed(3.0, 10))
        np.testing.assert_array_equal(batch[1], sinusoidal_embed(11.0, 10))

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            sinusoidal_embed(0, 7)

    def test_periods_grow(self):
        # Frequencies decay geometrically, so later sine columns oscillate slower.
        emb_small_t = sinusoidal_embed(1.0, 16)
        sines = emb_small_t[:8]
        assert sines[0] == pytest.approx(np.sin(1.0))
        assert np.all(np.abs(np.diff(sines)) > 0)


class TestSilu:
    def test_zero(self):
        assert silu(0.0) == 0.0

    def test_large_positive_is_identity_like(self):
        assert silu(50.0) == pytest.approx(50.0)

    def test_large_negative_vanishes(self):
        assert abs(silu(-50.0)) < 1e-18

    def test_grad_at_zero(self):
        assert silu_grad(0.0) == pytest.approx(0.5)

    @given(st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_grad_matches_finite_difference(self, x):
        h = 1e-6
        numeric = (silu(x + h) - silu(x - h)) / (2 * h)
        assert silu_grad(x) == pytest.approx(numeric, abs=1e-6)

    def test_sigmoid_stable_at_extremes(self):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == 0.0

    def test_sigmoid_matches_logistic_reference(self):
        # The tanh form against the branchwise exp form of 1 / (1 + e^-x).
        x = np.linspace(-40.0, 40.0, 4001)
        z = np.exp(-np.abs(x))
        reference = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        np.testing.assert_allclose(sigmoid(x), reference, rtol=0, atol=4e-16)

    def test_sigmoid_leaves_input_untouched(self):
        x = np.array([-1.0, 0.0, 2.0])
        silu(x)
        silu_grad(x)
        np.testing.assert_array_equal(x, [-1.0, 0.0, 2.0])


class TestLinearLayer:
    def test_forward_affine(self):
        rng = np.random.default_rng(0)
        layer = LinearLayer(3, 2, rng)
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(layer.forward(x), x @ layer.weight.T + layer.bias)

    def test_zero_init(self):
        layer = LinearLayer(3, 2, zero_init=True)
        assert not layer.weight.any() and not layer.bias.any()

    def test_grad_shapes_mirror_params(self):
        layer = LinearLayer(5, 7, np.random.default_rng(1))
        assert layer.weight_grad.shape == layer.weight.shape
        assert layer.bias_grad.shape == layer.bias.shape

    def test_backward_before_forward_rejected(self):
        layer = LinearLayer(2, 2, np.random.default_rng(0))
        with pytest.raises(StateError):
            layer.backward(np.zeros((1, 2)))

    def test_backward_accumulates(self):
        rng = np.random.default_rng(2)
        layer = LinearLayer(3, 2, rng)
        x = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 2))
        layer.forward(x)
        layer.backward(g)
        first = layer.weight_grad.copy()
        layer.forward(x)
        layer.backward(g)
        np.testing.assert_allclose(layer.weight_grad, 2 * first)

    def test_bad_input_shape_rejected(self):
        layer = LinearLayer(3, 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((4, 5)))


class TestDenoiserForward:
    def test_untrained_model_predicts_zero_noise(self):
        model = small_model()
        out = model.forward(np.ones(3), np.ones(2), 5, a=np.ones(2))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_deterministic(self):
        model = small_model(seed=3)
        randomize_params(model, 1)
        x, y = np.ones(3), np.array([0.5, -0.5])
        np.testing.assert_array_equal(
            model.forward(x, y, 7), model.forward(x, y, 7)
        )

    def test_same_seed_same_init(self):
        a, b = small_model(seed=9), small_model(seed=9)
        np.testing.assert_array_equal(a.params_flat(), b.params_flat())

    def test_batch_rows_independent(self):
        model = small_model(seed=4)
        randomize_params(model, 4)
        xs = np.random.default_rng(0).normal(size=(5, 3))
        y = np.array([1.0, 2.0])
        batch = model.forward(xs, y, 3)
        for i in range(5):
            np.testing.assert_allclose(batch[i], model.forward(xs[i], y, 3), rtol=1e-12)

    def test_zeroed_id_projection_ignores_y(self):
        model = small_model(seed=5)
        randomize_params(model, 5)
        model.id_proj.weight[...] = 0.0
        model.id_proj.bias[...] = 0.0
        x = np.ones(3)
        out_a = model.forward(x, np.array([1.0, 2.0]), 4)
        out_b = model.forward(x, np.array([-3.0, 0.5]), 4)
        np.testing.assert_array_equal(out_a, out_b)

    def test_attr_refused_without_attr_proj(self):
        model = ConditionalDenoiser(3, 2, (4,), 8, attr_dim=None, seed=0)
        with pytest.raises(ConfigurationError):
            model.forward(np.ones(3), np.ones(2), 1, a=np.ones(2))

    def test_shape_mismatch_rejected(self):
        model = small_model()
        with pytest.raises(ShapeError):
            model.forward(np.ones(4), np.ones(2), 1)
        with pytest.raises(ShapeError):
            model.forward(np.ones(3), np.ones(5), 1)

    def test_odd_time_embed_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            ConditionalDenoiser(3, 2, (4,), time_embed_dim=7)

    def test_flat_roundtrip(self):
        model = small_model(seed=6)
        flat = model.params_flat()
        other = small_model(seed=7)
        other.set_params_flat(flat)
        np.testing.assert_array_equal(other.params_flat(), flat)


class TestDenoiserBackward:
    def test_gradcheck_with_attributes(self):
        rng = np.random.default_rng(10)
        model = small_model(seed=0)
        randomize_params(model, 11)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 2))
        a = rng.normal(size=(4, 2))
        t = np.array([1, 5, 9, 2])
        upstream = rng.normal(size=(4, 3))
        _, max_rel = finite_difference_grads(model, x, y, t, a, upstream)
        assert max_rel < 1e-5

    def test_gradcheck_without_attr_pathway(self):
        rng = np.random.default_rng(20)
        model = ConditionalDenoiser(2, 1, (5, 4), 6, attr_dim=None, seed=1)
        randomize_params(model, 21)
        x = rng.normal(size=(3, 2))
        y = rng.normal(size=(3, 1))
        t = np.array([2, 4, 8])
        upstream = rng.normal(size=(3, 2))
        _, max_rel = finite_difference_grads(model, x, y, t, None, upstream)
        assert max_rel < 1e-5

    def test_unused_attr_proj_gets_zero_grad(self):
        # attr_dim configured but a not passed: attr params are off the
        # compute path, so their gradient stays exactly zero.
        model = small_model(seed=2)
        randomize_params(model, 22)
        model.zero_grad()
        model.forward(np.ones(3), np.ones(2), 3, a=None)
        model.backward(np.ones(3))
        grads = dict(model.gradients())
        assert not grads["attr_proj.weight"].any()
        assert not grads["attr_proj.bias"].any()
        assert grads["id_proj.weight"].any()

    def test_zero_upstream_zero_grads(self):
        model = small_model(seed=3)
        randomize_params(model, 23)
        model.zero_grad()
        model.forward(np.ones(3), np.ones(2), 3, a=np.ones(2))
        model.backward(np.zeros(3))
        for _, g in model.gradients():
            assert not g.any()

    def test_backward_without_forward_rejected(self):
        model = small_model()
        with pytest.raises(StateError):
            model.backward(np.ones(3))

    def test_backward_consumes_cache(self):
        model = small_model()
        model.forward(np.ones(3), np.ones(2), 1, a=np.ones(2))
        model.backward(np.ones(3))
        with pytest.raises(StateError):
            model.backward(np.ones(3))

    def test_input_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(30)
        model = small_model(seed=4)
        randomize_params(model, 31)
        x = rng.normal(size=3)
        y = rng.normal(size=2)
        upstream = rng.normal(size=3)
        model.forward(x, y, 6)
        dx = model.backward(upstream)
        h = 1e-6
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            numeric = (
                np.sum(model.forward(xp, y, 6) * upstream)
                - np.sum(model.forward(xm, y, 6) * upstream)
            ) / (2 * h)
            assert dx[j] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


class TestSharedCondition:
    """A single y/a vector with a scalar t is computed on one row and
    broadcast; it must agree with the same condition tiled to every row."""

    def setup_method(self):
        rng = np.random.default_rng(40)
        self.model = small_model(seed=6)
        randomize_params(self.model, 41)
        self.x = rng.normal(size=(7, 3))
        self.y = rng.normal(size=2)
        self.a = rng.normal(size=2)
        self.upstream = rng.normal(size=(7, 3))

    def tiled(self, v):
        return np.tile(v, (len(self.x), 1))

    @pytest.mark.parametrize("with_attr", [False, True])
    def test_forward_matches_tiled_rows(self, with_attr):
        a = self.a if with_attr else None
        a_rows = self.tiled(self.a) if with_attr else None
        shared = self.model.forward(self.x, self.y, 5, a=a)
        rows = self.model.forward(self.x, self.tiled(self.y), np.full(7, 5), a=a_rows)
        np.testing.assert_allclose(shared, rows, rtol=1e-12)

    @pytest.mark.parametrize("with_attr", [False, True])
    def test_gradients_match_tiled_rows(self, with_attr):
        def grads(y, t, a):
            self.model.zero_grad()
            self.model.forward(self.x, y, t, a=a)
            dx = self.model.backward(self.upstream)
            return dx, {name: g.copy() for name, g in self.model.gradients()}

        a = self.a if with_attr else None
        a_rows = self.tiled(self.a) if with_attr else None
        dx_shared, g_shared = grads(self.y, 5, a)
        dx_rows, g_rows = grads(self.tiled(self.y), np.full(7, 5), a_rows)
        np.testing.assert_allclose(dx_shared, dx_rows, rtol=1e-12)
        for name, g in g_rows.items():
            np.testing.assert_allclose(g_shared[name], g, rtol=1e-10, atol=1e-14,
                                       err_msg=name)

    def test_gradcheck_on_shared_condition(self):
        _, max_rel = finite_difference_grads(self.model, self.x, self.y, 5, self.a,
                                             self.upstream)
        assert max_rel < 1e-5

    def test_mixed_per_row_and_shared_inputs(self):
        rng = np.random.default_rng(42)
        y_rows = rng.normal(size=(7, 2))
        null_a = -np.ones(2)
        np.testing.assert_allclose(
            self.model.forward(self.x, y_rows, 5, a=null_a),
            self.model.forward(self.x, y_rows, 5, a=self.tiled(null_a)),
            rtol=1e-12,
        )
        t_rows = rng.integers(1, 10, size=7)
        np.testing.assert_allclose(
            self.model.forward(self.x, self.y, t_rows, a=self.a),
            self.model.forward(self.x, self.tiled(self.y), t_rows, a=self.tiled(self.a)),
            rtol=1e-12,
        )

    def test_shared_input_of_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            self.model.forward(self.x, np.ones(3), 5)
        with pytest.raises(ShapeError):
            self.model.forward(self.x, self.y, 5, a=np.ones(3))


class TestFlatStore:
    def test_layer_arrays_view_the_store(self):
        model = small_model(seed=1)
        for (_, p), (_, g) in zip(model.parameters(), model.gradients()):
            assert np.shares_memory(p, model.params)
            assert np.shares_memory(g, model.grads)
        np.testing.assert_array_equal(
            np.concatenate([p.ravel() for _, p in model.parameters()]), model.params)
        assert model.params.size == model.n_params() == param_count(model.topology())

    def test_writes_show_through_both_sides(self):
        model = small_model(seed=2)
        model.id_proj.bias[...] = 7.0
        assert np.count_nonzero(model.params == 7.0) == model.id_proj.bias.size
        model.params[:] = 0.0
        assert not model.input_proj.weight.any()

    def test_zero_grad_clears_every_gradient(self):
        model = small_model(seed=3)
        randomize_params(model, 3)
        rng = np.random.default_rng(3)
        model.forward(rng.normal(size=(4, 3)), rng.normal(size=(4, 2)),
                      np.array([1, 2, 3, 4]), a=rng.normal(size=(4, 2)))
        model.backward(rng.normal(size=(4, 3)))
        assert all(g.any() for _, g in model.gradients())
        model.zero_grad()
        assert not model.grads.any()
        assert not any(g.any() for _, g in model.gradients())

    def test_clone_is_independent_of_its_source(self):
        model = small_model(seed=4)
        randomize_params(model, 4)
        model.fitted = True
        other = model.clone()
        np.testing.assert_array_equal(other.params, model.params)
        assert other.fitted
        assert not np.shares_memory(other.params, model.params)
        before = model.params.copy()
        other.params += 1.0
        other.grads += 1.0
        np.testing.assert_array_equal(model.params, before)
        assert not model.grads.any()
        assert np.shares_memory(other.output.weight, other.params)

    def test_params_flat_is_a_copy(self):
        model = small_model(seed=5)
        flat = model.params_flat()
        flat += 1.0
        assert not np.array_equal(flat, model.params)

    def test_set_params_flat_rejects_wrong_length(self):
        model = small_model()
        with pytest.raises(ShapeError):
            model.set_params_flat(np.zeros(model.n_params() + 1))


class TestAdam:
    def test_single_step_matches_closed_form(self):
        # Bias-corrected first step moves by lr / (1 + eps), just under lr.
        p = np.array([0.0])
        g = np.array([1.0])
        opt = Adam(p, lr=0.1)
        opt.step(p, g)
        assert p[0] == pytest.approx(-0.1, abs=1e-8)
        assert p[0] > -0.1

    def test_zero_grad_no_movement(self):
        p = np.array([1.5, -2.0])
        opt = Adam(p, lr=0.1)
        opt.step(p, np.zeros(2))
        np.testing.assert_array_equal(p, [1.5, -2.0])

    def test_grads_zeroed_after_step(self):
        p = np.array([0.0])
        g = np.array([1.0])
        Adam(p, lr=0.1).step(p, g)
        assert g[0] == 0.0

    def test_state_has_the_vector_shape(self):
        p = np.zeros(7)
        opt = Adam(p)
        assert opt.m.shape == (7,) and opt.v.shape == (7,)
        assert not opt.m.any() and not opt.v.any()

    def test_mismatched_vectors_rejected(self):
        opt = Adam(np.zeros(3))
        with pytest.raises(ShapeError):
            opt.step(np.zeros(4), np.zeros(4))
        with pytest.raises(ShapeError):
            opt.step(np.zeros(3), np.zeros(2))

    def test_constant_grad_keeps_direction(self):
        p = np.array([0.0])
        opt = Adam(p, lr=0.01)
        prev = 0.0
        for _ in range(5):
            opt.step(p, np.array([1.0]))
            assert p[0] < prev
            prev = p[0]

    def test_bitwise_equal_to_textbook_expressions(self):
        rng = np.random.default_rng(0)
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        p = rng.normal(size=1000)
        opt = Adam(p, lr=lr, beta1=b1, beta2=b2, eps=eps)
        ref_p, m, v = p.copy(), np.zeros(1000), np.zeros(1000)
        for k in range(1, 26):
            g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=1000)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            ref_p = ref_p - lr * (m / (1.0 - b1 ** k)) / (np.sqrt(v / (1.0 - b2 ** k)) + eps)
            opt.step(p, g)
            assert not g.any()
            np.testing.assert_array_equal(opt.m, m)
            np.testing.assert_array_equal(opt.v, v)
            np.testing.assert_array_equal(p, ref_p)

    def test_bad_lr_rejected(self):
        with pytest.raises(ConfigurationError):
            Adam(np.zeros(1), lr=0.0)


class TestEma:
    def test_rate_zero_tracks_exactly(self):
        p = np.array([3.0, -1.0])
        ema = EmaParams(np.zeros(2), rate=0.0)
        ema.update(p)
        np.testing.assert_array_equal(ema.shadow, p)

    def test_rate_one_frozen(self):
        start = np.array([2.0])
        ema = EmaParams(start, rate=1.0)
        ema.update(np.array([100.0]))
        np.testing.assert_array_equal(ema.shadow, [2.0])

    def test_midpoint(self):
        ema = EmaParams(np.array([0.0]), rate=0.5)
        ema.update(np.array([2.0]))
        assert ema.shadow[0] == 1.0

    @given(st.floats(0.0, 1.0), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_closed_form(self, rate, n):
        # n updates toward a constant p from shadow s0 give
        # rate^n * s0 + (1 - rate^n) * p.
        s0, p = 4.0, -2.0
        ema = EmaParams(np.array([s0]), rate=rate)
        for _ in range(n):
            ema.update(np.array([p]))
        expected = rate**n * s0 + (1 - rate**n) * p
        assert ema.shadow[0] == pytest.approx(expected, abs=1e-10)

    def test_shadow_is_a_copy(self):
        p = np.array([1.0, 2.0])
        ema = EmaParams(p, rate=0.5)
        p += 10.0
        np.testing.assert_array_equal(ema.shadow, [1.0, 2.0])
        flat = ema.flat()
        flat += 1.0
        np.testing.assert_array_equal(ema.shadow, [1.0, 2.0])

    def test_update_bitwise_equal_to_textbook_expression(self):
        rng = np.random.default_rng(1)
        rate = 0.999
        ema = EmaParams(rng.normal(size=1000), rate=rate)
        ref = ema.shadow.copy()
        for _ in range(25):
            p = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=1000)
            ref = rate * ref + (1.0 - rate) * p
            ema.update(p)
            np.testing.assert_array_equal(ema.shadow, ref)

    def test_wrong_shape_rejected(self):
        ema = EmaParams(np.zeros(3))
        with pytest.raises(ShapeError):
            ema.update(np.zeros(4))

    def test_ema_model_carries_the_shadow(self):
        model = small_model(seed=6)
        randomize_params(model, 6)
        model.fitted = True
        ema = EmaParams(np.random.default_rng(6).normal(size=model.n_params()))
        live = model.params.copy()
        for holder in (TrainResult(model, ema, None, None),
                       Checkpoint(model, ema, None, None, None)):
            shadow = holder.ema_model()
            np.testing.assert_array_equal(shadow.params, ema.shadow)
            assert shadow.fitted and shadow.topology() == model.topology()
            assert not np.shares_memory(shadow.params, ema.shadow)
            np.testing.assert_array_equal(model.params, live)

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            EmaParams(np.zeros(1), rate=1.5)
