"""Unit tests for the manually differentiated network core."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preimage import nn
from preimage.diffusion import TrainResult
from preimage.errors import ConfigurationError, ShapeError, StateError
from preimage.nn import (
    Adam,
    ROW_BLOCK,
    ConditionalDenoiser,
    EmaParams,
    LinearLayer,
    lane_pool,
    param_count,
    run_lanes,
    sigmoid,
    silu,
    silu_grad,
    sinusoidal_embed,
    worker_count,
)
from preimage.persistence import Checkpoint


def finite_difference_grads(model, x, y, t, a, upstream, h=1e-6):
    """Independent oracle: central differences through the full forward pass.

    Returns the largest relative error over the flat parameter vector, each
    entry's guarded by a 1e-3 magnitude floor so that float64 evaluation
    noise on near-zero gradients does not register as disagreement.
    """
    model.grads.fill(0.0)
    model.forward(x, y, t, a=a)
    model.backward(upstream)
    analytic = model.grads.copy()

    def objective():
        return float(np.sum(model.forward(x, y, t, a=a) * upstream))

    max_rel, params = 0.0, model.params
    for i, orig in enumerate(params.copy()):
        params[i] = orig + h
        f_plus = objective()
        params[i] = orig - h
        f_minus = objective()
        params[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        denom = max(abs(analytic[i]), abs(numeric), 1e-3)
        max_rel = max(max_rel, abs(analytic[i] - numeric) / denom)
    return max_rel


def small_model(seed=0, attr_dim=2):
    return ConditionalDenoiser(
        data_dim=3, id_dim=2, hidden_dims=(6, 5), time_embed_dim=8,
        attr_dim=attr_dim, seed=seed,
    )


def randomize_params(model, seed):
    """Overwrite all parameters, including the zero-initialized output layer."""
    model.params[...] = np.random.default_rng(seed).normal(scale=0.5, size=model.params.size)


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


class TestOutArguments:
    def test_embedding_into_out_is_bitwise_equal(self):
        t = np.array([1.0, 7.0, 99.0])
        out = np.empty((3, 10))
        assert sinusoidal_embed(t, 10, out=out) is out
        np.testing.assert_array_equal(out, sinusoidal_embed(t, 10))

    def test_silu_grad_into_out_is_bitwise_equal(self):
        x = np.random.default_rng(4).normal(scale=4.0, size=(16, 8))
        out = np.empty_like(x)
        assert silu_grad(x, sigmoid(x), out=out) is out
        np.testing.assert_array_equal(out, silu_grad(x))


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

    def test_grad_from_kept_sigmoid_is_bitwise_equal(self):
        x = np.random.default_rng(0).normal(scale=4.0, size=(16, 8))
        np.testing.assert_array_equal(silu_grad(x, sigmoid(x)), silu_grad(x))

    def test_out_buffer_is_bitwise_equal(self):
        x = np.random.default_rng(1).normal(scale=4.0, size=(16, 8))
        out = np.empty_like(x)
        assert silu(x, out=out) is out
        np.testing.assert_array_equal(out, silu(x))


class TestLinearLayer:
    @staticmethod
    def layer(in_dim, out_dim, seed=0):
        """A layer over a fresh (params, grads) store, params drawn at random."""
        rng = np.random.default_rng(seed)
        n = out_dim * (in_dim + 1)
        params, grads = rng.normal(size=n), np.zeros(n)
        split = out_dim * in_dim
        views = [v for store in (params, grads)
                 for v in (store[:split].reshape(out_dim, in_dim), store[split:])]
        return LinearLayer(*views), params, grads

    def test_forward_affine(self):
        layer, _, _ = self.layer(3, 2)
        x = np.random.default_rng(1).normal(size=(4, 3))
        np.testing.assert_array_equal(layer.forward(x), x @ layer.weight.T + layer.bias)

    def test_zero_init(self):
        # The output layer of a fresh model views a zero stretch of the store.
        model = small_model(seed=1)
        assert not model.output.weight.any() and not model.output.bias.any()
        assert model.params.any()

    def test_grad_shapes_mirror_params(self):
        layer, _, _ = self.layer(5, 7)
        assert (layer.out_dim, layer.in_dim) == (7, 5)
        assert layer.weight_grad.shape == layer.weight.shape == (7, 5)
        assert layer.bias_grad.shape == layer.bias.shape == (7,)

    def test_views_share_the_store(self):
        layer, params, grads = self.layer(3, 2)
        for view, store in ((layer.weight, params), (layer.bias, params),
                            (layer.weight_grad, grads), (layer.bias_grad, grads)):
            assert np.shares_memory(view, store)
        params[:] = 1.0
        assert (layer.weight == 1.0).all() and (layer.bias == 1.0).all()

    def test_backward_accumulates(self):
        layer, _, grads = self.layer(3, 2, seed=2)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 2))
        dx = layer.backward(x, g)
        np.testing.assert_array_equal(dx, g @ layer.weight)
        np.testing.assert_array_equal(layer.weight_grad, g.T @ x)
        np.testing.assert_array_equal(layer.bias_grad, g.sum(axis=0))
        first = grads.copy()
        layer.backward(x, g)
        np.testing.assert_array_equal(grads, 2 * first)

    def test_out_buffers_are_bitwise_equal(self):
        layer, _, _ = self.layer(5, 4, seed=3)
        twin, _, _ = self.layer(5, 4, seed=3)
        rng = np.random.default_rng(3)
        x, g = rng.normal(size=(6, 5)), rng.normal(size=(6, 4))
        out = np.empty((6, 4))
        assert layer.forward(x, out=out) is out
        np.testing.assert_array_equal(out, twin.forward(x))
        want = twin.backward(x, g)
        # backward may write the input gradient over its own input.
        assert layer.backward(x, g, out=x) is x
        np.testing.assert_array_equal(x, want)
        np.testing.assert_array_equal(layer.weight_grad, twin.weight_grad)

    def test_model_layers_share_one_gradient_scratch(self):
        model = ConditionalDenoiser(2, 1, (16, 24, 8), 6, attr_dim=3)
        scratches = [layer.scratch for _, layer in model._layers]
        assert max(s.size for s in scratches) == 24 * 16
        for name, layer in model._layers:
            assert layer.scratch.shape == layer.weight.shape, name
            assert np.shares_memory(layer.scratch, scratches[0]), name
        own, _, _ = self.layer(3, 2)
        assert own.scratch.shape == (2, 3)


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

    @pytest.mark.parametrize("t", [-1.0, np.nan, np.array([2.0, np.nan, 3.0]), np.inf,
                                   np.array([2.0, np.inf, 3.0])])
    def test_negative_or_nan_timesteps_rejected(self, t):
        # NaN < 0 is false and inf >= 0 holds: a NaN or infinite timestep once
        # gave NaN noise without an error.
        with pytest.raises(ConfigurationError, match="timesteps must be nonnegative and finite"):
            small_model().forward(np.ones((3, 3)), np.ones(2), t)

    def test_odd_time_embed_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            ConditionalDenoiser(3, 2, (4,), time_embed_dim=7)

    @pytest.mark.parametrize("hidden_dims", [(), (0,), (4, 0), (-3,), (4, -1, 4)])
    def test_nonpositive_hidden_dims_rejected(self, hidden_dims):
        with pytest.raises(ConfigurationError):
            ConditionalDenoiser(3, 2, hidden_dims, 8)

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
        max_rel = finite_difference_grads(model, x, y, t, a, upstream)
        assert max_rel < 1e-5

    def test_gradcheck_without_attr_pathway(self):
        rng = np.random.default_rng(20)
        model = ConditionalDenoiser(2, 1, (5, 4), 6, attr_dim=None, seed=1)
        randomize_params(model, 21)
        x = rng.normal(size=(3, 2))
        y = rng.normal(size=(3, 1))
        t = np.array([2, 4, 8])
        upstream = rng.normal(size=(3, 2))
        max_rel = finite_difference_grads(model, x, y, t, None, upstream)
        assert max_rel < 1e-5

    def test_unused_attr_proj_gets_zero_grad(self):
        # attr_dim configured but a not passed: attr params are off the
        # compute path, so their gradient stays exactly zero.
        model = small_model(seed=2)
        randomize_params(model, 22)
        model.forward(np.ones(3), np.ones(2), 3, a=None)
        model.backward(np.ones(3))
        grads = dict(model.gradients())
        assert not grads["attr_proj.weight"].any()
        assert not grads["attr_proj.bias"].any()
        assert grads["id_proj.weight"].any()

    def test_zero_upstream_zero_grads(self):
        model = small_model(seed=3)
        randomize_params(model, 23)
        model.forward(np.ones(3), np.ones(2), 3, a=np.ones(2))
        model.backward(np.zeros(3))
        for _, g in model.gradients():
            assert not g.any()

    def test_backward_without_forward_rejected(self):
        model = small_model()
        with pytest.raises(StateError):
            model.backward(np.ones(3))

    @pytest.mark.parametrize("x, upstream", [
        (np.ones(3), np.ones(4)), (np.ones(3), np.ones((2, 3))),
        (np.ones((5, 3)), np.ones((4, 3))), (np.ones((5, 3)), np.ones((5, 2))),
        (np.ones((5, 3)), np.ones(15)),
    ])
    def test_misshaped_upstream_rejected(self, x, upstream):
        model = small_model()
        model.forward(x, np.ones(2), 1, a=np.ones(2))
        with pytest.raises(ShapeError):
            model.backward(upstream)

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


class CachingLayer:
    """The linear layer as it was before it became four store views, kept as
    the reference: forward checks and caches its input, backward consumes
    it. It runs over another layer's views of a flat store."""

    def __init__(self, layer):
        self.weight, self.bias = layer.weight, layer.bias
        self.weight_grad, self.bias_grad = layer.weight_grad, layer.bias_grad
        self.in_dim, self.out_dim = layer.in_dim, layer.out_dim
        self._input = None

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        assert x.ndim == 2 and x.shape[1] == self.in_dim
        self._input = x
        out = x @ self.weight.T
        out += self.bias
        return out

    def backward(self, grad_out):
        assert self._input is not None
        assert grad_out.shape == (self._input.shape[0], self.out_dim)
        self.weight_grad += grad_out.T @ self._input
        self.bias_grad += grad_out.sum(axis=0)
        grad_in = grad_out @ self.weight
        self._input = None
        return grad_in


class CachingReference:
    """ConditionalDenoiser.forward and backward as they were over caching
    layers, run on a model's own parameter and gradient views."""

    def __init__(self, model):
        self.model = model
        by_name = {name: CachingLayer(layer) for name, layer in model._layers}
        n_hidden = len(model.hidden_dims)
        self.input_proj = by_name["input_proj"]
        self.hidden = [by_name[f"hidden_{i}"] for i in range(n_hidden - 1)]
        self.id_proj = by_name["id_proj"]
        self.attr_proj = by_name.get("attr_proj")
        self.inject = [by_name[f"inject_{i}"] for i in range(n_hidden)]
        self.output = by_name["output"]

    def forward(self, x_t, y, t, a=None):
        x_t = np.asarray(x_t, dtype=np.float64)
        single = x_t.ndim == 1
        if single:
            x_t = x_t[None, :]
        n = x_t.shape[0]

        def tiled(v):
            v = np.asarray(v, dtype=np.float64)
            return np.tile(v, (n, 1)) if v.ndim == 1 else v

        t_arr = np.asarray(t, dtype=np.float64)
        if t_arr.ndim == 0:
            t_arr = np.full(n, float(t_arr))
        cond = sinusoidal_embed(t_arr, self.model.time_embed_dim)
        cond += self.id_proj.forward(tiled(y))
        if a is not None:
            cond += self.attr_proj.forward(tiled(a))
        terms = [layer.forward(cond) for layer in self.inject]
        zs = []
        z = self.input_proj.forward(x_t)
        for i, term in enumerate(terms):
            if i:
                z = self.hidden[i - 1].forward(h)
            z += term
            s = sigmoid(z)
            zs.append((z, s))
            h = z * s
        eps = self.output.forward(h)
        self.cache = (zs, a is not None, single)
        return eps[0] if single else eps

    def backward(self, grad_out):
        zs, a_given, single = self.cache
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if single and grad_out.ndim == 1:
            grad_out = grad_out[None, :]
        dh = self.output.backward(grad_out)
        dcond = None
        for i in reversed(range(len(zs))):
            dz = silu_grad(*zs[i])
            dz *= dh
            dc = self.inject[i].backward(dz)
            dcond = dc if dcond is None else dcond + dc
            main = self.input_proj if i == 0 else self.hidden[i - 1]
            dh = main.backward(dz)
        self.id_proj.backward(dcond)
        if a_given:
            self.attr_proj.backward(dcond)
        return dh[0] if single else dh


class TestMatchesCachingReference:
    """forward and backward are bitwise equal, signed zeros included, to the
    caching layers they replace, over two passes whose gradients add up."""

    @staticmethod
    def assert_bitwise(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("hidden_dims", [(6, 5), (5, 4, 3)])
    @pytest.mark.parametrize("x_rows", [None, 1, 7])
    @pytest.mark.parametrize("y_kind", ["shared", "rows"])
    @pytest.mark.parametrize("a_kind", [None, "shared", "rows"])
    def test_two_passes_bitwise_equal(self, hidden_dims, x_rows, y_kind, a_kind):
        model = ConditionalDenoiser(3, 2, hidden_dims, 8, attr_dim=2, seed=8)
        randomize_params(model, 8)
        twin = model.clone()
        reference = CachingReference(twin)
        rng = np.random.default_rng(9)
        n = 1 if x_rows is None else x_rows
        for _ in range(2):
            shape = (3,) if x_rows is None else (n, 3)
            x, upstream = rng.normal(size=shape), rng.normal(size=shape)
            y = rng.normal(size=2 if y_kind == "shared" else (n, 2))
            a = {None: None, "shared": rng.normal(size=2), "rows": rng.normal(size=(n, 2))}[a_kind]
            t = rng.integers(1, 50) if x_rows is None else rng.integers(1, 50, size=n)
            self.assert_bitwise(model.forward(x, y, t, a=a), reference.forward(x, y, t, a=a))
            self.assert_bitwise(model.backward(upstream), reference.backward(upstream))
        self.assert_bitwise(model.grads, twin.grads)
        assert twin.grads.any()


class TestTrainingWorkspace:
    """forward and backward reuse one set of buffers per row count."""

    def test_alternating_row_counts_match_the_reference(self):
        model = ConditionalDenoiser(3, 2, (6, 5), 8, attr_dim=2, seed=8)
        randomize_params(model, 8)
        twin = model.clone()
        reference = CachingReference(twin)
        rng = np.random.default_rng(10)
        for n in (5, 7, 5, 5, 1):
            x, upstream = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
            y, a, t = rng.normal(size=(n, 2)), rng.normal(size=2), rng.integers(1, 50, size=n)
            TestMatchesCachingReference.assert_bitwise(model.forward(x, y, t, a=a),
                                                       reference.forward(x, y, t, a=a))
            TestMatchesCachingReference.assert_bitwise(model.backward(upstream),
                                                       reference.backward(upstream))
        TestMatchesCachingReference.assert_bitwise(model.grads, twin.grads)

    def test_results_and_inputs_are_not_workspace(self):
        model = small_model(seed=5)
        randomize_params(model, 5)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 3))
        x_copy = x.copy()
        eps = model.forward(x, np.ones(2), 3)
        eps_copy = eps.copy()
        dx = model.backward(np.ones((4, 3)))
        model.forward(rng.normal(size=(4, 3)), np.zeros(2), 9)
        model.backward(np.ones((4, 3)))
        np.testing.assert_array_equal(eps, eps_copy)
        np.testing.assert_array_equal(x, x_copy)
        assert not np.shares_memory(dx, model._train_work[0])

    def test_a_ring_batch_allocates_no_weight_sized_array(self):
        # The ring model's per-batch arrays took about 950 KB at their peak,
        # which is what made glibc trim and refault the heap every batch.
        model = ConditionalDenoiser(2, 1, (128, 128, 128), 64, seed=0)
        rng = np.random.default_rng(12)
        x, y, up = rng.normal(size=(64, 2)), rng.normal(size=(64, 1)), rng.normal(size=(64, 2))
        t = rng.integers(1, 100, size=64)
        model.forward(x, y, t)
        model.backward(up)
        tracemalloc.start()
        try:
            model.forward(x, y, t)
            model.backward(up)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 128 * 8


class TestSharedCondition:
    """forward tiles a single y/a vector to every row; with a scalar t it must
    agree with the same condition and timestep given per row."""

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
            self.model.grads.fill(0.0)
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
        max_rel = finite_difference_grads(self.model, self.x, self.y, 5, self.a,
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


# Row counts on both sides of the inference path's block boundaries.
BLOCK_ROWS = (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3)


class TestInferencePath:
    """step_tables, condition_terms and denoise_step against forward, which
    tiles the condition to every row and caches for backward."""

    @pytest.fixture(autouse=True)
    def one_worker(self, monkeypatch):
        # These calls pass no pool, so every block runs on the calling thread
        # whatever the BLAS setting; tests/test_diffusion.py covers the pool.
        monkeypatch.setattr(nn, "WORKERS", 1)

    def setup_method(self):
        rng = np.random.default_rng(50)
        self.model = small_model(seed=7)
        randomize_params(self.model, 51)
        n = max(BLOCK_ROWS)
        self.x_all = rng.normal(size=(n, 3))
        self.x = self.x_all[:5]
        self.t = np.array([3, 9, 14])
        self.y_all = rng.normal(size=(n, 2))
        self.a_all = rng.normal(size=(n, 2))
        self.y_rows = self.y_all[:5]
        self.a_rows = self.a_all[:5]
        self.y = rng.normal(size=2)
        self.a = rng.normal(size=2)

    def null(self, a):
        """The null tokens of a request whose attributes are a."""
        return np.zeros(2), None if a is None else -np.ones(2)

    def step(self, x, y, a, branches, k, null=None):
        model = self.model
        tables, nulls, weights = model.step_tables(self.t, self.null(a) if null is None else null)
        work = model.workspace(len(x), branches)
        terms = model.condition_terms(y, a, tables, None if branches == 1 else nulls)
        return model.denoise_step(x, weights, terms, k, work, None).copy()

    @pytest.mark.parametrize("y_kind, a_kind", [
        ("shared", None), ("shared", "shared"), ("rows", None),
        ("shared", "rows"), ("rows", "rows"),
    ])
    def test_every_step_matches_forward(self, y_kind, a_kind):
        # Every row count around the block size, each with the request
        # branch alone and stacked over the null branch.
        model = self.model
        for n in BLOCK_ROWS:
            x = self.x_all[:n]
            y = self.y if y_kind == "shared" else self.y_all[:n]
            a = {None: None, "shared": self.a, "rows": self.a_all[:n]}[a_kind]
            tables, nulls, weights = model.step_tables(self.t, self.null(a))
            for branches in (1, 2):
                terms = model.condition_terms(y, a, tables, None if branches == 1 else nulls)
                work = model.workspace(n, branches)
                for k, t in enumerate(self.t):
                    got = model.denoise_step(x, weights, terms, k, work, None)
                    assert got.shape == (branches, n, 3)
                    for (yb, ab), eps in zip([(y, a), self.null(a)], got):
                        want = model.forward(x, yb, int(t), a=ab)
                        # The float32 network against the float64 forward:
                        # at most 1.9e-6 over every case here.
                        np.testing.assert_allclose(eps, want, rtol=0, atol=1e-5)

    def test_branches_share_the_input_projection_only(self):
        # The null branch stacked under a request has the bits of a request
        # for the null tokens alone, under any null of the tables.
        null = self.null(self.a)
        both = self.step(self.x, self.y, self.a, 2, 1)
        alone = [self.step(self.x, self.y, self.a, 1, 1)[0],
                 self.step(self.x, *null, 1, 1, null=(self.y, None))[0]]
        for got, want in zip(both, alone, strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("y_kind, a_kind", [
        ("shared", None), ("shared", "shared"), ("rows", None),
        ("shared", "rows"), ("rows", "rows"),
    ])
    def test_a_request_leaves_the_tables_unchanged(self, y_kind, a_kind):
        # A request copies the branches it runs, rounded to float32: a shared
        # condition goes into branch 0 of the copy, a per-row one into its
        # own (n, h) rows, and the null branch is the plan's, bit for bit.
        model = self.model
        y = self.y if y_kind == "shared" else self.y_rows
        a = {None: None, "shared": self.a, "rows": self.a_rows}[a_kind]
        tables, nulls, _ = model.step_tables(self.t, self.null(a))
        kept = [table.copy() for table in tables]
        for branches in (1, 2):
            terms = model.condition_terms(y, a, tables, None if branches == 1 else nulls)
            for (steps, rows), table, null, h in zip(terms, tables, nulls, model.hidden_dims,
                                                     strict=True):
                assert table.shape == null.shape == (len(self.t), 1, 1, h)
                assert table.dtype == np.float64 and null.dtype == np.float32
                assert steps.shape == (len(self.t), branches, 1, h)
                assert not np.shares_memory(steps, table) and not np.shares_memory(steps, null)
                np.testing.assert_array_equal(steps[:, 1:], null[:, :branches - 1])
                if y_kind == "shared" and a_kind != "rows":
                    assert rows is None
                else:
                    assert rows.shape == (len(self.x), h)
                    np.testing.assert_array_equal(steps[:, 0], table[:, 0].astype(np.float32))
        for table, before in zip(tables, kept, strict=True):
            np.testing.assert_array_equal(table, before)

    def test_writes_no_cache(self):
        self.step(self.x, self.y_rows, self.a, 1, 0)
        assert self.model._cache is None

    def test_training_forward_backward_unchanged_after_inference(self):
        model = self.model
        upstream = np.random.default_rng(52).normal(size=self.x.shape)
        model.forward(self.x, self.y_rows, self.t[0], a=self.a_rows)
        model.backward(upstream)
        before = model.grads.copy()
        model.grads.fill(0.0)
        model.forward(self.x, self.y_rows, self.t[0], a=self.a_rows)
        self.step(self.x, self.y, self.a, 1, 2)
        model.backward(upstream)
        np.testing.assert_array_equal(model.grads, before)


class TestFlatStore:
    def test_layer_arrays_view_the_store(self):
        model = small_model(seed=1)
        views = [v for _, layer in model._layers for v in (layer.weight, layer.bias)]
        for p, (_, g) in zip(views, model.gradients(), strict=True):
            assert np.shares_memory(p, model.params)
            assert np.shares_memory(g, model.grads)
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in views]), model.params)
        assert model.params.size == param_count(model.topology())

    def test_writes_show_through_both_sides(self):
        model = small_model(seed=2)
        model.id_proj.bias[...] = 7.0
        assert np.count_nonzero(model.params == 7.0) == model.id_proj.bias.size
        model.params[:] = 0.0
        assert not model.input_proj.weight.any()

    def test_clone_is_independent_of_its_source(self):
        model = small_model(seed=4)
        randomize_params(model, 4)
        other = model.clone()
        np.testing.assert_array_equal(other.params, model.params)
        assert not other.fitted
        assert not np.shares_memory(other.params, model.params)
        before = model.params.copy()
        other.params += 1.0
        other.grads += 1.0
        np.testing.assert_array_equal(model.params, before)
        assert not model.grads.any()
        assert np.shares_memory(other.output.weight, other.params)
        model.freeze()
        assert model.clone().fitted

    def test_model_built_from_a_vector_equals_its_source_and_draws_nothing(
            self, monkeypatch):
        source = small_model(seed=6)
        randomize_params(source, 6)
        source.freeze()
        ema = EmaParams(np.random.default_rng(6).normal(size=source.params.size))
        x = np.random.default_rng(7).normal(size=(4, 3))
        want = source.forward(x, np.ones(2), 5, a=np.zeros(2))

        def no_draw(*args, **kwargs):
            raise AssertionError("an initialization was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        built = ConditionalDenoiser(**source.topology(), seed=source.seed,
                                    params=source.params)
        copies = (built, source.clone(), TrainResult(source, ema, None, None).ema_model())
        monkeypatch.undo()
        for other, vec in zip(copies, (source.params, source.params, ema.shadow)):
            assert other.topology() == source.topology() and other.seed == source.seed
            np.testing.assert_array_equal(other.params, vec)
            assert not np.shares_memory(other.params, vec)
            assert np.shares_memory(other.output.weight, other.params)
        # The constructor gives the writable copy; clone and ema_model keep the state.
        assert [m.fitted for m in copies] == [False, True, True]
        np.testing.assert_array_equal(built.forward(x, np.ones(2), 5, a=np.zeros(2)), want)
        with pytest.raises(ShapeError):
            ConditionalDenoiser(**source.topology(), params=source.params[:-1])

    def test_params_flat_is_a_copy(self):
        model = small_model(seed=5)
        flat = model.params_flat()
        flat += 1.0
        assert not np.array_equal(flat, model.params)

    def test_set_params_flat_rejects_wrong_length(self):
        model = small_model()
        with pytest.raises(ShapeError):
            model.set_params_flat(np.zeros(model.params.size + 1))


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

    def test_read_only_params_refused_before_any_state_moves(self):
        p, g = np.array([0.0, 1.0]), np.array([1.0, -1.0])
        opt = Adam(p, lr=0.1)
        opt.step(p, g)
        p.flags.writeable = False
        state = (opt.step_count, opt.m.copy(), opt.v.copy(), p.copy())
        g[...] = 1.0
        with pytest.raises(StateError, match="read-only"):
            opt.step(p, g)
        assert opt.step_count == state[0] == 1
        for got, want in zip((opt.m, opt.v, p), state[1:]):
            assert got.tobytes() == want.tobytes()
        assert (g == 1.0).all()

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
        opt = Adam(p, lr=lr)
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

    @pytest.mark.parametrize("lr", [0.0, -1e-3, np.nan, np.inf])
    def test_bad_lr_rejected(self, lr):
        with pytest.raises(ConfigurationError):
            Adam(np.zeros(1), lr=lr)


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
        model.freeze()
        ema = EmaParams(np.random.default_rng(6).normal(size=model.params.size))
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


class TestWorkerCount:
    """cores // BLAS threads, the BLAS count read as OpenBLAS reads it: the
    first of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS
    whose atoi value is positive; with none, BLAS takes every core and so
    one worker runs the blocks."""

    @pytest.mark.parametrize("value, cores, want", [
        ("1", 2, 2), ("2", 2, 1), (None, 2, 1), ("", 2, 1), ("0", 2, 1),
        ("abc", 2, 1), ("4,2", 2, 1), ("1", 1, 1), ("2", 8, 4), ("4", 2, 1),
        ("-1", 2, 1), ("1.5", 2, 2), (None, 8, 1), (" 1", 2, 2), ("+1", 2, 2),
        ("2x", 8, 4), ("2,4", 8, 4), ("\t 4 ", 8, 2), ("+-1", 2, 1), ("x1", 2, 1),
        ("-0", 2, 1), ("00002", 8, 4),
    ])
    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                     "OMP_NUM_THREADS"])
    def test_the_rule(self, var, value, cores, want):
        environ = {} if value is None else {var: value}
        assert worker_count(environ, cores) == want

    @pytest.mark.parametrize("first", ["", "0", "abc", "-3", "+0"])
    def test_a_value_without_a_positive_prefix_counts_as_unset(self, first):
        environ = {"OPENBLAS_NUM_THREADS": first, "GOTO_NUM_THREADS": first,
                   "OMP_NUM_THREADS": "1"}
        assert worker_count(environ, 2) == 2

    def test_the_first_set_variable_wins(self):
        environ = {"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}
        assert worker_count(environ, 4) == 2
        assert worker_count({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4) == 2
        # A prefix counts: "4,2" is 4 threads, which OMP's 1 does not undo.
        assert worker_count({"OPENBLAS_NUM_THREADS": "4,2", "OMP_NUM_THREADS": "1"}, 2) == 1

    def test_mkl_is_not_read(self):
        # numpy's OpenBLAS ignores MKL_NUM_THREADS and takes every core.
        assert worker_count({"MKL_NUM_THREADS": "1"}, 2) == 1
        assert worker_count({"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 4) == 2

    @pytest.mark.parametrize("environ", [
        {}, {"OPENBLAS_NUM_THREADS": "1"}, {"MKL_NUM_THREADS": "1"},
        {"OPENBLAS_NUM_THREADS": "4,2", "OMP_NUM_THREADS": "1"},
        {"GOTO_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "1.5"},
        {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"},
    ])
    def test_workers_and_openblas_threads_fit_the_cores(self, environ):
        # Asks the OpenBLAS that numpy loaded how many threads it took, and
        # skips when numpy carries no OpenBLAS with a thread count getter.
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
        env.update(environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", _OPENBLAS_THREADS], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        if not proc.stdout.strip():
            pytest.skip("no OpenBLAS thread count getter in numpy's libraries")
        workers, blas, cores = map(int, proc.stdout.split())
        # So more than one worker never puts more than one thread on a core.
        assert workers == max(1, cores // blas)


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")
SRC = str(Path(__file__).resolve().parents[1] / "src")
_OPENBLAS_THREADS = """
import ctypes, glob, os
import numpy
from preimage import nn
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            print(nn.WORKERS, getter(), len(os.sched_getaffinity(0)))
            raise SystemExit
"""


class TestRunLanes:
    """run_lanes runs lane 0 on the calling thread and the others on the
    caller's lane_pool, and returns or raises only once every lane is done."""

    def run(self, lanes, fn):
        with lane_pool(len(lanes)) as pool:
            run_lanes(fn, lanes, pool)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_every_lane_runs_once_and_the_first_on_the_caller(self, count):
        ran = {}

        def fn(lane):
            ran[lane] = threading.get_ident()

        self.run(list(range(count)), fn)
        assert sorted(ran) == list(range(count))
        assert ran[0] == threading.get_ident()
        assert all(ran[w] != threading.get_ident() for w in range(1, count))

    def test_one_lane_opens_no_pool(self):
        with lane_pool(1) as pool:
            assert pool is None
            run_lanes(lambda lane: None, [0], pool)

    def test_every_lane_runs_in_the_callers_errstate(self):
        # A pool thread does not inherit np.errstate by itself.
        seen = {}

        def fn(lane):
            seen[lane] = np.geterr()

        with np.errstate(over="raise", invalid="ignore", divide="raise"):
            want = np.geterr()
            self.run([0, 1, 2], fn)
        assert seen == {lane: want for lane in range(3)}

    @pytest.mark.parametrize("failing", [[0], [1], [2], [1, 2], [0, 2]])
    def test_the_first_error_in_lane_order_is_raised_after_every_lane(self, failing):
        done = []

        def fn(lane):
            if lane in failing:
                raise FloatingPointError(f"lane {lane}")
            done.append(lane)

        with pytest.raises(FloatingPointError, match=f"lane {failing[0]}"):
            self.run([0, 1, 2], fn)
        assert sorted(done) == [w for w in range(3) if w not in failing]
