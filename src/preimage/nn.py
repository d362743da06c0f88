"""Manually differentiated MLP denoiser and its training machinery.

Everything here is plain float64 numpy. Layers cache their forward inputs so
that a single backward pass can accumulate parameter gradients without an
autograd framework.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, ShapeError, StateError

MAX_PERIOD = 10000.0


def sigmoid(x):
    """Logistic function 0.5 * (1 + tanh(x / 2)) for scalars or arrays.

    The tanh form needs one transcendental per entry and no branch, and it
    saturates to exactly 0 and 1 in the tails instead of overflowing.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.multiply(x, 0.5, out=np.empty_like(x))
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def silu(x):
    """SiLU activation x * sigmoid(x)."""
    out = sigmoid(x)
    out *= x
    return out


def silu_grad(x):
    """Derivative of SiLU: sigmoid(x) * (1 + x * (1 - sigmoid(x)))."""
    x = np.asarray(x, dtype=np.float64)
    s = sigmoid(x)
    out = 1.0 - s
    out *= x
    out += 1.0
    out *= s
    return out


def sinusoidal_embed(t, dim: int) -> np.ndarray:
    """Sinusoidal position embedding of timestep t.

    The first dim/2 entries are sines, the rest cosines, over frequencies that
    decay geometrically so the periods grow toward MAX_PERIOD. Accepts a
    scalar t (returns shape (dim,)) or a 1-D array (returns (n, dim)).
    """
    if dim < 2 or dim % 2 != 0:
        raise ConfigurationError(f"embedding dim must be a positive even number, got {dim}")
    t_arr = np.asarray(t, dtype=np.float64)
    scalar = t_arr.ndim == 0
    if t_arr.ndim > 1:
        raise ShapeError(f"t must be a scalar or 1-D array, got shape {t_arr.shape}")
    half = dim // 2
    freqs = np.exp(-math.log(MAX_PERIOD) * np.arange(half, dtype=np.float64) / half)
    args = np.atleast_1d(t_arr)[:, None] * freqs[None, :]
    emb = np.concatenate([np.sin(args), np.cos(args)], axis=1)
    return emb[0] if scalar else emb


class LinearLayer:
    """Affine map with gradient accumulators mirroring weight and bias.

    weight has shape (out_dim, in_dim); forward computes x @ weight.T + bias.
    The forward input is cached so backward can accumulate gradients; backward
    consumes the cache, so it must be paired with a preceding forward.
    """

    def __init__(self, in_dim: int, out_dim: int, rng=None, zero_init: bool = False):
        if in_dim <= 0 or out_dim <= 0:
            raise ConfigurationError(f"layer dims must be positive, got ({in_dim}, {out_dim})")
        self.in_dim = in_dim
        self.out_dim = out_dim
        if zero_init:
            self.weight = np.zeros((out_dim, in_dim))
            self.bias = np.zeros(out_dim)
        else:
            if rng is None:
                raise ConfigurationError("rng is required unless zero_init is set")
            # Kaiming-style uniform init scaled by fan-in.
            bound = 1.0 / math.sqrt(in_dim)
            self.weight = rng.uniform(-bound, bound, size=(out_dim, in_dim))
            self.bias = rng.uniform(-bound, bound, size=out_dim)
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros_like(self.bias)
        self._input = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"expected input of shape (n, {self.in_dim}), got {x.shape}")
        self._input = x
        out = x @ self.weight.T
        out += self.bias
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise StateError("backward called without a matching forward")
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if grad_out.shape != (self._input.shape[0], self.out_dim):
            raise ShapeError(
                f"expected upstream grad of shape ({self._input.shape[0]}, {self.out_dim}),"
                f" got {grad_out.shape}"
            )
        self.weight_grad += grad_out.T @ self._input
        self.bias_grad += grad_out.sum(axis=0)
        grad_in = grad_out @ self.weight
        self._input = None
        return grad_in


def _layer_dims(topo: dict) -> list:
    """(name, in_dim, out_dim) of every layer of a denoiser topology, in the
    order the layers draw their initial weights and lie in the flat store."""
    hidden, emb = tuple(topo["hidden_dims"]), topo["time_embed_dim"]
    dims = [("input_proj", topo["data_dim"], hidden[0])]
    dims += [(f"hidden_{i}", a, b) for i, (a, b) in enumerate(zip(hidden, hidden[1:]))]
    dims.append(("id_proj", topo["id_dim"], emb))
    if topo["attr_dim"]:
        dims.append(("attr_proj", topo["attr_dim"], emb))
    dims += [(f"inject_{i}", emb, h) for i, h in enumerate(hidden)]
    dims.append(("output", hidden[-1], topo["data_dim"]))
    return dims


def param_count(topo: dict) -> int:
    """Length of the flat parameter vector of a denoiser topology; allocates
    nothing, so it can vet an untrusted topology."""
    return sum(out_dim * (in_dim + 1) for _, in_dim, out_dim in _layer_dims(topo))


class ConditionalDenoiser:
    """MLP noise predictor conditioned on timestep, embedding, and attributes.

    The condition vector is the sinusoidal timestep embedding plus a learned
    projection of the target embedding y (and, when configured, of the
    attribute vector a). It is injected additively into every hidden
    pre-activation through a per-layer learned projection. The output layer is
    zero-initialized so the untrained model predicts zero noise.

    params and grads are the flat store, laid out layer by layer as weight
    then bias; every layer's weight, bias and their grads are views of them.
    """

    def __init__(
        self,
        data_dim: int,
        id_dim: int,
        hidden_dims=(128, 128, 128),
        time_embed_dim: int = 64,
        attr_dim: int | None = None,
        seed: int = 0,
    ):
        hidden_dims = tuple(int(h) for h in hidden_dims)
        if data_dim <= 0 or id_dim <= 0:
            raise ConfigurationError(f"dims must be positive, got data={data_dim} id={id_dim}")
        if attr_dim is not None and attr_dim <= 0:
            raise ConfigurationError(f"attr_dim must be positive or None, got {attr_dim}")
        if not hidden_dims:
            raise ConfigurationError("at least one hidden layer is required")
        if time_embed_dim < 2 or time_embed_dim % 2 != 0:
            raise ConfigurationError(f"time_embed_dim must be even, got {time_embed_dim}")
        self.data_dim = data_dim
        self.id_dim = id_dim
        self.attr_dim = attr_dim
        self.hidden_dims = hidden_dims
        self.time_embed_dim = time_embed_dim
        self.seed = seed
        self.fitted = False

        rng = np.random.default_rng(seed)
        self._layers = [(name, LinearLayer(i, o, rng, zero_init=name == "output"))
                        for name, i, o in _layer_dims(self.topology())]
        by_name = dict(self._layers)
        self.input_proj = by_name["input_proj"]
        self.hidden = [by_name[f"hidden_{i}"] for i in range(len(hidden_dims) - 1)]
        self.id_proj = by_name["id_proj"]
        self.attr_proj = by_name.get("attr_proj")
        self.inject = [by_name[f"inject_{i}"] for i in range(len(hidden_dims))]
        self.output = by_name["output"]

        # Rebind every layer array as a view of one params and one grads vector.
        slots = [(layer, attr) for _, layer in self._layers for attr in ("weight", "bias")]
        self.params = np.concatenate([getattr(layer, attr).ravel() for layer, attr in slots])
        self.grads = np.zeros_like(self.params)
        offset = 0
        for layer, attr in slots:
            shape = getattr(layer, attr).shape
            end = offset + math.prod(shape)
            setattr(layer, attr, self.params[offset:end].reshape(shape))
            setattr(layer, f"{attr}_grad", self.grads[offset:end].reshape(shape))
            offset = end

        self._cache = None

    # -- parameter bookkeeping -------------------------------------------

    def parameters(self):
        """Ordered (name, array) pairs; arrays are views of params."""
        return [(f"{name}.{attr}", getattr(layer, attr))
                for name, layer in self._layers for attr in ("weight", "bias")]

    def gradients(self):
        """Ordered (name, array) pairs mirroring parameters(); views of grads."""
        return [(f"{name}.{attr}", getattr(layer, f"{attr}_grad"))
                for name, layer in self._layers for attr in ("weight", "bias")]

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def n_params(self) -> int:
        return self.params.size

    def params_flat(self) -> np.ndarray:
        """A copy of the parameter vector."""
        return self.params.copy()

    def set_params_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.params.shape:
            raise ShapeError(f"expected flat vector of length {self.n_params()}, got {flat.shape}")
        self.params[...] = flat

    def topology(self) -> dict:
        return {
            "data_dim": self.data_dim,
            "id_dim": self.id_dim,
            "attr_dim": self.attr_dim,
            "time_embed_dim": self.time_embed_dim,
            "hidden_dims": self.hidden_dims,
        }

    @classmethod
    def from_topology(cls, topo: dict, seed: int = 0) -> "ConditionalDenoiser":
        return cls(**topo, seed=seed)

    def clone(self) -> "ConditionalDenoiser":
        other = ConditionalDenoiser.from_topology(self.topology(), seed=self.seed)
        other.params[...] = self.params
        other.fitted = self.fitted
        return other

    # -- forward / backward ----------------------------------------------

    def _check_cond_input(self, arr, dim, n, rows, name):
        arr = np.asarray(arr, dtype=np.float64)
        out = np.tile(arr, (rows, 1)) if arr.ndim == 1 else arr
        if out.shape != (rows, dim):
            raise ShapeError(f"{name} must have shape ({dim},) or ({n}, {dim}), got {arr.shape}")
        return out

    def forward(self, x_t, y, t, a=None) -> np.ndarray:
        """Predict the noise in x_t given target embedding y at timestep t.

        x_t may be (d,) or (n, d); y and a are one (k,)/(m,) vector shared by
        the batch or one row per sample; t is a scalar or per-row array of
        timesteps >= 1. A model built with attr_dim set still accepts a=None,
        which leaves the attribute pathway off the compute path entirely.

        When y (and a, if given) is a single vector and t a scalar, as in
        sampling, the condition and its projections are computed once, on one
        row, and broadcast over the batch. Any per-row y, a or t, as in
        training, computes the condition for every row.
        """
        x_t = np.asarray(x_t, dtype=np.float64)
        single = x_t.ndim == 1
        if single:
            x_t = x_t[None, :]
        if x_t.ndim != 2 or x_t.shape[1] != self.data_dim:
            raise ShapeError(f"x_t must have shape (n, {self.data_dim}), got {x_t.shape}")
        n = x_t.shape[0]
        t_arr = np.asarray(t, dtype=np.float64)
        shared = np.ndim(y) == 1 and (a is None or np.ndim(a) == 1) and t_arr.ndim == 0
        rows = 1 if shared else n
        y = self._check_cond_input(y, self.id_dim, n, rows, "y")
        if a is not None:
            if self.attr_proj is None:
                raise ConfigurationError("model was built without attribute conditioning")
            a = self._check_cond_input(a, self.attr_dim, n, rows, "a")

        if t_arr.ndim == 0:
            t_arr = np.full(rows, float(t_arr))
        if t_arr.shape != (rows,):
            raise ShapeError(f"t must be a scalar or shape ({n},), got {t_arr.shape}")
        if np.any(t_arr < 0):
            raise ConfigurationError("timesteps must be nonnegative")

        cond = sinusoidal_embed(t_arr, self.time_embed_dim)
        cond += self.id_proj.forward(y)
        if a is not None:
            cond += self.attr_proj.forward(a)

        zs = []
        h = x_t
        for i, h_dim in enumerate(self.hidden_dims):
            main = self.input_proj if i == 0 else self.hidden[i - 1]
            z = main.forward(h)
            z += self.inject[i].forward(cond)
            zs.append(z)
            h = silu(z)
        eps = self.output.forward(h)

        self._cache = {"zs": zs, "a_given": a is not None, "single": single,
                       "shared": shared}
        return eps[0] if single else eps

    def backward(self, grad_out) -> np.ndarray:
        """Accumulate parameter gradients for the last forward pass.

        grad_out is the loss gradient with respect to the predicted noise.
        Returns the gradient with respect to x_t. Consumes the forward cache.
        A condition computed on one row receives the batch sum of its
        gradient.
        """
        if self._cache is None:
            raise StateError("backward called without a matching forward")
        cache = self._cache
        self._cache = None

        grad_out = np.asarray(grad_out, dtype=np.float64)
        if cache["single"] and grad_out.ndim == 1:
            grad_out = grad_out[None, :]

        dh = self.output.backward(grad_out)
        dcond = None
        for i in reversed(range(len(self.hidden_dims))):
            dz = silu_grad(cache["zs"][i])
            dz *= dh
            dc = self.inject[i].backward(dz.sum(axis=0, keepdims=True) if cache["shared"] else dz)
            dcond = dc if dcond is None else dcond + dc
            main = self.input_proj if i == 0 else self.hidden[i - 1]
            dh = main.backward(dz)
        # dcond also flows into the sinusoidal embedding, which has no params.
        self.id_proj.backward(dcond)
        if cache["a_given"]:
            self.attr_proj.backward(dcond)
        return dh[0] if cache["single"] else dh


class Adam:
    """Adam with bias correction over one flat parameter vector. step runs in
    place through two scratch buffers, in the textbook per-entry order."""

    def __init__(self, params, lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError(f"betas must lie in [0, 1), got ({beta1}, {beta2})")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = np.zeros(np.shape(params))
        self.v = np.zeros_like(self.m)
        self._a = np.empty_like(self.m)
        self._b = np.empty_like(self.m)

    def step(self, params, grads) -> None:
        """Update params in place from grads, then zero the grads."""
        if params.shape != self.m.shape or grads.shape != self.m.shape:
            raise ShapeError("parameter/gradient vectors do not match optimizer state")
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        m, v, a, b = self.m, self.v, self._a, self._b
        # m = beta1 * m + (1 - beta1) * g
        m *= self.beta1
        np.multiply(grads, 1.0 - self.beta1, out=a)
        m += a
        # v = beta2 * v + ((1 - beta2) * g) * g
        v *= self.beta2
        np.multiply(grads, 1.0 - self.beta2, out=a)
        a *= grads
        v += a
        # p -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=a)
        a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        params -= a
        grads.fill(0.0)


class EmaParams:
    """Exponential moving average shadow of a flat parameter vector."""

    def __init__(self, params, rate: float = 0.9999):
        if not (0.0 <= rate <= 1.0):
            raise ConfigurationError(f"ema rate must lie in [0, 1], got {rate}")
        self.rate = rate
        self.shadow = np.array(params, dtype=np.float64, copy=True)
        self._scratch = np.empty_like(self.shadow)

    def update(self, params) -> None:
        """shadow = rate * shadow + (1 - rate) * params, in place."""
        if np.shape(params) != self.shadow.shape:
            raise ShapeError("parameter vector does not match shadow state")
        self.shadow *= self.rate
        np.multiply(params, 1.0 - self.rate, out=self._scratch)
        self.shadow += self._scratch

    def flat(self) -> np.ndarray:
        """A copy of the shadow vector."""
        return self.shadow.copy()
