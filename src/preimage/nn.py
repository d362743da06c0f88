"""Manually differentiated MLP denoiser and its training machinery.

Training splits its precision as Micikevicius et al. 2018 do: the forward,
the backward and Adam's moments run in float32 on a float32 model around
float64 master params, which Adam's update, the EMA shadow and the
checkpoint keep. A layer is views of the model's flat stores and keeps no
state; the model's forward caches every layer input in reused buffers, so
that a single backward pass can accumulate parameter gradients without an
autograd framework. Sampling takes a separate inference
path through the denoiser that caches nothing and checks no shapes per layer:
a sampler plan holds what it derives once from a frozen model, the float64
timestep tables over every step, the null tokens' float32 terms and float32
copies of the trunk and output weights; one call per request adds the
request's condition to the tables and rounds the result to float32, and each
step runs both guidance branches in one float32 pass over blocks of rows.
The sampler's state stays float64 (the mixed-precision split of
Micikevicius et al. 2018): a block reads its rows into float32 and the
output bias is added in float64. An activation that overflows float32 is a
NumericalDomainError naming its layer and the reverse step.
A request of more than one block splits its blocks over
WORKERS lanes, each with its own block scratch in its own core's L2, through
run_lanes: the calling thread runs the first lane, and threads of a pool the
request opens and closes (lane_pool) run the others.
evaluation's distance sums run their row blocks on the same two helpers.
numpy's matmuls and ufuncs release the GIL, and a block's bits do not
depend on the thread that computes it.

A fitted model is a frozen one, its parameters read-only: train and
load_checkpoint freeze their models, and a clone of a frozen model is frozen.
A writable copy of m is ConditionalDenoiser(**m.topology(), seed=m.seed,
params=m.params). Setting the store's writeable flag back on and editing it
is outside the contract.
"""

from __future__ import annotations

import math
import os
import re
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from functools import partial

import numpy as np

from .errors import ConfigurationError, NumericalDomainError, ShapeError, StateError, check_int

MAX_PERIOD = 10000.0

# Rows per inference block: a guided block's float32 (2, 256, 128)
# pre-activations and activations take 512 KiB of a core's 2 MiB L2 on the
# 2-vCPU Xeon. There 512 rows ran 4-10 % faster at n = 4096 on two workers
# and within 4 % either way on one, but a request of 257-512 rows would lose
# its second lane (n = 512: 29-36 % slower). Each worker thread has its own
# block scratch, which sits in its own core's L2.
ROW_BLOCK = 256

# The default denoiser topology.
HIDDEN_DIMS, TIME_EMBED_DIM = (128, 128, 128), 64


def worker_count(environ, cores: int) -> int:
    """Threads for the row blocks of one sampling step or distance sum:
    cores // BLAS threads, at least 1, so that block threads and BLAS threads
    together do not outnumber the cores. The BLAS thread count is read as
    numpy's OpenBLAS reads it: the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS whose atoi value (the signed decimal
    prefix after leading whitespace, else 0) is positive, else the core
    count."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        prefix = re.match(r"[ \t\n\v\f\r]*([+-]?[0-9]+)", environ.get(var, ""))
        if prefix and int(prefix[1]) > 0:
            return max(1, cores // int(prefix[1]))
    return 1


# Read once, as BLAS read its thread count when numpy loaded.
WORKERS = worker_count(os.environ, len(os.sched_getaffinity(0))
                       if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def lane_pool(lanes: int):
    """The executor a caller of run_lanes owns, as a context manager: a pool
    of lanes - 1 threads named preimage-block, joined when the block exits,
    or None for one lane."""
    if lanes > 1:
        return ThreadPoolExecutor(lanes - 1, thread_name_prefix="preimage-block")
    return nullcontext()


def run_lanes(fn, lanes, pool) -> None:
    """fn(lane) for every lane: lanes[0] on the calling thread, the others on
    pool, lane_pool's executor (None for one lane), each under the caller's
    np.errstate, which a pool thread does not inherit. Returns once every
    lane is done, raising the first error in lane order if any."""
    if len(lanes) == 1:
        fn(lanes[0])
        return
    state = np.geterr()

    def in_callers_errstate(lane):
        with np.errstate(**state):
            fn(lane)

    futures = [pool.submit(in_callers_errstate, lane) for lane in lanes[1:]]
    try:
        fn(lanes[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()


# Adam's moment decay rates and denominator floor (Kingma & Ba 2014).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


# The activations' constants: exact in any float dtype, and on a float32
# array a numpy float32 scalar dispatches about 80 ns faster than a Python float.
_HALF, _ONE = np.float32(0.5), np.float32(1.0)


def _float_array(x) -> np.ndarray:
    """x itself if it is a float ndarray, which keeps its dtype, else x as
    float64."""
    if isinstance(x, np.ndarray) and x.dtype.kind == "f":
        return x
    return np.asarray(x, dtype=np.float64)


def sigmoid(x, out=None):
    """Logistic function 0.5 * (1 + tanh(x / 2)) for scalars or arrays.

    The tanh form needs one transcendental per entry and no branch, and it
    saturates to exactly 0 and 1 in the tails instead of overflowing. out, if
    given, is an array of x's shape to write the result into. A float ndarray
    keeps its dtype; anything else is computed in float64.
    """
    x = _float_array(x)
    out = np.multiply(x, _HALF, out=np.empty_like(x) if out is None else out)
    np.tanh(out, out=out)
    out += _ONE
    out *= _HALF
    return out


def silu(x, out=None):
    """SiLU activation x * sigmoid(x), written into out if given.

    sigmoid's four ufuncs, inlined, then the product: the same bits as
    x * sigmoid(x), one Python call fewer per hidden layer and step. A float
    ndarray keeps its dtype, so the sampler's float32 blocks stay float32;
    anything else is computed in float64.
    """
    x = _float_array(x)
    out = np.multiply(x, _HALF, out=np.empty_like(x) if out is None else out)
    np.tanh(out, out=out)
    out += _ONE
    out *= _HALF
    out *= x
    return out


def silu_grad(x, s=None, out=None):
    """Derivative of SiLU: sigmoid(x) * (1 + x * (1 - sigmoid(x))).

    s, when given, is sigmoid(x) already computed, as the training forward
    keeps it; out, if given, is an array of x's shape to write into. A float
    ndarray keeps its dtype, as in sigmoid.
    """
    x = _float_array(x)
    if s is None:
        s = sigmoid(x)
    out = np.subtract(_ONE, s, out=out)
    out *= x
    out += _ONE
    out *= s
    return out


def sinusoidal_embed(t, dim: int, out=None) -> np.ndarray:
    """Sinusoidal position embedding of timestep t.

    The first dim/2 entries are sines, the rest cosines, over frequencies that
    decay geometrically so the periods grow toward MAX_PERIOD. Accepts a
    scalar t (returns shape (dim,)) or a 1-D array (returns (n, dim), in out
    if given).
    """
    if check_int("dim", dim, 2) % 2:
        raise ConfigurationError(f"dim must be even, got {dim}")
    t_arr = np.asarray(t, dtype=np.float64)
    scalar = t_arr.ndim == 0
    if t_arr.ndim > 1:
        raise ShapeError(f"t must be a scalar or 1-D array, got shape {t_arr.shape}")
    half = dim // 2
    freqs = np.exp(-math.log(MAX_PERIOD) * np.arange(half, dtype=np.float64) / half)
    args = np.atleast_1d(t_arr)[:, None] * freqs[None, :]
    emb = np.concatenate([np.sin(args), np.cos(args)], axis=1, out=out)
    return emb[0] if scalar else emb


class LinearLayer:
    """Affine map over five views of a model's flat stores.

    weight (out_dim, in_dim) and bias view the model's params, weight_grad and
    bias_grad its grads, scratch (its own buffer if not given) the model's
    gradient scratch. forward computes x @ weight.T + bias. backward(x,
    grad_out) adds the gradients of the forward that took x into weight_grad,
    through scratch, and bias_grad, and returns the gradient with respect to
    x. Both write their result into out if given; backward's out may be x.
    Neither checks shapes: the model checks its inputs once.
    """

    def __init__(self, weight, bias, weight_grad, bias_grad, scratch=None):
        self.weight, self.bias = weight, bias
        self.weight_grad, self.bias_grad = weight_grad, bias_grad
        self.scratch = np.empty_like(weight) if scratch is None else scratch
        self.out_dim, self.in_dim = weight.shape

    def forward(self, x: np.ndarray, out=None) -> np.ndarray:
        out = np.matmul(x, self.weight.T, out=out)
        out += self.bias
        return out

    def backward(self, x: np.ndarray, grad_out: np.ndarray, out=None) -> np.ndarray:
        self.weight_grad += np.matmul(grad_out.T, x, out=self.scratch)
        self.bias_grad += np.add.reduce(grad_out, axis=0)
        return np.matmul(grad_out, self.weight, out=out)


def shared_or_rows(v, dim: int, n: int, name: str) -> np.ndarray:
    """A conditioning input as one shared (dim,) vector or (n, dim) rows.

    A shared vector stays 1-D, so the inference path computes its condition
    once; a scalar counts as a shared vector when dim is 1. Anything else
    raises ShapeError.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.shape != (dim,) and v.shape != (n, dim):
        raise ShapeError(f"{name} must have shape ({dim},) or ({n}, {dim}), got {v.shape}")
    return v


def _tiled(v: np.ndarray, n: int) -> np.ndarray:
    """shared_or_rows' result as (n, dim) rows."""
    return np.tile(v, (n, 1)) if v.ndim == 1 else v


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
    zero-initialized so the untrained model predicts zero noise. Given params,
    a flat vector, the model is built around a copy of it instead, drawing no
    initialization.

    params and grads are the flat store, of dtype (float64 unless given),
    laid out layer by layer as weight then bias. forward and backward run in
    that dtype: train runs them on a float32 model around its float64 master
    params, and a float64 model is the reference that the finite-difference
    checks hold them to. The store is allocated first; every layer's weight,
    bias and their grads are views of it, and the initialization is drawn
    into those views.
    Layers run backward one at a time, so every layer's scratch views the
    front of one buffer as large as the largest weight.
    mains holds each hidden layer's own map: input_proj, then hidden_0, ...
    sampler_plan is what diffusion.sample_batch keeps on a frozen model for
    the next request (None until the first); a clone starts without one,
    and without the timestep table of tabulate_timesteps.
    """

    def __init__(
        self,
        data_dim: int,
        id_dim: int,
        hidden_dims=HIDDEN_DIMS,
        time_embed_dim: int = TIME_EMBED_DIM,
        attr_dim: int | None = None,
        seed: int = 0,
        params=None,
        dtype=np.float64,
    ):
        check_int("data_dim", data_dim, 1)
        check_int("id_dim", id_dim, 1)
        if attr_dim is not None:
            check_int("attr_dim", attr_dim, 1)
        hidden_dims = tuple(check_int("hidden_dims entry", h, 1) for h in hidden_dims)
        if not hidden_dims:
            raise ConfigurationError("hidden_dims must not be empty")
        if check_int("time_embed_dim", time_embed_dim, 2) % 2:
            raise ConfigurationError(f"time_embed_dim must be even, got {time_embed_dim}")
        self.data_dim = data_dim
        self.id_dim = id_dim
        self.attr_dim = attr_dim
        self.hidden_dims = hidden_dims
        self.time_embed_dim = time_embed_dim
        self.seed = check_int("seed", seed)

        dims = _layer_dims(self.topology())
        self.params = np.zeros(param_count(self.topology()), dtype)
        self.grads = np.zeros(self.params.shape, dtype)
        self._grad_scratch = np.empty(max(i * o for _, i, o in dims), dtype)
        rng = None if params is not None else np.random.default_rng(seed)
        self._layers, offset = [], 0
        for name, in_dim, out_dim in dims:
            mid, end = offset + out_dim * in_dim, offset + out_dim * (in_dim + 1)
            layer = LinearLayer(*(view for store in (self.params, self.grads) for view in
                                  (store[offset:mid].reshape(out_dim, in_dim), store[mid:end])),
                                self._grad_scratch[:mid - offset].reshape(out_dim, in_dim))
            if rng is not None and name != "output":
                # Kaiming-style uniform init scaled by fan-in.
                bound = 1.0 / math.sqrt(in_dim)
                layer.weight[...] = rng.uniform(-bound, bound, size=(out_dim, in_dim))
                layer.bias[...] = rng.uniform(-bound, bound, size=out_dim)
            self._layers.append((name, layer))
            offset = end
        by_name = dict(self._layers)
        self.mains = [by_name["input_proj"],
                      *(by_name[f"hidden_{i}"] for i in range(len(hidden_dims) - 1))]
        self.input_proj = self.mains[0]
        self.id_proj = by_name["id_proj"]
        self.attr_proj = by_name.get("attr_proj")
        self.inject = [by_name[f"inject_{i}"] for i in range(len(hidden_dims))]
        self.output = by_name["output"]
        if params is not None:
            self.set_params_flat(params)

        self._cache = self._train_work = self._time_table = self.sampler_plan = None

    # -- parameter bookkeeping -------------------------------------------

    def gradients(self):
        """Ordered (name, array) pairs, weight then bias per layer; views of grads."""
        return [(f"{name}.{attr}", getattr(layer, f"{attr}_grad"))
                for name, layer in self._layers for attr in ("weight", "bias")]

    def params_flat(self) -> np.ndarray:
        """A copy of the parameter vector."""
        return self.params.copy()

    def set_params_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.params.shape:
            raise ShapeError(f"expected flat vector of length {self.params.size}, got {flat.shape}")
        self.params[...] = flat

    def freeze(self) -> None:
        """Make params read-only: an edit then raises numpy's ValueError.
        The store's flag does not reach views made before it, so every
        layer's weight and bias gets its own."""
        for _, layer in self._layers:
            layer.weight.flags.writeable = layer.bias.flags.writeable = False
        self.params.flags.writeable = False

    @property
    def fitted(self) -> bool:
        """Whether the model is frozen; only a fitted model samples."""
        return not self.params.flags.writeable

    def topology(self) -> dict:
        return {
            "data_dim": self.data_dim,
            "id_dim": self.id_dim,
            "attr_dim": self.attr_dim,
            "time_embed_dim": self.time_embed_dim,
            "hidden_dims": self.hidden_dims,
        }

    def clone(self, params=None) -> "ConditionalDenoiser":
        """A copy of this model, around params if given, frozen if this is."""
        other = ConditionalDenoiser(**self.topology(), seed=self.seed, dtype=self.params.dtype,
                                    params=self.params if params is None else params)
        if self.fitted:
            other.freeze()
        return other

    # -- forward / backward ----------------------------------------------

    def forward(self, x_t, y, t, a=None) -> np.ndarray:
        """Predict the noise in x_t given target embedding y at timestep t.

        x_t may be (d,) or (n, d); y and a are one (k,)/(m,) vector, tiled to
        every row, or one row per sample; t is a scalar or per-row array of
        nonnegative timesteps, and an integer array inside the model's
        timestep table (tabulate_timesteps) is looked up in it. A model built
        with attr_dim set still accepts a=None, which leaves the attribute
        pathway off the compute path entirely. x_t, y and a are cast once to
        the store's dtype, the network's.
        Caches every layer input backward needs; sampling uses
        step_tables, condition_terms and denoise_step instead.
        """
        dtype = self.params.dtype
        x_t = np.asarray(x_t, dtype=dtype)
        single = x_t.ndim == 1
        if single:
            x_t = x_t[None, :]
        if x_t.ndim != 2 or x_t.shape[1] != self.data_dim:
            raise ShapeError(f"x_t must have shape (n, {self.data_dim}), got {x_t.shape}")
        n = x_t.shape[0]
        y = _tiled(shared_or_rows(y, self.id_dim, n, "y"), n).astype(dtype, copy=False)
        if a is not None:
            if self.attr_proj is None:
                raise ConfigurationError("model was built without attribute conditioning")
            a = _tiled(shared_or_rows(a, self.attr_dim, n, "a"), n).astype(dtype, copy=False)

        t_arr, table = np.asarray(t), self._time_table
        tabled = (table is not None and t_arr.dtype.kind in "iu" and t_arr.shape == (n,)
                  and n > 0 and t_arr.min() >= 0 and t_arr.max() < len(table))
        if not tabled:
            t_arr = np.asarray(t, dtype=np.float64)
            if t_arr.ndim == 0:
                t_arr = np.full(n, float(t_arr))
            if t_arr.shape != (n,):
                raise ShapeError(f"t must be a scalar or shape ({n},), got {t_arr.shape}")
            if not ((t_arr >= 0) & (t_arr < math.inf)).all():  # NaN fails too
                raise ConfigurationError("timesteps must be nonnegative and finite")

        cond, emb, layers = self._training_workspace(n)[:3]
        if tabled:
            # t_arr is inside the table: mode "raise" would stage out in a copy.
            np.take(table, t_arr, axis=0, out=cond, mode="clip")
        else:
            sinusoidal_embed(t_arr, self.time_embed_dim, out=cond)
        cond += self.id_proj.forward(y, out=emb)
        if a is not None:
            cond += self.attr_proj.forward(a, out=emb)
        trunk, h = [], x_t
        for main, inject, (z, s, h_out) in zip(self.mains, self.inject, layers):
            main.forward(h, out=z)
            z += inject.forward(cond, out=s)
            sigmoid(z, out=s)
            trunk.append((h, z, s))
            h = np.multiply(z, s, out=h_out)
        eps = self.output.forward(h)

        self._cache = (y, a, trunk, h, single)
        return eps[0] if single else eps

    def tabulate_timesteps(self, n_steps: int) -> None:
        """Have forward read the embedding of integer timesteps 0..n_steps
        from one read-only table, sinusoidal_embed(0..n_steps) rounded once
        to the store's dtype: the bits forward computes without it, with no
        sin or cos per call. train tabulates its schedule's steps; any other
        timestep, and a model without a table, takes sinusoidal_embed."""
        table = sinusoidal_embed(np.arange(check_int("n_steps", n_steps) + 1),
                                 self.time_embed_dim)
        self._time_table = _read_only(table.astype(self.params.dtype))

    def _training_workspace(self, n: int):
        """Buffers for n rows in the store's dtype, kept while n stays the
        same: the condition and one projection of it, z, sigmoid(z) and
        silu(z) per hidden layer, the condition's gradient and one flat
        buffer for every layer's dz."""
        if self._train_work is None or len(self._train_work[0]) != n:
            dtype = self.params.dtype
            cond, emb, dcond = (np.empty((n, self.time_embed_dim), dtype) for _ in range(3))
            layers = [tuple(np.empty((n, h), dtype) for _ in range(3)) for h in self.hidden_dims]
            self._train_work = (cond, emb, layers, dcond,
                                np.empty(n * max(self.hidden_dims), dtype))
        return self._train_work

    def backward(self, grad_out) -> np.ndarray:
        """Accumulate parameter gradients for the last forward pass.

        grad_out is the loss gradient with respect to the predicted noise, of
        the predicted noise's shape, cast once to the store's dtype. Returns
        the gradient with respect to x_t.
        Consumes the forward cache: each layer's input buffer takes the
        gradient with respect to that input.
        """
        if self._cache is None:
            raise StateError("backward called without a matching forward")
        y, a, trunk, h, single = self._cache
        self._cache = None
        cond, emb, _, dcond, dz_flat = self._train_work

        grad_out = np.asarray(grad_out, dtype=self.params.dtype)
        if single and grad_out.ndim == 1:
            grad_out = grad_out[None, :]
        n = len(h)
        if grad_out.shape != (n, self.data_dim):
            raise ShapeError(f"expected upstream grad of shape ({n}, {self.data_dim}),"
                             f" got {grad_out.shape}")

        dh = self.output.backward(h, grad_out, out=h)
        for i in reversed(range(len(trunk))):
            x, z, s = trunk[i]
            dz = silu_grad(z, s, out=dz_flat[:z.size].reshape(z.shape))
            dz *= dh
            if i == len(trunk) - 1:
                self.inject[i].backward(cond, dz, out=dcond)
            else:
                dcond += self.inject[i].backward(cond, dz, out=emb)
            # x_t, the first layer's input, is the caller's array.
            dh = self.mains[i].backward(x, dz, out=x if i else None)
        # dcond also flows into the sinusoidal embedding, which has no params.
        self.id_proj.backward(y, dcond)
        if a is not None:
            self.attr_proj.backward(a, dcond)
        return dh[0] if single else dh

    # -- inference ---------------------------------------------------------

    def step_tables(self, t, null):
        """What a sampler plan derives from this model for the 1-D array t of
        S original timesteps: (tables, nulls, weights), writing nothing onto
        the model.

        tables holds, per hidden layer i, the float64 (S, 1, 1, h) base of
        the request branch, sinusoidal_embed(t) @ W_inject_i.T + c_i, c_i
        being the bias of the layer's own map (input_proj or hidden_{i-1}),
        which denoise_step leaves out. nulls holds, per hidden layer, the
        read-only float32 (S, 1, 1, h) term of a request for null = (y, a),
        the null tokens (a None without attributes), alone: condition_terms'
        own rounding, so the null branch has the bits of such a request.
        weights is (trunk, output), read-only float32 copies of the trunk
        (input_proj, hidden_i) and output weights that denoise_step runs. A
        weight or term float32 cannot hold raises NumericalDomainError
        naming its layer."""
        temb = sinusoidal_embed(t, self.time_embed_dim)
        tables = [np.add(temb @ inject.weight.T, main.bias)[:, None, None]
                  for inject, main in zip(self.inject, self.mains)]
        nulls = [steps for steps, _ in self.condition_terms(*null, tables)]
        weights = []
        try:
            with np.errstate(over="raise"):
                for layer in (*self.mains, self.output):
                    weights.append(_read_only(layer.weight.astype(np.float32)))
        except FloatingPointError:
            names = ["input_proj", *(f"hidden_{i}" for i in range(len(self.mains) - 1)), "output"]
            raise _beyond_float32(f"{names[len(weights)]}.weight") from None
        return tables, nulls, (weights[:-1], weights[-1])

    def condition_terms(self, y, a, tables, nulls=None):
        """What every hidden layer adds to its pre-activation at every step
        of a request, rounded once to float32.

        y is one (k,) vector or (n, k) rows, a likewise or None; tables and
        nulls are step_tables' for the request's S timesteps, nulls None for
        the request branch alone. Returns, per hidden layer, denoise_step's
        input (steps, rows), both read-only float32: steps is (S, B, 1, h),
        so steps[k] broadcasts over a block's rows, with branch 0 the
        request's and, given nulls, branch 1 a copy of nulls[i]. A shared y
        and a add inject_i(id_proj(y) + attr_proj(a)), one (1, emb) row
        through inject_i, to tables[i] in float64 before the rounding, and
        rows is None. A per-row y or a leaves branch 0 as tables[i] and
        returns that term as rows, one (n, h) array that denoise_step adds
        to branch 0, so no step multiplies an (n, emb) condition. A term
        float32 cannot hold raises NumericalDomainError naming its hidden
        layer. Nothing else is validated or cached: sample_batch checks the
        inputs once.
        """
        cond = self.id_proj.forward(np.atleast_2d(y))
        if a is not None:
            cond = cond + self.attr_proj.forward(np.atleast_2d(a))
        terms = []
        try:
            with np.errstate(over="raise"):
                for i, (inject, table) in enumerate(zip(self.inject, tables)):
                    if len(cond) == 1:
                        table, rows = table + inject.forward(cond)[0], None
                    else:
                        # A block at a time: no (n, h) float64 term at once.
                        rows = np.empty((len(cond), inject.out_dim), np.float32)
                        for r0 in range(0, len(cond), ROW_BLOCK):
                            block = slice(r0, r0 + ROW_BLOCK)
                            rows[block] = cond[block] @ inject.weight.T + inject.bias
                        _read_only(rows)
                    steps = np.concatenate((table,) if nulls is None else (table, nulls[i]),
                                           axis=1, dtype=np.float32)
                    terms.append((_read_only(steps), rows))
        except FloatingPointError:
            raise _beyond_float32(f"hidden layer {len(terms)}'s condition terms") from None
        return terms

    def workspace(self, n: int, branches: int):
        """Scratch arrays for denoise_step on n rows and B = branches. Block
        j, rows j * ROW_BLOCK onward, goes to worker j mod W, W = min(WORKERS,
        blocks). Each worker has three flat float32 buffers, reused by its
        blocks and hidden layers, for one block's input projection and (B,
        r, h) pre-activations and activations, r <= ROW_BLOCK; all write one
        float32 (B, n, d) output. Returns ([per worker, [(rows, output rows,
        projection, per hidden layer (z, z as (B*r, h), silu(z), that as
        (B*r, h)))] per block], output, the float64 (B, n, d) predictions):
        every step reuses these arrays."""
        h0, wide = self.hidden_dims[0], branches * max(self.hidden_dims)
        rows, starts = min(n, ROW_BLOCK), range(0, n, ROW_BLOCK)
        workers = min(WORKERS, len(starts))
        out = np.empty((branches, n, self.data_dim), np.float32)
        lanes = []
        for w in range(workers):
            proj, z_buf, h_buf = (np.empty(m * rows, np.float32) for m in (h0, wide, wide))
            views = {}
            for r in {rows, n % ROW_BLOCK or rows}:
                by_width = {}
                for h in set(self.hidden_dims):
                    z2, h2 = (buf[:branches * r * h].reshape(branches * r, h)
                              for buf in (z_buf, h_buf))
                    by_width[h] = (z2.reshape(branches, r, h), z2, h2.reshape(branches, r, h), h2)
                views[r] = (proj[:r * h0].reshape(r, h0), [by_width[h] for h in self.hidden_dims])
            lanes.append([(slice(r0, r0 + ROW_BLOCK), out[:, r0:r0 + ROW_BLOCK],
                           *views[min(ROW_BLOCK, n - r0)]) for r0 in starts[w::workers]])
        return lanes, out, np.empty(out.shape)

    def denoise_step(self, x, weights, terms, k, work, pool):
        """Noise predictions of every branch for the (n, d) float64 state x
        at step k, as float64.

        weights is step_tables' float32 (trunk, output), terms is
        condition_terms' result for B branches, work a workspace(n, B):
        branch 0 is the request's, branch 1 the null one. The network runs
        in float32; its first matmul rounds x's rows to float32 as it reads
        them, and the output bias is added in float64.
        All branches run in one pass over (B, r, h) stacks, r <= ROW_BLOCK
        rows at a time, so a block stays in cache: its input
        projection x @ W.T, without the bias the terms carry, is shared by
        every branch, and each hidden layer is one matmul over its B * r
        rows. More than one worker runs through run_lanes: the first
        worker's blocks on the calling thread, the others' on pool, the
        caller's lane_pool, and the call returns once all are done, raising
        the first worker's error if any. Under np.errstate(over="raise",
        invalid="raise"), as sample_batch runs it, an activation float32
        cannot hold raises NumericalDomainError naming its hidden layer, or
        the output layer, and reverse step k + 1. Returns work's float64
        (B, n, d) predictions, which the next call overwrites. Like
        condition_terms, this neither validates nor caches."""
        lanes, out, eps = work
        if len(lanes) == 1:
            # A partial and a run_lanes call every step made the benchmark's
            # n = 1 requests 1-3 % slower; one worker needs neither.
            self._blocks(x, weights, terms, k, lanes[0])
        else:
            run_lanes(partial(self._blocks, x, weights, terms, k), lanes, pool)
        return np.add(out, self.output.bias, out=eps)

    def _blocks(self, x, weights, terms, k, blocks):
        """denoise_step on one worker's blocks, without the output bias."""
        mains, output = weights
        try:
            for rows_of, out_rows, proj, layers in blocks:
                for i, (weight, (steps, rows), (z, z2, h, h2)) in enumerate(
                        zip(mains, terms, layers)):
                    if i:
                        np.matmul(h2_prev, weight.T, out=z2)
                        z += steps[k]
                    else:
                        np.matmul(x[rows_of], weight.T, out=proj, dtype=np.float32)
                        np.add(proj, steps[k], out=z)
                    if rows is not None:
                        z[0] += rows[rows_of]
                    silu(z, out=h)
                    h2_prev = h2
                i += 1  # the output layer, for the error below
                np.matmul(h, output.T, out=out_rows)
        except FloatingPointError:
            layer = "output layer" if i == len(mains) else f"hidden layer {i}"
            raise _beyond_float32(f"{layer}'s activations at reverse step {k + 1}") from None


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, its writeable flag cleared."""
    array.flags.writeable = False
    return array


def _beyond_float32(what: str) -> NumericalDomainError:
    """The refusal of a float32 copy, or the float64 sum rounded into it,
    that overflowed: what, float32 cannot hold."""
    return NumericalDomainError(f"{what}: values beyond float32's range")


class Adam:
    """Adam with bias correction over one flat parameter vector. step runs in
    place through two scratch buffers, in the textbook per-entry order.

    The moments and scratch take the shape and dtype of grads, the gradient
    store that step reads (float64 for anything but a float ndarray). train
    steps a float32 model's gradients, so its moments and the update are
    float32, and step adds the update into the float64 master params."""

    def __init__(self, grads, lr: float = 1e-4):
        if not 0 < lr < math.inf:  # NaN fails too
            raise ConfigurationError(f"learning rate must be positive and finite, got {lr}")
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros_like(_float_array(grads))
        self.v = np.zeros_like(self.m)
        self._a = np.empty_like(self.m)
        self._b = np.empty_like(self.m)

    def step(self, params, grads) -> None:
        """Update params in place from grads, then zero the grads. Read-only
        params, a fitted model's, raise StateError before any state moves."""
        if params.shape != self.m.shape or grads.shape != self.m.shape:
            raise ShapeError("parameter/gradient vectors do not match optimizer state")
        if not params.flags.writeable:
            raise StateError("params are read-only: a fitted model is not trained further")
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step_count
        bc2 = 1.0 - ADAM_BETA2 ** self.step_count
        m, v, a, b = self.m, self.v, self._a, self._b
        # m = beta1 * m + (1 - beta1) * g
        m *= ADAM_BETA1
        np.multiply(grads, 1.0 - ADAM_BETA1, out=a)
        m += a
        # v = beta2 * v + ((1 - beta2) * g) * g
        v *= ADAM_BETA2
        np.multiply(grads, 1.0 - ADAM_BETA2, out=a)
        a *= grads
        v += a
        # p -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=a)
        a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
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
