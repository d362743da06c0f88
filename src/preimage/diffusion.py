"""Denoising diffusion over embedding-conditioned data.

The forward process corrupts data points x with Gaussian noise over T steps;
a ConditionalDenoiser learns to predict that noise given the target embedding
y (and optional attributes a). Sampling runs the learned reverse process with
classifier-free guidance, optional timestep respacing, and optional dynamic
thresholding of the clean-signal estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .embedders import EmbedderInfo
from .errors import (
    ConfigurationError,
    DivergenceError,
    NumericalDomainError,
    SamplingError,
    SEED_MAX,
    ShapeError,
    StateError,
    check_finite,
    check_int,
)
from .nn import (HIDDEN_DIMS, TIME_EMBED_DIM, Adam, ConditionalDenoiser, EmaParams, lane_pool,
                 shared_or_rows)

BETA_MAX = 0.999


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise levels of the forward process.

    All arrays have length T and are indexed by step-1 (steps run 1..T).
    timestep_map holds, for each step of this schedule, the step index of the
    original full-length schedule it corresponds to; for a schedule that was
    never respaced it is simply 1..T. The posterior q(x_{t-1} | x_t, x0) has
    mean coef_x0 * x0 + coef_xt * x_t and variance posterior_variances, whose
    first entry is 0 because the step-1 posterior is deterministic.
    """

    betas: np.ndarray
    alpha_bars: np.ndarray
    posterior_variances: np.ndarray
    coef_x0: np.ndarray
    coef_xt: np.ndarray
    timestep_map: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.betas)


def schedule_from_betas(betas: np.ndarray, timestep_map=None) -> NoiseSchedule:
    """Derive the full schedule from its betas, validating the invariants."""
    betas = np.asarray(betas, dtype=np.float64)
    if betas.ndim != 1 or len(betas) == 0:
        raise ConfigurationError("betas must be a nonempty 1-D array")
    if not ((betas > 0.0) & (betas < 1.0)).all():  # NaN fails too
        raise ConfigurationError("every beta must lie strictly inside (0, 1)")
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    if np.any(np.diff(alpha_bars) >= 0.0) or alpha_bars[0] >= 1.0:
        raise ConfigurationError("alpha_bar must be strictly decreasing from below 1")
    prev_bars = np.concatenate(([1.0], alpha_bars[:-1]))
    posterior = betas * (1.0 - prev_bars) / (1.0 - alpha_bars)
    coef_x0 = np.sqrt(prev_bars) * betas / (1.0 - alpha_bars)
    coef_xt = np.sqrt(alphas) * (1.0 - prev_bars) / (1.0 - alpha_bars)
    if timestep_map is None:
        timestep_map = np.arange(1, len(betas) + 1, dtype=np.int64)
    else:
        timestep_map = np.asarray(timestep_map, dtype=np.int64)
        if timestep_map.shape != betas.shape:
            raise ShapeError("timestep_map must match betas in length")
    return NoiseSchedule(betas, alpha_bars, posterior, coef_x0, coef_xt, timestep_map)


def make_cosine_schedule(n_steps: int) -> NoiseSchedule:
    """Squared-cosine noise schedule.

    alpha_bar follows g(t)/g(0) with g(t) = cos(((t/T + 0.008) / 1.008) *
    pi/2)^2, realized as a running product of per-step betas that are clipped
    at 0.999 to keep the open-interval invariant near t = T.
    """
    check_int("n_steps", n_steps, 1)

    def g(u: float) -> float:
        return math.cos((u + 0.008) / 1.008 * math.pi / 2.0) ** 2

    g0 = g(0.0)
    # One allocation up front: a step count too large to hold fails at once.
    bars = np.fromiter((g(t / n_steps) / g0 for t in range(n_steps + 1)), float, n_steps + 1)
    betas = np.clip(1.0 - bars[1:] / bars[:-1], None, BETA_MAX)
    return schedule_from_betas(betas)


def make_linear_schedule(n_steps: int) -> NoiseSchedule:
    """Linear beta schedule from 1e-4 to 0.02, rescaled by 1000/T."""
    check_int("n_steps", n_steps, 1)
    scale = 1000.0 / n_steps
    betas = np.linspace(scale * 1e-4, scale * 0.02, n_steps)
    return schedule_from_betas(np.clip(betas, None, BETA_MAX))


SCHEDULES = {"cosine": make_cosine_schedule, "linear": make_linear_schedule}


def make_schedule(kind: str, n_steps: int) -> NoiseSchedule:
    if kind not in SCHEDULES:
        raise ConfigurationError(f"unknown schedule kind {kind!r}")
    return SCHEDULES[kind](n_steps)


def respace(schedule: NoiseSchedule, n_steps: int) -> NoiseSchedule:
    """Shorten a schedule to n_steps while preserving the kept alpha_bars.

    Keeps steps round(i * T / n) for i = 1..n (always including T) and
    re-derives betas from consecutive ratios of the kept alpha_bars, so the
    sub-schedule's running product reproduces them. timestep_map points back
    at the schedule that was respaced, composing across repeated respacing.
    """
    T = schedule.n_steps
    check_int("respaced n_steps", n_steps, 1, T)
    kept = np.unique(np.round(np.arange(1, n_steps + 1) * (T / n_steps)).astype(np.int64))
    kept_bars = schedule.alpha_bars[kept - 1]
    prev = np.concatenate(([1.0], kept_bars[:-1]))
    betas = 1.0 - kept_bars / prev
    return schedule_from_betas(betas, timestep_map=schedule.timestep_map[kept - 1])


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of a training run. The seed is mandatory."""

    seed: int
    schedule: str = "cosine"
    timesteps: int = 1000
    cond_dropout: float = 0.1
    batch_size: int = 64
    learning_rate: float = 1e-4
    ema_rate: float = 0.9999
    total_batches: int = 10000

    def validate(self) -> None:
        check_int("seed", self.seed, 0, SEED_MAX)
        if self.schedule not in SCHEDULES:
            raise ConfigurationError(f"unknown schedule kind {self.schedule!r}")
        for name in ("timesteps", "batch_size", "total_batches"):
            check_int(name, getattr(self, name), 1)
        if not (0.0 <= self.cond_dropout <= 1.0):
            raise ConfigurationError(f"cond_dropout must lie in [0, 1], got {self.cond_dropout}")
        if not 0 < self.learning_rate < math.inf:  # NaN fails too
            raise ConfigurationError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not (0.0 <= self.ema_rate <= 1.0):
            raise ConfigurationError(f"ema_rate must lie in [0, 1], got {self.ema_rate}")


@dataclass(frozen=True)
class SampleConfig:
    """Reverse-process settings. The seed is mandatory.

    respace_steps None means a quarter of the training schedule. threshold
    "auto" activates dynamic thresholding only when guidance_scale > 1.5,
    where over-saturated clean-signal estimates start to appear; True and
    False force it. variance_mode selects the posterior variance ("posterior")
    or the step beta ("beta") for the reverse noise.
    """

    seed: int
    guidance_scale: float = 2.0
    respace_steps: int | None = None
    threshold: bool | str = "auto"
    variance_mode: str = "posterior"

    def resolved(self) -> "SampleConfig":
        """Validate, clamp guidance below 1 (with a warning), resolve 'auto'."""
        cfg = self
        check_int("seed", cfg.seed)
        if cfg.respace_steps is not None:
            check_int("respace_steps", cfg.respace_steps, 1)
        if not math.isfinite(cfg.guidance_scale):
            raise ConfigurationError(f"guidance scale must be finite, got {cfg.guidance_scale}")
        if cfg.guidance_scale < 1.0:
            warnings.warn(
                f"guidance scale {cfg.guidance_scale} below 1 has no supported "
                "interpretation; clamping to 1.0",
                stacklevel=2,
            )
            cfg = replace(cfg, guidance_scale=1.0)
        if cfg.variance_mode not in ("posterior", "beta"):
            raise ConfigurationError(f"unknown variance_mode {cfg.variance_mode!r}")
        if cfg.threshold == "auto":
            cfg = replace(cfg, threshold=cfg.guidance_scale > 1.5)
        elif not isinstance(cfg.threshold, bool):
            raise ConfigurationError(f"threshold must be True, False, or 'auto', got {cfg.threshold!r}")
        return cfg


def null_id_token(id_dim: int) -> np.ndarray:
    """Unconditional stand-in for the target embedding: the zero vector."""
    return np.zeros(id_dim)


def null_attr_token(attr_dim: int) -> np.ndarray:
    """Unconditional stand-in for the attribute vector: the all minus-one vector."""
    return -np.ones(attr_dim)


def q_sample(x0, t, noise, schedule: NoiseSchedule):
    """Corrupt x0 to step t: sqrt(abar_t) x0 + sqrt(1 - abar_t) noise.

    t is an integer step in 1..T, scalar or per-row for batched x0.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != x0.shape:
        raise ShapeError(f"noise shape {noise.shape} must match x0 shape {x0.shape}")
    t_arr = np.asarray(t)
    if t_arr.dtype.kind not in "iu" or not ((t_arr >= 1) & (t_arr <= schedule.n_steps)).all():
        raise ConfigurationError(f"t must be an integer in [1, {schedule.n_steps}], got {t!r}")
    bars = schedule.alpha_bars[t_arr - 1]
    if x0.ndim == 2 and bars.ndim == 1:
        bars = bars[:, None]
    return np.sqrt(bars) * x0 + np.sqrt(1.0 - bars) * noise


def cfg_combine(eps_uncond, eps_cond, scale: float):
    """Classifier-free guidance: uncond + scale * (cond - uncond).

    scale 1.0 returns the conditional prediction exactly (bitwise).
    """
    eps_uncond = np.asarray(eps_uncond, dtype=np.float64)
    eps_cond = np.asarray(eps_cond, dtype=np.float64)
    if eps_uncond.shape != eps_cond.shape:
        raise ShapeError("branch predictions must have matching shapes")
    if scale == 1.0:
        return eps_cond.copy()
    return eps_uncond + scale * (eps_cond - eps_uncond)


def predict_x0(x_t, eps_hat, t: int, schedule: NoiseSchedule):
    """Invert the corruption formula to the clean-signal estimate; t is a
    step in 1..T."""
    bar = schedule.alpha_bars[check_int("t", t, 1, schedule.n_steps) - 1]
    if bar <= 0.0:
        raise NumericalDomainError(f"alpha_bar at step {t} is not positive")
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    return (x_t - math.sqrt(1.0 - bar) * eps_hat) / math.sqrt(bar)


def _quantile_last_axis(v, q: float) -> np.ndarray:
    """np.quantile(v, q, axis=-1, keepdims=True), bit for bit, for a scalar q.

    Sorts once and interpolates between the two order statistics around the
    virtual index (d - 1) * q with numpy's linear-method lerp, skipping the
    general quantile machinery that dominates the cost for small arrays.
    """
    s = np.sort(v, axis=-1)
    d = s.shape[-1]
    pos = (d - 1) * q
    if pos >= d - 1:
        # numpy points both neighbours at index -1 and keeps interpolating.
        below = above = s[..., -1:]
        g = pos + 1
    else:
        lo = math.floor(pos)
        below, above = s[..., lo:lo + 1], s[..., lo + 1:lo + 2]
        g = pos - lo
    diff = above - below
    out = above - diff * (1 - g) if g >= 0.5 else below + diff * g
    last = s[..., -1:]
    if np.isnan(last).any():
        out = np.where(np.isnan(last), np.nan, out)
    return out


def dynamic_threshold(x0, percentile: float = 0.99):
    """Rescale x0 into [-s, s] -> [-1, 1] where s is the given percentile of
    the absolute entries, never below 1. Entries beyond s are clipped first,
    so values already within [-1, 1] pass through unchanged.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.size == 0:
        raise ConfigurationError("cannot threshold an empty array")
    if not (0.0 < percentile <= 1.0):
        raise ConfigurationError(f"percentile must lie in (0, 1], got {percentile}")
    s = _quantile_last_axis(np.abs(x0), percentile)
    s = np.maximum(s, 1.0)
    # np.clip's ufunc without its wrapper; np.minimum/np.maximum flip NaN signs.
    return x0.clip(-s, s) / s


def training_loss(model, x0_batch, y_batch, schedule: NoiseSchedule, rng,
                  a_batch=None, dropout_prob: float = 0.1):
    """One denoising-score-matching step: returns the batch MSE loss and
    leaves the parameter gradients accumulated on the model.

    Draws per-row timesteps uniformly from 1..T and fresh Gaussian noise from
    rng, and independently replaces each row's conditioning with the null
    tokens (null_id_token for y, null_attr_token for a) with the given
    probability. The loss is the squared error between the true and predicted
    noise, averaged over both batch and data dimensions. An empty batch, or
    an a_batch whose rank or row count is not x0's, raises ShapeError before
    any draw.
    """
    x0_batch = np.asarray(x0_batch, dtype=np.float64)
    y_batch = np.asarray(y_batch, dtype=np.float64)
    if x0_batch.ndim != 2 or y_batch.ndim != 2 or len(x0_batch) != len(y_batch):
        raise ShapeError("x0 and y must be 2-D with matching row counts")
    n, d = x0_batch.shape
    if n == 0:
        raise ShapeError("the batch must hold at least one row")
    if a_batch is not None:
        a_batch = np.asarray(a_batch, dtype=np.float64)
        if a_batch.ndim != 2 or len(a_batch) != n:
            raise ShapeError(f"a must be 2-D with {n} rows like x0, got shape {a_batch.shape}")
    if not (0.0 <= dropout_prob <= 1.0):
        raise ConfigurationError(f"dropout_prob must lie in [0, 1], got {dropout_prob}")

    t = rng.integers(1, schedule.n_steps + 1, size=n)
    noise = rng.standard_normal((n, d))
    x_t = q_sample(x0_batch, t, noise, schedule)

    drop_y = rng.random(n) < dropout_prob
    y_in = np.where(drop_y[:, None], null_id_token(y_batch.shape[1]), y_batch)
    a_in = None
    if a_batch is not None:
        drop_a = rng.random(n) < dropout_prob
        a_in = np.where(drop_a[:, None], null_attr_token(a_batch.shape[1]), a_batch)

    eps_pred = model.forward(x_t, y_in, t, a=a_in)
    resid = eps_pred - noise
    loss = float(np.add.reduce(resid * resid, axis=None) / resid.size)
    model.backward(2.0 * resid / resid.size)
    return loss


@dataclass
class TrainResult:
    """The one record of a training run: the fitted denoiser, its EMA shadow,
    the schedule and config it was trained with, its per-batch losses, and
    the descriptor of the embedder that labelled its data.

    train fills every field but embedder_info, which it cannot know; set it
    with dataclasses.replace before save_checkpoint, which refuses a record
    without one. load_checkpoint gives back every field a v1 file holds, so
    its loss_history is empty. Resuming training would also need Adam's
    moments, the step count and the training RNG state, which no record
    holds yet."""

    model: ConditionalDenoiser
    ema: EmaParams
    schedule: NoiseSchedule
    config: TrainConfig
    loss_history: list = field(default_factory=list)
    embedder_info: EmbedderInfo | None = None

    @classmethod
    def from_train_result(cls, result: TrainResult, embedder_info: EmbedderInfo) -> TrainResult:
        """result with embedder_info set; the spelling persistence.Checkpoint callers use."""
        return replace(result, embedder_info=embedder_info)

    def ema_model(self) -> ConditionalDenoiser:
        """The model with EMA weights substituted; used for sampling."""
        return self.model.clone(params=self.ema.shadow)


def train(x0s, ys, config: TrainConfig, attrs=None, hidden_dims=HIDDEN_DIMS,
          time_embed_dim: int = TIME_EMBED_DIM, log_every: int = 0) -> TrainResult:
    """Fit a ConditionalDenoiser to (x, y[, a]) pairs.

    Batches are drawn with replacement from the dataset; the whole run is a
    deterministic function of the inputs and config.seed. Each batch's
    forward, backward and Adam moments run in float32, on a float32 model
    around the float64 master params (the master-weights split of
    Micikevicius et al. 2018): Adam adds its update into the master params,
    which the EMA shadow follows, and one cast then refreshes the float32
    params from them. The float32 model keeps the embeddings of the
    schedule's timesteps in one table (tabulate_timesteps), so a batch looks
    its timesteps up instead of computing their sines and cosines, with the
    same bits. The returned model and EMA shadow are float64.
    Non-finite inputs raise NumericalDomainError up front. The batches run
    under np.errstate(over="raise", invalid="raise"): an overflow or invalid
    value in a batch's loss, backward, update or cast, or a loss that goes
    non-finite, raises DivergenceError naming the batch, its loss trace
    ending in a non-finite entry, so no RuntimeWarning escapes. log_every >
    0 prints the mean loss of every log_every batches. The returned
    TrainResult holds one loss per batch and no embedder_info.
    """
    config.validate()
    check_int("log_every", log_every)
    x0s = np.asarray(x0s, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if x0s.ndim != 2 or ys.ndim != 2 or len(x0s) != len(ys):
        raise ShapeError("x0s and ys must be 2-D with matching row counts")
    if attrs is not None:
        attrs = np.asarray(attrs, dtype=np.float64)
        if attrs.ndim != 2 or len(attrs) != len(x0s):
            raise ShapeError("attrs must be 2-D with one row per sample")
    for name, arr in (("x0s", x0s), ("ys", ys), ("attrs", attrs)):
        if arr is not None:
            check_finite(name, arr)

    schedule = make_schedule(config.schedule, config.timesteps)
    model = ConditionalDenoiser(
        data_dim=x0s.shape[1],
        id_dim=ys.shape[1],
        hidden_dims=hidden_dims,
        time_embed_dim=time_embed_dim,
        attr_dim=None if attrs is None else attrs.shape[1],
        seed=config.seed,
    )
    net = ConditionalDenoiser(**model.topology(), seed=config.seed, params=model.params,
                              dtype=np.float32)
    net.tabulate_timesteps(schedule.n_steps)
    opt = Adam(net.grads, lr=config.learning_rate)
    ema = EmaParams(model.params, rate=config.ema_rate)

    rng = np.random.default_rng(config.seed)
    result = TrainResult(model, ema, schedule, config)
    with np.errstate(over="raise", invalid="raise"):
        for step in range(config.total_batches):
            idx = rng.integers(0, len(x0s), size=config.batch_size)
            loss = math.nan
            try:
                loss = training_loss(
                    net, x0s[idx], ys[idx], schedule, rng,
                    a_batch=None if attrs is None else attrs[idx],
                    dropout_prob=config.cond_dropout,
                )
                # The backstop where BLAS's own threads hide the overflow flag.
                if not math.isfinite(loss):
                    raise FloatingPointError
                opt.step(model.params, net.grads)
                net.set_params_flat(model.params)
            except FloatingPointError:
                # The batch's loss, or NaN where its loss or update faulted.
                last = math.nan if math.isfinite(loss) else loss
                raise DivergenceError(
                    f"training went non-finite at batch {step + 1}/{config.total_batches}",
                    result.loss_history + [last],
                ) from None
            ema.update(model.params)
            result.loss_history.append(loss)
            if log_every and (step + 1) % log_every == 0:
                recent = np.mean(result.loss_history[-log_every:])
                print(f"batch {step + 1}/{config.total_batches}  loss {recent:.5f}")
    model.freeze()
    return result


@dataclass(frozen=True)
class _SamplerPlan:
    """sample_batch's state for one (schedule, steps, variance mode), its
    key, kept on the frozen model it was built for (see sample_batch): all
    that sampling derives from the model. An unthresholded step's posterior
    mean coef_x0 * predict_x0(x, eps) + coef_xt * x is linear in (x, eps):
    x_coef * x + eps_coef * eps. tables, nulls and weights are
    model.step_tables' float64 request-branch tables, the null branch's
    float32 terms and the float32 weights the network runs."""

    key: tuple
    sub: NoiseSchedule
    sigmas: np.ndarray
    x_coef: np.ndarray
    eps_coef: np.ndarray
    tables: list
    nulls: list
    weights: tuple


def _sampler_plan(model, schedule: NoiseSchedule, steps: int, variance_mode: str) -> _SamplerPlan:
    """model.sampler_plan if these arguments are its key, the schedule
    compared bit for bit, else a new plan, which replaces it."""
    key = (steps, variance_mode, schedule.alpha_bars.tobytes(), schedule.timestep_map.tobytes())
    plan = model.sampler_plan
    if plan is not None and plan.key == key:
        return plan
    sub = respace(schedule, steps)
    root_bars = np.sqrt(sub.alpha_bars)
    null = (null_id_token(model.id_dim),
            None if model.attr_dim is None else null_attr_token(model.attr_dim))
    tables, nulls, weights = model.step_tables(sub.timestep_map, null)
    plan = model.sampler_plan = _SamplerPlan(
        key=key,
        sub=sub,
        sigmas=np.sqrt(sub.posterior_variances if variance_mode == "posterior" else sub.betas),
        x_coef=sub.coef_x0 / root_bars + sub.coef_xt,
        eps_coef=-sub.coef_x0 * np.sqrt(1.0 - sub.alpha_bars) / root_bars,
        tables=tables, nulls=nulls, weights=weights,
    )
    return plan


def sample_batch(model, y, schedule: NoiseSchedule, config: SampleConfig,
                 n: int, a=None) -> np.ndarray:
    """Draw n pre-images of y by running the guided reverse process.

    The model must be fitted, that is frozen: read-only, as train,
    load_checkpoint and ema_model() leave it, else StateError. A
    writable copy of m, to freeze() before it samples, is ConditionalDenoiser(
    **m.topology(), seed=m.seed, params=m.params); setting the store's
    writeable flag back on and editing it is outside the contract. y (and a,
    if given) may be a single vector shared by all rows or one row per
    sample; on an attribute-conditioned model, a None means no preference:
    the model's only other training input, the null attribute token. The
    inputs are validated here, once, before any draw: a non-finite y or a
    raises NumericalDomainError.

    What depends only on (model, schedule, steps, variance mode) is the
    model's sampler plan: the respaced schedule, sigma, the two folded
    coefficients of an unthresholded step, every hidden layer's float64
    timestep tables and float32 null-token terms over the plan's steps, and
    the network's float32 weights (model.step_tables, which writes nothing
    onto the model). It is built on the first request and kept on the model
    (model.sampler_plan), so repeated requests (other seeds, guidance
    scales or targets) skip respace and the tables. The model is frozen, so
    the plan serves while the schedule, steps and variance mode are equal;
    any other request builds a new plan, which replaces it. Sampling sets
    no other attribute of the model, so threads may sample one model at
    once.

    Per request, the request's condition is added to the tables, which a
    guidance scale of 1 takes alone and any other over the plan's null
    branch, and the sum is rounded once to float32 (model.condition_terms).
    Each reverse step is one cache-free float32 pass of the network for
    those branches together (model.denoise_step), block by block over the
    rows, the blocks split over nn.WORKERS lanes, in buffers the request
    reuses (model.workspace). The calling thread runs the first lane; a
    request of more than one lane opens a pool for the others
    (nn.lane_pool) and closes it before it returns or raises, so no thread
    outlives it. The state, the noise and the returned samples are float64:
    the network's first matmul rounds the state's rows to float32, and its
    output bias is added in float64. The calling thread alone draws the
    noise and combines, thresholds, updates and checks the state, in
    float64. A parameter or condition term that float32 cannot hold raises
    NumericalDomainError naming its layer, before any draw. The reverse
    steps run under np.errstate(over="raise", invalid="raise"), which
    nn.run_lanes passes to every lane: an activation float32 cannot hold
    raises NumericalDomainError naming its layer and reverse step, and an
    overflow or a non-finite state in the float64 tail raises SamplingError
    naming the step, so no RuntimeWarning escapes. A thresholded step goes
    through cfg_combine, predict_x0 and dynamic_threshold; an
    unthresholded one takes x_coef * x + eps_coef * eps. Deterministic for
    a fixed (model, y, a, config) including bitwise reproducibility of the
    result, whether or not a plan was kept. The float32 network moves
    samples from those of the model's float64 forward by about 1e-6 on the
    ring model.
    """
    if not model.fitted:
        raise StateError("model has not been fitted; train it, load a checkpoint or freeze it")
    cfg = config.resolved()
    check_int("n", n, 1)

    steps = cfg.respace_steps
    if steps is None:
        steps = max(1, schedule.n_steps // 4)
    # resolved() cannot see the schedule, so the upper bound is checked here.
    check_int("respace_steps", steps, 1, schedule.n_steps)

    y = shared_or_rows(y, model.id_dim, n, "y")
    if model.attr_dim is not None:
        a = shared_or_rows(null_attr_token(model.attr_dim) if a is None else a,
                           model.attr_dim, n, "a")
    elif a is not None:
        raise ConfigurationError("model was built without attribute conditioning")
    check_finite("y", y)
    if a is not None:
        check_finite("a", a)
    plan = _sampler_plan(model, schedule, steps, cfg.variance_mode)
    sub = plan.sub

    scale = cfg.guidance_scale
    branches = 1 if scale == 1.0 else 2
    terms = model.condition_terms(y, a, plan.tables, None if scale == 1.0 else plan.nulls)
    work = model.workspace(n, branches)
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((n, model.data_dim))
    try:
        with lane_pool(len(work[0])) as pool, np.errstate(over="raise", invalid="raise"):
            for i in range(sub.n_steps, 0, -1):
                eps = model.denoise_step(x, plan.weights, terms, i - 1, work, pool)
                eps_hat = eps[0] if scale == 1.0 else cfg_combine(eps[1], eps[0], scale)
                if cfg.threshold:
                    x0_hat = dynamic_threshold(predict_x0(x, eps_hat, i, sub))
                    x = sub.coef_x0[i - 1] * x0_hat + sub.coef_xt[i - 1] * x
                else:
                    x = plan.x_coef[i - 1] * x + plan.eps_coef[i - 1] * eps_hat
                if i > 1:
                    x += plan.sigmas[i - 1] * rng.standard_normal((n, model.data_dim))
                # The backstop where BLAS's own threads hide the overflow flag.
                if not np.isfinite(x).all():
                    raise FloatingPointError
    except FloatingPointError:
        raise SamplingError(
            f"non-finite state at reverse step {i} "
            f"(original step {sub.timestep_map[i - 1]}); aborting"
        ) from None
    return x


def sample(model, y, schedule: NoiseSchedule, config: SampleConfig, a=None) -> np.ndarray:
    """Draw a single pre-image of y; see sample_batch."""
    return sample_batch(model, y, schedule, config, 1, a=a)[0]
