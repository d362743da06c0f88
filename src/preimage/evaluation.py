"""Quality metrics and reference baselines for inversion results.

The two baselines matter as much as the metrics: rejection sampling gives
distributionally correct pre-images at any tolerance (however slowly), and
gradient descent through an embedder's Jacobian gives point estimates. The
diffusion sampler is judged against both.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .diffusion import SampleConfig, sample_batch
from .embedders import angles_over_pi
from .errors import (
    AcceptanceStarvationError,
    ConfigurationError,
    DivergenceError,
    ShapeError,
    check_finite,
    check_int,
)


# Rows per block of _distance_sum. At m = 2000 its two (32, m) buffers take
# 1 MiB of a core's 2 MiB L2 on the 2-vCPU Xeon, where 8 to 64 rows ran within
# 7 % of each other in 2-D, and at d = 64 16 or 32 rows took 0.59 s, 128 0.73 s.
# Each lane has its own pair, in its own core's L2.
DISTANCE_ROWS = 32


def _lane_count(rows: int) -> int:
    """W for a _distance_sum over rows rows of a: min(blocks, nn.WORKERS)."""
    return min(-(-rows // DISTANCE_ROWS), nn.WORKERS)


def _distance_sum(a: np.ndarray, b: np.ndarray, pool=None) -> float:
    """Sum of ||a_i - b_j|| over all row pairs of a (n, d) and b (m, d), d >= 1,
    DISTANCE_ROWS rows of a at a time, one coordinate at a time, in
    O(W * DISTANCE_ROWS * m) memory. Block j goes to lane j mod W, W =
    _lane_count(n), through nn.run_lanes; each lane has its own buffers and
    each block its own slot. The squares add in coordinate order, a block's
    distances by numpy's pairwise sum, and the caller adds the slots in
    block order, so every W gives the same bits. pool is a caller's
    nn.lane_pool of at least W lanes; None opens one for this sum."""
    a_cols, b_cols = a.T.copy(), b.T.copy()
    starts = range(0, len(a), DISTANCE_ROWS)
    lanes = _lane_count(len(a))
    sums = [0.0] * len(starts)

    def lane(w):
        acc_buf, sq_buf = np.empty((2, min(DISTANCE_ROWS, len(a)), len(b)))
        for j in range(w, len(starts), lanes):
            block = a_cols[:, starts[j]:starts[j] + DISTANCE_ROWS]
            acc, sq = acc_buf[:block.shape[1]], sq_buf[:block.shape[1]]
            np.square(np.subtract.outer(block[0], b_cols[0], out=acc), out=acc)
            for ak, bk in zip(block[1:], b_cols[1:]):
                acc += np.square(np.subtract.outer(ak, bk, out=sq), out=sq)
            sums[j] = float(np.sqrt(acc, out=acc).sum())

    with nn.lane_pool(lanes) if pool is None else nullcontext(pool) as pool:
        nn.run_lanes(lane, range(lanes), pool)
    total = 0.0
    for block_sum in sums:  # not sum(): Python 3.12 compensates a float sum
        total += block_sum
    return total


def identity_distances(samples, target_y, embedder, metric: str = "euclidean") -> np.ndarray:
    """(n,) distances between the embeddings of the samples and the target,
    Euclidean or angular (over pi); a target whose shape is not the
    embeddings' trailing shape is a ShapeError."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ShapeError("expected a nonempty (n, d) array of samples")
    target_y = np.asarray(target_y, dtype=np.float64)
    ys = embedder.embed(samples)
    if ys.ndim != 2 or ys.shape[1:] != target_y.shape:
        raise ShapeError(f"expected a target of shape {ys.shape[1:]}, got {target_y.shape}")
    if metric == "euclidean":
        return np.linalg.norm(ys - target_y, axis=1)
    if metric == "angular":
        return angles_over_pi(ys, target_y)
    raise ConfigurationError(f"unknown metric {metric!r}")


def identity_error(samples, target_y, embedder, metric: str = "euclidean") -> float:
    """Mean distance between the embeddings of the samples and the target."""
    return float(np.mean(identity_distances(samples, target_y, embedder, metric)))


def diversity(samples) -> float:
    """Mean Euclidean distance over all unordered pairs of samples: the
    _distance_sum over all ordered pairs, whose diagonal is exactly zero, over
    n (n - 1), in O(W * DISTANCE_ROWS * n) memory. Samples holding a NaN or an
    infinity are a NumericalDomainError."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2 or samples.shape[1] == 0:
        raise ShapeError("diversity needs at least two samples of dimension >= 1")
    check_finite("samples", samples)
    n = samples.shape[0]
    return _distance_sum(samples, samples) / (n * (n - 1))


@dataclass(frozen=True)
class SweepRow:
    """Metrics for one guidance scale, averaged over targets."""

    guidance_scale: float
    identity_error: float
    diversity: float
    n_samples: int


def cell_seed(base_seed: int, *cell: int) -> int:
    """Stable seed of one cell of a grid of requests (a sweep's scale and
    target, an interpolation's point), so cells draw independent streams."""
    check_int("seed", base_seed)
    return int(np.random.SeedSequence((base_seed, *cell)).generate_state(1)[0])


def guidance_sweep(model, schedule, embedder, targets, scales, n_per_target: int,
                   base_config: SampleConfig, attrs=None) -> list[SweepRow]:
    """Sample at each guidance scale and measure the fidelity/variety tradeoff.

    targets is an (m, k) array of target embeddings; each (scale, target)
    cell gets its own RNG stream derived from the base seed. identity_error
    and diversity are computed per target and averaged, so diversity measures
    within-target spread, not spread across targets.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    scales = list(scales)
    if not scales:
        raise ConfigurationError("at least one guidance scale is required")
    check_int("n_per_target", n_per_target, 2)  # diversity needs two samples
    rows = []
    for i, s in enumerate(scales):
        errs, divs = [], []
        for j, y in enumerate(targets):
            cfg = replace(base_config, seed=cell_seed(base_config.seed, i, j),
                          guidance_scale=float(s))
            a = None if attrs is None else np.asarray(attrs)[j]
            xs = sample_batch(model, y, schedule, cfg, n_per_target, a=a)
            errs.append(identity_error(xs, y, embedder))
            divs.append(diversity(xs))
        rows.append(SweepRow(float(s), float(np.mean(errs)), float(np.mean(divs)),
                             n_per_target * len(targets)))
    return rows


@dataclass(frozen=True)
class VerificationResult:
    """Best threshold found by exhaustive sweep and its accuracy."""

    threshold: float
    accuracy: float
    n_pairs: int


def verification_accuracy(pairs) -> VerificationResult:
    """Optimal same/different accuracy over all distance thresholds.

    pairs is an iterable of (distance, is_same). Candidate thresholds are the
    midpoints between consecutive sorted distances plus one sentinel below
    the minimum and one above the maximum, so the degenerate all-same and
    all-different classifiers are always in the running. A pair counts as
    "same" when its distance is strictly below the threshold. Ties prefer the
    smallest threshold.
    """
    pairs = list(pairs)
    if not pairs:
        raise ConfigurationError("at least one pair is required")
    dists = np.array([float(d) for d, _ in pairs])
    labels = np.array([bool(s) for _, s in pairs])
    uniq = np.unique(dists)
    candidates = np.concatenate((
        [uniq[0] - 1.0],
        (uniq[:-1] + uniq[1:]) / 2.0,
        [uniq[-1] + 1.0],
    ))
    # Sorting the distances makes the pairs called "same" at each candidate a
    # prefix, so the correct calls are cumulative counts; argmax takes the
    # first, smallest, of equally good thresholds.
    order = np.argsort(dists, kind="stable")
    below = np.searchsorted(dists[order], candidates)
    below[np.isnan(candidates)] = 0  # no distance is below a NaN cut
    same_below = np.concatenate(([0], np.cumsum(labels[order])))[below]
    correct = 2 * same_below - below + np.count_nonzero(~labels)
    best = int(np.argmax(correct))
    return VerificationResult(float(candidates[best]), int(correct[best]) / len(pairs),
                              len(pairs))


def rejection_oracle(embedder, target_y, epsilon: float, draw, n: int, rng,
                     max_draws: int = 1_000_000, batch_size: int = 4096) -> np.ndarray:
    """Exact pre-image sampling by rejection.

    Draws candidates with draw(rng, count) and keeps those whose embedding
    lies within Euclidean epsilon of the target, until n are kept or the draw
    budget is exhausted. Raises a starvation diagnostic (with the observed
    acceptance rate) if nothing at all is kept; a nonempty partial result is
    returned as-is. A draw that returns another number of rows than count
    is a ShapeError.
    """
    if not epsilon >= 0:
        raise ConfigurationError(f"epsilon must be nonnegative, got {epsilon}")
    for name, value in (("n", n), ("batch_size", batch_size), ("max_draws", max_draws)):
        check_int(name, value, 1)
    kept = []
    n_kept = 0
    drawn = 0
    while n_kept < n and drawn < max_draws:
        count = min(batch_size, max_draws - drawn)
        xs = np.asarray(draw(rng, count), dtype=np.float64)
        if xs.shape[:1] != (count,):
            raise ShapeError(f"draw(rng, {count}) must return {count} rows, "
                             f"got {len(xs) if xs.ndim else 0}")
        drawn += count
        ok = identity_distances(xs, target_y, embedder) <= epsilon
        if ok.any():
            kept.append(xs[ok])
            n_kept += int(ok.sum())
    if n_kept == 0:
        raise AcceptanceStarvationError(
            f"no draw of {drawn} fell within {epsilon} of the target "
            f"(acceptance rate 0.0)",
            acceptance_rate=0.0,
            n_draws=drawn,
        )
    return np.concatenate(kept)[:n]


@dataclass(frozen=True)
class InversionResult:
    """Endpoint of a gradient-descent inversion run."""

    x: np.ndarray
    loss_trace: np.ndarray
    converged: bool
    n_steps: int


DIVERGENCE_WINDOW = 100


def whitebox_gd_invert(embedder, target_y, x_init, step_size: float = 0.1,
                       max_steps: int = 1000, tol: float = 1e-6) -> InversionResult:
    """Minimize 0.5 ||y - f(x)||^2 by explicit gradient descent.

    Requires the embedder to expose embed_grad. Convergence is declared when
    the embedding residual norm drops below tol; a loss that increases for
    DIVERGENCE_WINDOW consecutive steps raises a divergence diagnostic
    carrying the loss trace.
    """
    embed, embed_grad = embedder.embed, getattr(embedder, "embed_grad", None)
    if embed_grad is None:
        raise ConfigurationError("white-box inversion needs an embedder with embed_grad")
    # Written so that NaN fails too: a NaN step runs every step into NaN and
    # a NaN tol never reports convergence.
    if not step_size > 0:
        raise ConfigurationError(f"step_size must be positive, got {step_size}")
    if not tol > 0:
        raise ConfigurationError(f"tol must be positive, got {tol}")
    # A NaN or infinite budget on an unreachable target would never stop.
    check_int("max_steps", max_steps)
    target_y = np.asarray(target_y, dtype=np.float64)
    x = np.array(x_init, dtype=np.float64)
    # A NaN loss never rises, so a non-finite start or target would run every step.
    check_finite("x_init", x)
    check_finite("target_y", target_y)
    y = embed(x)
    if y.shape != target_y.shape:
        raise ShapeError(f"expected a target of shape {y.shape}, got {target_y.shape}")
    trace = []
    prev = math.inf
    rising = 0
    steps_taken = 0
    while True:
        resid = target_y - y
        sq_norm = float(resid.dot(resid))
        loss = 0.5 * sq_norm
        trace.append(loss)
        converged = math.sqrt(sq_norm) < tol
        if converged or steps_taken >= max_steps:
            break
        rising = rising + 1 if loss > prev else 0
        if rising >= DIVERGENCE_WINDOW:
            raise DivergenceError(f"loss rose for {rising} consecutive steps; diverging", trace)
        prev = loss
        step = embed_grad(x).T.dot(resid)
        step *= step_size
        x = x + step
        steps_taken += 1
        y = embed(x)
    return InversionResult(x, np.array(trace), bool(converged), steps_taken)


def energy_distance(batch_a, batch_b) -> float:
    """Energy distance 2 E||a-b|| - E||a-a'|| - E||b-b'|| between two (n, d)
    and (m, d) sample batches, with the expectations taken over all index
    pairs including the diagonal (V-statistics). Each term is a _distance_sum
    through the same code path, in O(W * DISTANCE_ROWS * max(n, m)) memory,
    so identical batches give exactly zero; the three share one lane pool. A
    batch holding a NaN or an infinity is a NumericalDomainError that names
    it.
    """
    a = np.asarray(batch_a, dtype=np.float64)
    b = np.asarray(batch_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or 0 in a.shape or 0 in b.shape:
        raise ShapeError("expected two nonempty (n, d) batches")
    if a.shape[1] != b.shape[1]:
        raise ShapeError("batches must share a dimension")
    # Before any distance block runs.
    check_finite("batch_a", a)
    check_finite("batch_b", b)
    n, m = a.shape[0], b.shape[0]
    with nn.lane_pool(_lane_count(max(n, m))) as pool:
        return (2.0 * _distance_sum(a, b, pool) / (n * m) - _distance_sum(a, a, pool) / (n * n)
                - _distance_sum(b, b, pool) / (m * m))
