"""Geometry in embedding space: interpolation, principal axes, and
semantic directions built from labeled groups of embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalDomainError, ShapeError, check_finite, check_int

PROVENANCES = ("binary-split", "percentile-split", "pca-axis")
PARALLEL_EPS = 1e-6


@dataclass(frozen=True)
class Direction:
    """A unit vector in embedding space with a human-readable label and a
    record of how it was derived."""

    vector: np.ndarray
    label: str
    provenance: str

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.float64)
        if vec.ndim != 1:
            raise ShapeError(f"direction must be 1-D, got shape {vec.shape}")
        if not abs(np.linalg.norm(vec) - 1.0) <= 1e-12:  # NaN fails too
            raise ConfigurationError("direction vector must have unit norm")
        if self.provenance not in PROVENANCES:
            raise ConfigurationError(
                f"provenance must be one of {PROVENANCES}, got {self.provenance!r}"
            )
        object.__setattr__(self, "vector", vec)


@dataclass(frozen=True)
class PcaBasis:
    """Orthonormal principal axes (rows) with their variances, plus the mean
    they were centered on."""

    mean: np.ndarray
    axes: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n_axes(self) -> int:
        return self.axes.shape[0]


def lerp(y1, y2, tau: float) -> np.ndarray:
    """Straight-line interpolation (1 - tau) y1 + tau y2."""
    y1 = np.asarray(y1, dtype=np.float64)
    y2 = np.asarray(y2, dtype=np.float64)
    if y1.shape != y2.shape:
        raise ShapeError("endpoints must have the same shape")
    return (1.0 - tau) * y1 + tau * y2


def slerp(y1, y2, tau: float) -> np.ndarray:
    """Spherical interpolation along the great arc between y1 and y2.

    Falls back to lerp when the endpoints are within angle PARALLEL_EPS of
    each other (the spherical formula degrades to 0/0 there). Antiparallel
    endpoints leave the arc undefined and are rejected, and so are endpoints
    that hold a NaN or an infinity, or whose norms or dot product float64
    cannot hold.
    """
    y1 = np.asarray(y1, dtype=np.float64)
    y2 = np.asarray(y2, dtype=np.float64)
    if y1.shape != y2.shape or y1.ndim != 1:
        raise ShapeError("endpoints must be 1-D vectors of equal length")
    check_finite("y1", y1)
    check_finite("y2", y2)
    try:
        with np.errstate(over="raise", invalid="raise"):
            n1 = np.linalg.norm(y1)
            n2 = np.linalg.norm(y2)
            if n1 == 0.0 or n2 == 0.0:
                raise NumericalDomainError("slerp is undefined for zero vectors")
            cos = np.clip(np.dot(y1, y2) / (n1 * n2), -1.0, 1.0)
    except FloatingPointError:
        raise NumericalDomainError("slerp: the endpoints' norms lie beyond float64's "
                                   "range") from None
    omega = np.arccos(cos)
    if omega < PARALLEL_EPS:
        return lerp(y1, y2, tau)
    if omega > np.pi - PARALLEL_EPS:
        raise NumericalDomainError("antiparallel endpoints admit no unique arc")
    sin_omega = np.sin(omega)
    return (np.sin((1.0 - tau) * omega) * y1 + np.sin(tau * omega) * y2) / sin_omega


def fit_pca(ys) -> PcaBasis:
    """Principal axes of a batch of embeddings.

    Uses the sample covariance (ddof 1) so the eigenvalues equal the variance
    of the data projected onto each axis. Axes are ordered by descending
    eigenvalue; each axis's sign is fixed so that its largest-magnitude
    coordinate is positive, making the basis deterministic. A NaN or an
    infinity in ys raises NumericalDomainError.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2:
        raise ShapeError(f"expected an (n, k) array, got shape {ys.shape}")
    check_finite("ys", ys)
    if ys.shape[0] < 2:
        raise ConfigurationError("pca needs at least 2 samples")
    mean = ys.mean(axis=0)
    centered = ys - mean
    cov = centered.T @ centered / (ys.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    axes = eigvecs[:, order].T
    for i in range(axes.shape[0]):
        j = np.argmax(np.abs(axes[i]))
        if axes[i, j] < 0:
            axes[i] = -axes[i]
    return PcaBasis(mean=mean, axes=axes, eigenvalues=eigvals)


def project_first_k(y, basis: PcaBasis, n: int) -> np.ndarray:
    """Project y onto the span of the first n principal axes (about the mean).

    n = 0 collapses everything to the mean; n = k reconstructs y exactly.
    """
    check_int("n", n, 0, basis.n_axes)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != basis.mean.shape:
        raise ShapeError(f"expected shape {basis.mean.shape}, got {y.shape}")
    if n == 0:
        return basis.mean.copy()
    axes = basis.axes[:n]
    coords = axes @ (y - basis.mean)
    return basis.mean + coords @ axes


def custom_direction(group_a, group_b, label: str = "custom",
                     provenance: str = "binary-split") -> Direction:
    """Unit direction from the mean embedding of group_a to that of group_b;
    a NaN or an infinity in either group raises NumericalDomainError."""
    group_a = np.asarray(group_a, dtype=np.float64)
    group_b = np.asarray(group_b, dtype=np.float64)
    if group_a.ndim != 2 or group_b.ndim != 2 or group_a.shape[1] != group_b.shape[1]:
        raise ShapeError("groups must be (n, k) arrays over the same embedding space")
    check_finite("group_a", group_a)
    check_finite("group_b", group_b)
    if group_a.shape[0] == 0 or group_b.shape[0] == 0:
        raise ConfigurationError("both groups must be nonempty")
    diff = group_b.mean(axis=0) - group_a.mean(axis=0)
    norm = np.linalg.norm(diff)
    if norm == 0.0:
        raise NumericalDomainError("groups share a mean; the direction is undefined")
    return Direction(vector=diff / norm, label=label, provenance=provenance)


def percentile_split(values):
    """Masks of the low and high groups of a 1-D feature column.

    A feature taking exactly two distinct values is treated as binary and
    split directly into its two groups (low value first). Otherwise the
    groups are the entries at or below the 10th percentile and at or above
    the 90th percentile of the values, with percentiles computed by linear
    interpolation.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ConfigurationError(f"expected a nonempty 1-D column, got shape {values.shape}")
    distinct = np.unique(values)
    if len(distinct) < 2:
        raise ConfigurationError("the feature is constant; no split exists")
    if len(distinct) == 2:
        return values == distinct[0], values == distinct[1]
    return values <= np.percentile(values, 10.0), values >= np.percentile(values, 90.0)


def traverse(y, direction: Direction, alpha: float, corpus_norm: float) -> np.ndarray:
    """Move y along a direction by alpha steps of the corpus's typical
    embedding magnitude, so step sizes are comparable across embedders."""
    if not corpus_norm > 0.0:  # NaN fails too
        raise ConfigurationError(f"corpus_norm must be positive, got {corpus_norm}")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != direction.vector.shape:
        raise ShapeError("y and direction live in different spaces")
    return y + alpha * corpus_norm * direction.vector


def mean_norm(ys) -> float:
    """Mean L2 norm of a batch of embeddings; the corpus_norm for traverse."""
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2 or ys.shape[0] == 0:
        raise ShapeError("expected a nonempty (n, k) array")
    return float(np.linalg.norm(ys, axis=1).mean())
