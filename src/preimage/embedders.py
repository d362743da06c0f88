"""Black-box embedding functions and labeled dataset generation.

An embedder maps data points x to embeddings y = f(x). The diffusion model
only ever queries f through embed(); embed_grad() exists on the embedders
that admit an analytic Jacobian and powers the white-box baseline.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, NumericalDomainError, ShapeError, check_int, check_section


@dataclass(frozen=True)
class EmbedderInfo:
    """Serializable descriptor: enough to rebuild the embedder."""

    name: str
    input_dim: int
    output_dim: int
    seed: int = 0


class RadiusEmbedder:
    """f(x) = ||x||, the Euclidean norm as a 1-D embedding.

    Every sphere of radius r is an exact pre-image set, which makes this the
    reference task: the conditional distribution given y = r is known in
    closed form.
    """

    def __init__(self, input_dim: int):
        self.input_dim = check_int("input_dim", input_dim, 1)
        self.output_dim = 1

    @property
    def info(self) -> EmbedderInfo:
        return EmbedderInfo("radius", self.input_dim, 1)

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise ShapeError(f"expected trailing dim {self.input_dim}, got shape {x.shape}")
        return x

    def embed(self, x) -> np.ndarray:
        # np.linalg.norm's own formula for a row norm, without its dispatch.
        x = self._check(x)
        return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))

    def embed_grad(self, x) -> np.ndarray:
        """Jacobian x / ||x||, shape (1, d). Undefined at the origin."""
        x = self._check(x)
        if x.ndim != 1:
            raise ShapeError("embed_grad expects a single point")
        norm = math.sqrt(x.dot(x))  # what np.linalg.norm runs for a vector
        if norm == 0.0:
            raise NumericalDomainError("gradient of the norm is undefined at the origin")
        return (x / norm)[None, :]


class FrozenMlpEmbedder:
    """A fixed randomly initialized two-layer network, output L2-normalized.

    Stands in for a pretrained recognition network: deterministic, opaque,
    and with unit-norm embeddings. No analytic gradient is exposed.
    """

    HIDDEN = 32

    def __init__(self, input_dim: int, output_dim: int, seed: int = 0):
        self.input_dim = check_int("input_dim", input_dim, 1)
        self.output_dim = check_int("output_dim", output_dim, 1)
        self.seed = check_int("seed", seed)
        rng = np.random.default_rng(seed)
        self._w1 = rng.normal(scale=1.0 / np.sqrt(input_dim), size=(self.HIDDEN, input_dim))
        self._b1 = rng.normal(scale=0.1, size=self.HIDDEN)
        self._w2 = rng.normal(scale=1.0 / np.sqrt(self.HIDDEN), size=(output_dim, self.HIDDEN))
        self._b2 = rng.normal(scale=0.1, size=output_dim)

    @property
    def info(self) -> EmbedderInfo:
        return EmbedderInfo("frozen-mlp", self.input_dim, self.output_dim, self.seed)

    def embed(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise ShapeError(f"expected trailing dim {self.input_dim}, got shape {x.shape}")
        h = np.tanh(x @ self._w1.T + self._b1)
        raw = h @ self._w2.T + self._b2
        norm = np.linalg.norm(raw, axis=-1, keepdims=True)
        if np.any(norm == 0.0):
            raise NumericalDomainError("raw embedding collapsed to zero; cannot normalize")
        return raw / norm


class LinearEmbedder:
    """f(x) = A x with the constant Jacobian A."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ShapeError(f"matrix must be 2-D, got shape {matrix.shape}")
        self.matrix = matrix
        self.output_dim, self.input_dim = matrix.shape
        self.seed = 0

    @classmethod
    def from_seed(cls, input_dim: int, output_dim: int, seed: int = 0) -> "LinearEmbedder":
        check_int("input_dim", input_dim, 1)
        check_int("output_dim", output_dim, 1)
        rng = np.random.default_rng(check_int("seed", seed))
        emb = cls(rng.normal(scale=1.0 / np.sqrt(input_dim), size=(output_dim, input_dim)))
        emb.seed = seed
        return emb

    @property
    def info(self) -> EmbedderInfo:
        return EmbedderInfo("linear", self.input_dim, self.output_dim, self.seed)

    def embed(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise ShapeError(f"expected trailing dim {self.input_dim}, got shape {x.shape}")
        return x @ self.matrix.T

    def embed_grad(self, x) -> np.ndarray:
        return self.matrix.copy()


def make_embedder(info: EmbedderInfo):
    """Rebuild an embedder from its descriptor."""
    if info.name == "radius":
        if info.output_dim != 1:
            raise ConfigurationError("the radius embedder has output_dim 1")
        return RadiusEmbedder(info.input_dim)
    if info.name == "frozen-mlp":
        return FrozenMlpEmbedder(info.input_dim, info.output_dim, info.seed)
    if info.name == "linear":
        return LinearEmbedder.from_seed(info.input_dim, info.output_dim, info.seed)
    raise ConfigurationError(f"unknown embedder {info.name!r}")


# -- labeled datasets ------------------------------------------------------


@dataclass(frozen=True)
class DatasetSpec:
    """What to draw, how much of it, and which factor to expose as attribute.

    distribution is one of "annulus", "gaussian-mixture", or
    "clustered-identities". attribute names a metadata key to export as the
    conditioning attribute a; None disables attribute conditioning. params
    holds the distribution's knobs, each of the kind _PARAMS gives it; a knob
    left out takes its default. check_params refuses anything else, and
    draw_points and generate_dataset call it before they draw.
    """

    distribution: str
    input_dim: int
    n_samples: int
    seed: int
    attribute: Optional[str] = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Dataset:
    """A labeled corpus as columns: the points x (n, d), their embeddings
    y (n, k), the conditioning attribute a (n, m) or None, and metadata, the
    generative factors as named (n,) float columns."""

    x: np.ndarray
    y: np.ndarray
    a: Optional[np.ndarray]
    metadata: dict


def _draw_annulus(spec: DatasetSpec, rng, n: int) -> tuple[np.ndarray, dict]:
    if spec.input_dim != 2:
        raise ConfigurationError("the annulus distribution is two-dimensional")
    r_min = spec.params.get("r_min", 0.5)
    r_max = spec.params.get("r_max", 1.5)
    if not (0.0 <= r_min < r_max):
        raise ConfigurationError(f"need 0 <= r_min < r_max, got [{r_min}, {r_max}]")
    radii = rng.uniform(r_min, r_max, size=n)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    xs = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    meta = {
        "radius": radii,
        "angle": np.arctan2(xs[:, 1], xs[:, 0]),
        "upper": (xs[:, 1] > 0).astype(np.float64),
    }
    return xs, meta


def _draw_gaussian_mixture(spec: DatasetSpec, rng, n: int) -> tuple[np.ndarray, dict]:
    k = spec.params.get("n_components", 4)
    spread = spec.params.get("spread", 2.0)
    comp_std = spec.params.get("component_std", 0.5)
    centers = rng.normal(scale=spread, size=(k, spec.input_dim))
    comp = rng.integers(0, k, size=n)
    xs = centers[comp] + comp_std * rng.standard_normal((n, spec.input_dim))
    return xs, {"component": comp.astype(np.float64)}


def _draw_clustered_identities(spec: DatasetSpec, rng, n: int) -> tuple[np.ndarray, dict]:
    k = spec.params.get("n_identities", 10)
    cluster_std = spec.params.get("cluster_std", 0.1)
    center_scale = spec.params.get("center_scale", 1.0)
    centers = center_scale * rng.standard_normal((k, spec.input_dim))
    ident = rng.integers(0, k, size=n)
    xs = centers[ident] + cluster_std * rng.standard_normal((n, spec.input_dim))
    return xs, {"identity": ident.astype(np.float64)}


_DISTRIBUTIONS = {
    "annulus": _draw_annulus,
    "gaussian-mixture": _draw_gaussian_mixture,
    "clustered-identities": _draw_clustered_identities,
}

# The knobs of each distribution's params and the kind of each
# (errors.check_section): "scale" is a finite number >= 0, "finite" any
# finite number and "int" a positive integer.
_PARAMS = {
    "annulus": {"r_min": "scale", "r_max": "scale"},
    "gaussian-mixture": {"n_components": "int", "spread": "scale", "component_std": "scale"},
    "clustered-identities": {"n_identities": "int", "cluster_std": "scale",
                             "center_scale": "finite"},
}


def check_params(spec: DatasetSpec) -> None:
    """A ConfigurationError unless spec.distribution is known and every knob
    of spec.params is one of its own, of its kind."""
    if spec.distribution not in _DISTRIBUTIONS:
        raise ConfigurationError(f"unknown distribution {spec.distribution!r}")
    check_section(spec.params, f"{spec.distribution} params", _PARAMS[spec.distribution])


@contextmanager
def _within_float64(spec: DatasetSpec):
    """Runs its block under np.errstate(over="raise", invalid="raise"). A
    FloatingPointError in it, numpy's or the block's own, means the params
    draw beyond float64's range: a ConfigurationError, with no RuntimeWarning."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ConfigurationError(f"dataset params {spec.params} draw points or embeddings "
                                 f"beyond float64's range") from None


def _finite(array: np.ndarray) -> np.ndarray:
    """array, or a FloatingPointError if it holds a NaN or an infinity."""
    if not np.isfinite(array).all():
        raise FloatingPointError
    return array


def _draw(spec: DatasetSpec, rng, n: int) -> tuple[np.ndarray, dict]:
    """The points and metadata of n draws, the params checked before any
    draw; points beyond float64's range are a ConfigurationError."""
    check_params(spec)
    with _within_float64(spec):
        xs, meta = _DISTRIBUTIONS[spec.distribution](spec, rng, n)
        return _finite(xs), meta


def draw_points(spec: DatasetSpec, rng, n: int) -> np.ndarray:
    """Draw n unlabeled input points from spec.distribution. Params that
    check_params refuses, or that draw points beyond float64's range, are a
    ConfigurationError."""
    check_int("n", n)
    return _draw(spec, rng, n)[0]


def generate_dataset(spec: DatasetSpec, embedder) -> Dataset:
    """Draw points, embed them, and attach metadata.

    The stored y is exactly embed(x), bit for bit, and a is the metadata
    column that spec.attribute names. A fixed seed reproduces the dataset
    exactly. Params that check_params refuses are a ConfigurationError before
    any draw, and so are, after it, points or embeddings beyond float64's
    range.
    """
    check_int("n_samples", spec.n_samples, 1)
    check_int("seed", spec.seed)
    if embedder.input_dim != spec.input_dim:
        raise ConfigurationError(
            f"embedder expects input_dim {embedder.input_dim}, spec has {spec.input_dim}"
        )
    xs, meta = _draw(spec, np.random.default_rng(spec.seed), spec.n_samples)
    a = None
    if spec.attribute is not None:
        if spec.attribute not in meta:
            raise ConfigurationError(
                f"attribute {spec.attribute!r} is not a metadata key of "
                f"{spec.distribution!r}"
            )
        a = meta[spec.attribute][:, None]
    with _within_float64(spec):
        return Dataset(xs, _finite(embedder.embed(xs)), a, meta)


def stack_samples(ds: Dataset) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The (X, Y, A) arrays of a dataset; A is None without an attribute."""
    return ds.x, ds.y, ds.a


# -- embedding-space distances ---------------------------------------------


def angles_over_pi(u, v) -> np.ndarray:
    """Angles between u and v along the last axis, in units of pi.

    2 atan2(|u' - v'|, |u' + v'|) / pi on the unit vectors u' and v'. Unlike
    arccos of the cosine, whose slope is unbounded at 1, this is well
    conditioned at every angle: a vector along the other reads 0 to within
    the rounding of its unit vector, and identical, orthogonal and opposite
    axis vectors read exactly 0, 0.5 and 1. Zero vectors have no direction
    and are rejected.
    """
    nu = np.linalg.norm(u, axis=-1, keepdims=True)
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    if not (nu.all() and nv.all()):
        raise NumericalDomainError("angular distance is undefined for zero vectors")
    u, v = u / nu, v / nv
    return 2.0 * np.arctan2(np.linalg.norm(u - v, axis=-1), np.linalg.norm(u + v, axis=-1)) / np.pi


def angular_distance(y1, y2) -> float:
    """Angle between embeddings in units of pi: angles_over_pi of the two
    vectors, so the result lies in [0, 1]."""
    y1 = np.asarray(y1, dtype=np.float64)
    y2 = np.asarray(y2, dtype=np.float64)
    if y1.shape != y2.shape or y1.ndim != 1:
        raise ShapeError("expected two 1-D vectors of equal length")
    return float(angles_over_pi(y1, y2))
