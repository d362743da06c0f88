"""On-disk formats: binary checkpoints, CSV tables, and scatter SVGs.

All writes go through a temp-then-rename step so a crash never leaves a
half-written file at the target path. The checkpoint format is little-endian
throughout: magic "IDPM", a u32 version, u64 topology and descriptor counts,
then one f64 payload holding config floats, schedule betas, live parameters,
and finally the EMA parameters.
"""

from __future__ import annotations

import csv
import io
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .diffusion import NoiseSchedule, TrainConfig, TrainResult, schedule_from_betas
from .embedders import EmbedderInfo
from .errors import CheckpointFormatError, ConfigurationError, PreimageError, ShapeError
from .nn import ConditionalDenoiser, EmaParams, param_count

MAGIC = b"IDPM"
VERSION = 1

_SCHEDULE_CODES = {"cosine": 0, "linear": 1}
_SCHEDULE_NAMES = {v: k for k, v in _SCHEDULE_CODES.items()}

_MAX_DIM = 1 << 20
_MAX_HIDDEN = 64
_MAX_STEPS = 1 << 24
_MAX_NAME = 4096


def _atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class Checkpoint:
    """The live model, its EMA shadow, the training schedule, the embedder
    descriptor, and the training config: all that sampling needs. Resuming
    training bit for bit would also need the Adam moments, the step count and
    the training RNG state, which are not saved."""

    model: ConditionalDenoiser
    ema: EmaParams
    schedule: NoiseSchedule
    embedder_info: EmbedderInfo
    train_config: TrainConfig

    @classmethod
    def from_train_result(cls, result, embedder_info: EmbedderInfo) -> "Checkpoint":
        return cls(result.model, result.ema, result.schedule, embedder_info,
                   result.config)

    # Same model and ema fields as a TrainResult, so the same definition.
    ema_model = TrainResult.ema_model


def _check_finite(params, ema_flat) -> None:
    """Neither save nor load passes a model with a NaN or inf weight."""
    for field, vec in (("parameters", params), ("ema parameters", ema_flat)):
        if not np.isfinite(vec).all():
            raise CheckpointFormatError(f"{field} are not finite")


def _encode(ckpt: Checkpoint) -> bytes:
    model = ckpt.model
    cfg = ckpt.train_config
    if cfg.schedule not in _SCHEDULE_CODES:
        raise ConfigurationError(f"unknown schedule kind {cfg.schedule!r}")
    if ckpt.schedule.n_steps != cfg.timesteps:
        raise ConfigurationError(
            f"schedule has {ckpt.schedule.n_steps} steps but config says {cfg.timesteps}"
        )
    params = model.params
    ema_flat = ckpt.ema.shadow
    if ema_flat.shape != params.shape:
        raise ShapeError("EMA payload does not match the model's parameter count")
    _check_finite(params, ema_flat)

    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", VERSION)

    def u64(v: int) -> None:
        buf.extend(struct.pack("<Q", int(v)))

    topo = model.topology()
    u64(topo["data_dim"])
    u64(topo["id_dim"])
    u64(0 if topo["attr_dim"] is None else topo["attr_dim"])
    u64(topo["time_embed_dim"])
    u64(len(topo["hidden_dims"]))
    for h in topo["hidden_dims"]:
        u64(h)
    u64(ckpt.schedule.n_steps)
    u64(_SCHEDULE_CODES[cfg.schedule])

    name_bytes = ckpt.embedder_info.name.encode("utf-8")
    u64(len(name_bytes))
    buf += name_bytes
    u64(ckpt.embedder_info.input_dim)
    u64(ckpt.embedder_info.output_dim)
    u64(ckpt.embedder_info.seed)

    u64(cfg.total_batches)
    u64(cfg.batch_size)
    u64(cfg.seed)

    floats = np.concatenate([
        [cfg.cond_dropout, cfg.learning_rate, cfg.ema_rate],
        ckpt.schedule.betas,
        params,
        ema_flat,
    ])
    buf += np.asarray(floats, dtype="<f8").tobytes()
    return bytes(buf)


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Serialize a checkpoint; the write is atomic."""
    _atomic_write_bytes(path, _encode(ckpt))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int, field: str) -> bytes:
        if self.off + n > len(self.data):
            raise CheckpointFormatError(f"file truncated while reading {field}")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def u32(self, field: str) -> int:
        return struct.unpack("<I", self.take(4, field))[0]

    def u64(self, field: str, upper: int) -> int:
        v = struct.unpack("<Q", self.take(8, field))[0]
        if v > upper:
            raise CheckpointFormatError(f"{field} value {v} is out of range")
        return v

    def f64s(self, n: int, field: str) -> np.ndarray:
        raw = self.take(8 * n, field)
        return np.frombuffer(raw, dtype="<f8").copy()


def load_checkpoint(path: str) -> Checkpoint:
    """Parse a checkpoint file, validating layout and every count field."""
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    if r.take(4, "magic") != MAGIC:
        raise CheckpointFormatError("magic bytes do not spell IDPM")
    version = r.u32("version")
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported format version {version}")

    data_dim = r.u64("data_dim", _MAX_DIM)
    id_dim = r.u64("id_dim", _MAX_DIM)
    attr_dim = r.u64("attr_dim", _MAX_DIM)
    time_embed_dim = r.u64("time_embed_dim", _MAX_DIM)
    n_hidden = r.u64("n_hidden", _MAX_HIDDEN)
    hidden_dims = tuple(r.u64(f"hidden_dims[{i}]", _MAX_DIM) for i in range(n_hidden))
    n_steps = r.u64("n_steps", _MAX_STEPS)
    sched_code = r.u64("schedule_kind", max(_SCHEDULE_CODES.values()))
    if min(data_dim, id_dim, time_embed_dim, n_hidden, n_steps) < 1 or 0 in hidden_dims:
        raise CheckpointFormatError("topology contains a zero count")

    name_len = r.u64("embedder_name_len", _MAX_NAME)
    try:
        name = r.take(name_len, "embedder_name").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError("embedder_name is not valid UTF-8") from exc
    emb_in = r.u64("embedder_input_dim", _MAX_DIM)
    emb_out = r.u64("embedder_output_dim", _MAX_DIM)
    emb_seed = r.u64("embedder_seed", (1 << 64) - 1)

    total_batches = r.u64("total_batches", (1 << 48))
    batch_size = r.u64("batch_size", _MAX_DIM)
    train_seed = r.u64("train_seed", (1 << 64) - 1)

    topo = {"data_dim": data_dim, "id_dim": id_dim, "attr_dim": attr_dim or None,
            "time_embed_dim": time_embed_dim, "hidden_dims": hidden_dims}
    n_params = param_count(topo)
    expected = 8 * (3 + n_steps + 2 * n_params)
    remaining = len(data) - r.off
    if remaining != expected:
        raise CheckpointFormatError(
            f"payload length mismatch: expected {expected} bytes of floats "
            f"for this topology, found {remaining}"
        )
    cond_dropout, learning_rate, ema_rate = r.f64s(3, "config floats")
    betas = r.f64s(n_steps, "betas")
    params = r.f64s(n_params, "parameters")
    ema_flat = r.f64s(n_params, "ema parameters")
    _check_finite(params, ema_flat)

    try:
        schedule = schedule_from_betas(betas)
    except PreimageError as exc:
        raise CheckpointFormatError(f"betas are not a valid schedule: {exc}") from exc
    if not (0.0 <= ema_rate <= 1.0):
        raise CheckpointFormatError(f"ema_rate {ema_rate} is out of range")

    model = ConditionalDenoiser.from_topology(topo)
    model.set_params_flat(params)
    model.fitted = True
    ema = EmaParams(ema_flat, rate=ema_rate)

    train_config = TrainConfig(
        seed=train_seed,
        schedule=_SCHEDULE_NAMES[sched_code],
        timesteps=n_steps,
        cond_dropout=float(cond_dropout),
        batch_size=batch_size,
        learning_rate=float(learning_rate),
        ema_rate=float(ema_rate),
        total_batches=total_batches,
    )
    info = EmbedderInfo(name, emb_in, emb_out, emb_seed)
    return Checkpoint(model, ema, schedule, info, train_config)


# -- CSV tables --------------------------------------------------------------


def _format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: str, fieldnames, rows) -> None:
    """Write a CSV with a header row; floats use shortest round-trip repr
    with '.' as the decimal separator, so reading the file back recovers
    every value bit for bit."""
    fieldnames = list(fieldnames)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        row = list(row)
        if len(row) != len(fieldnames):
            raise ShapeError(
                f"row has {len(row)} cells but the header has {len(fieldnames)}"
            )
        writer.writerow([_format_cell(v) for v in row])
    _atomic_write_bytes(path, out.getvalue().encode("utf-8"))


def read_csv(path: str):
    """Header and raw string rows of a CSV written by write_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise CheckpointFormatError("csv file has no header row")
    return rows[0], rows[1:]


# -- scatter plots ------------------------------------------------------------


def write_scatter_svg(path: str, points, unit_circle: bool = False,
                      half_extent: float = 2.0, point_radius: float = 0.015) -> None:
    """Render 2-D points into a fixed-viewBox SVG scatter plot.

    The viewBox spans [-half_extent, half_extent] in both axes with y up.
    unit_circle overlays the r = 1 circle as a guide (useful whenever the
    embedding is a radius). Only d = 2 data is supported.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ShapeError(
            f"scatter plots are only supported for 2-D data, got shape {points.shape}"
        )
    if half_extent <= 0:
        raise ConfigurationError(f"half_extent must be positive, got {half_extent}")
    e = half_extent
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" '
        f'viewBox="{-e} {-e} {2 * e} {2 * e}">',
        f'<rect x="{-e}" y="{-e}" width="{2 * e}" height="{2 * e}" fill="white"/>',
        '<g transform="scale(1,-1)">',
    ]
    if unit_circle:
        parts.append(
            '<circle cx="0" cy="0" r="1" fill="none" stroke="#999" stroke-width="0.01"/>'
        )
    for x, y in points:
        parts.append(
            f'<circle cx="{x:.6g}" cy="{y:.6g}" r="{point_radius}" '
            f'fill="#1f77b4" fill-opacity="0.6"/>'
        )
    parts.append("</g></svg>")
    _atomic_write_bytes(path, "\n".join(parts).encode("utf-8"))
