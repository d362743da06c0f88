"""On-disk formats: binary checkpoints, CSV tables, and scatter SVGs.

All writes go through a temp-then-rename step so a crash never leaves a
half-written file at the target path. The checkpoint format is little-endian
throughout: magic "IDPM", a u32 version, u64 topology and descriptor counts,
then one f64 payload holding config floats, schedule betas, live parameters,
and finally the EMA parameters.

Neither direction copies the payload. save_checkpoint builds only the header,
config floats and betas in memory, then streams the model's parameters and
EMA shadow into the file from their own arrays. load_checkpoint reads the
header, checks the file's length against the payload it implies, then reads
the payload once; the float sections are views of that one buffer until the
model, the EMA shadow and the schedule copy them out.
"""

from __future__ import annotations

import csv
import io
import os
import struct
import tempfile

import numpy as np

from .diffusion import TrainConfig, TrainResult, schedule_from_betas
from .embedders import EmbedderInfo, make_embedder
from .errors import CheckpointFormatError, ConfigurationError, PreimageError, ShapeError
from .nn import ConditionalDenoiser, EmaParams, param_count

MAGIC = b"IDPM"
VERSION = 1

_SCHEDULE_CODES = {"cosine": 0, "linear": 1}
_SCHEDULE_NAMES = {v: k for k, v in _SCHEDULE_CODES.items()}

# The largest value of each u64 header field, hidden_dims[i] under
# "hidden_dims"; save_checkpoint and load_checkpoint both refuse a larger one.
_MAX_DIM, _MAX_U64 = 1 << 20, (1 << 64) - 1
_BOUNDS = {
    "data_dim": _MAX_DIM, "id_dim": _MAX_DIM, "attr_dim": _MAX_DIM, "time_embed_dim": _MAX_DIM,
    "n_hidden": 64, "hidden_dims": _MAX_DIM, "n_steps": 1 << 24,
    "schedule_kind": max(_SCHEDULE_CODES.values()), "embedder_name_len": 4096,
    "embedder_input_dim": _MAX_DIM, "embedder_output_dim": _MAX_DIM,
    "embedder_seed": _MAX_U64, "total_batches": 1 << 48, "batch_size": _MAX_DIM,
    "train_seed": _MAX_U64,
}


def _in_bounds(field: str, v: int) -> int:
    """v, if it lies in [0, the field's bound]."""
    if not 0 <= v <= _BOUNDS[field.split("[")[0]]:
        raise CheckpointFormatError(f"{field} value {v} is out of range")
    return v


def _atomic_write_bytes(path: str, *chunks) -> None:
    """Write the chunks (bytes-like objects, numpy arrays included) in order
    to a temp file beside path, then rename it over path. Each chunk goes to
    the file as it is, so nothing joins them in memory; if any write fails,
    the temp file is removed and path keeps what it held."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The record's old name, kept for callers that still spell it so.
Checkpoint = TrainResult


def _check_finite(params, ema_flat) -> None:
    """Neither save nor load passes a model with a NaN or inf weight."""
    for field, vec in (("parameters", params), ("ema parameters", ema_flat)):
        if not np.isfinite(vec).all():
            raise CheckpointFormatError(f"{field} are not finite")


def _check_embedder(info: EmbedderInfo, topo: dict) -> None:
    """Neither save nor load pairs a model with an embedder of other dimensions."""
    for field, dim in (("input_dim", "data_dim"), ("output_dim", "id_dim")):
        if getattr(info, field) != topo[dim]:
            raise CheckpointFormatError(f"embedder_{field} {getattr(info, field)} differs "
                                        f"from the model's {dim} {topo[dim]}")


def save_checkpoint(path: str, result: TrainResult) -> None:
    """Serialize a training record; the write is atomic, and nothing is
    written unless load_checkpoint would read it back: a record without
    embedder_info, an invalid training config or an embedder descriptor
    make_embedder refuses raises ConfigurationError. The loss history is not
    saved."""
    if result.embedder_info is None:
        raise ConfigurationError("embedder_info is None: a checkpoint needs the descriptor "
                                 "of the embedder that labelled the training data")
    model = result.model
    cfg = result.config
    cfg.validate()
    if result.schedule.n_steps != cfg.timesteps:
        raise ConfigurationError(
            f"schedule has {result.schedule.n_steps} steps but config says {cfg.timesteps}"
        )
    params = model.params
    ema_flat = result.ema.shadow
    if ema_flat.shape != params.shape:
        raise ShapeError("EMA payload does not match the model's parameter count")
    _check_finite(params, ema_flat)
    topo = model.topology()
    _check_embedder(result.embedder_info, topo)

    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", VERSION)

    def u64(field: str, v: int) -> None:
        buf.extend(struct.pack("<Q", _in_bounds(field, int(v))))

    u64("data_dim", topo["data_dim"])
    u64("id_dim", topo["id_dim"])
    u64("attr_dim", 0 if topo["attr_dim"] is None else topo["attr_dim"])
    u64("time_embed_dim", topo["time_embed_dim"])
    u64("n_hidden", len(topo["hidden_dims"]))
    for i, h in enumerate(topo["hidden_dims"]):
        u64(f"hidden_dims[{i}]", h)
    u64("n_steps", result.schedule.n_steps)
    u64("schedule_kind", _SCHEDULE_CODES[cfg.schedule])

    name_bytes = result.embedder_info.name.encode("utf-8")
    u64("embedder_name_len", len(name_bytes))
    buf += name_bytes
    u64("embedder_input_dim", result.embedder_info.input_dim)
    u64("embedder_output_dim", result.embedder_info.output_dim)
    u64("embedder_seed", result.embedder_info.seed)

    u64("total_batches", cfg.total_batches)
    u64("batch_size", cfg.batch_size)
    u64("train_seed", cfg.seed)
    make_embedder(result.embedder_info)  # after the header's bounds, as load_checkpoint

    buf += struct.pack("<3d", cfg.cond_dropout, cfg.learning_rate, cfg.ema_rate)
    buf += np.asarray(result.schedule.betas, dtype="<f8").tobytes()
    _atomic_write_bytes(path, buf, *(np.ascontiguousarray(v, dtype="<f8")
                                     for v in (params, ema_flat)))


class _Reader:
    """Reads a checkpoint's header fields from an open file, in order."""

    def __init__(self, fh):
        self.fh = fh

    def take(self, n: int, field: str) -> bytes:
        out = self.fh.read(n)
        if len(out) < n:
            raise CheckpointFormatError(f"file truncated while reading {field}")
        return out

    def u32(self, field: str) -> int:
        return struct.unpack("<I", self.take(4, field))[0]

    def u64(self, field: str) -> int:
        return _in_bounds(field, struct.unpack("<Q", self.take(8, field))[0])


def load_checkpoint(path: str) -> TrainResult:
    """Parse a checkpoint file into a training record: the frozen model, the
    EMA shadow at the file's rate, the schedule, the training config and the
    embedder descriptor. v1 stores no loss history, so loss_history is
    empty; nor does it store Adam's moments, the step count or the training
    RNG state, so the record can be sampled but not resumed.

    Layout and every count field are validated; a training config
    TrainConfig.validate refuses, an embedder descriptor make_embedder
    refuses or a topology the model refuses is a format error. A file whose
    length differs from what its header implies is refused before its
    payload is read."""
    with open(path, "rb") as fh:
        r = _Reader(fh)
        if r.take(4, "magic") != MAGIC:
            raise CheckpointFormatError("magic bytes do not spell IDPM")
        version = r.u32("version")
        if version != VERSION:
            raise CheckpointFormatError(f"unsupported format version {version}")

        data_dim = r.u64("data_dim")
        id_dim = r.u64("id_dim")
        attr_dim = r.u64("attr_dim")
        time_embed_dim = r.u64("time_embed_dim")
        n_hidden = r.u64("n_hidden")
        hidden_dims = tuple(r.u64(f"hidden_dims[{i}]") for i in range(n_hidden))
        n_steps = r.u64("n_steps")
        sched_code = r.u64("schedule_kind")
        if min(data_dim, id_dim, time_embed_dim, n_hidden, n_steps) < 1 or 0 in hidden_dims:
            raise CheckpointFormatError("topology contains a zero count")

        name_len = r.u64("embedder_name_len")
        try:
            name = r.take(name_len, "embedder_name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError("embedder_name is not valid UTF-8") from exc
        info = EmbedderInfo(name, r.u64("embedder_input_dim"), r.u64("embedder_output_dim"),
                            r.u64("embedder_seed"))

        total_batches = r.u64("total_batches")
        batch_size = r.u64("batch_size")
        train_seed = r.u64("train_seed")

        topo = {"data_dim": data_dim, "id_dim": id_dim, "attr_dim": attr_dim or None,
                "time_embed_dim": time_embed_dim, "hidden_dims": hidden_dims}
        _check_embedder(info, topo)
        n_params = param_count(topo)
        expected = 8 * (3 + n_steps + 2 * n_params)
        # The file's length settles the payload's before any of it is read,
        # so a huge or padded file costs no more memory than a good one; the
        # extra byte asked for catches a file that grew since.
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found == expected:
            payload = fh.read(expected + 1)
            found = len(payload)
    if found != expected:
        raise CheckpointFormatError(
            f"payload length mismatch: expected {expected} bytes of floats "
            f"for this topology, found {found}"
        )
    floats = np.frombuffer(payload, dtype="<f8")
    cond_dropout, learning_rate, ema_rate = floats[:3]
    betas = floats[3:3 + n_steps].copy()
    params, ema_flat = floats[3 + n_steps:].reshape(2, n_params)
    _check_finite(params, ema_flat)

    try:
        schedule = schedule_from_betas(betas)
    except PreimageError as exc:
        raise CheckpointFormatError(f"betas are not a valid schedule: {exc}") from exc
    config = TrainConfig(
        seed=train_seed,
        schedule=_SCHEDULE_NAMES[sched_code],
        timesteps=n_steps,
        cond_dropout=float(cond_dropout),
        batch_size=batch_size,
        learning_rate=float(learning_rate),
        ema_rate=float(ema_rate),
        total_batches=total_batches,
    )
    try:
        config.validate()
        make_embedder(info)
        model = ConditionalDenoiser(**topo, params=params)
    except ConfigurationError as exc:
        raise CheckpointFormatError(f"not a valid checkpoint: {exc}") from exc
    model.freeze()
    ema = EmaParams(ema_flat, rate=ema_rate)
    return TrainResult(model, ema, schedule, config, embedder_info=info)


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


def write_scatter_svg(path: str, points, unit_circle: bool = False) -> None:
    """Render 2-D points into a fixed-viewBox SVG scatter plot.

    The viewBox spans [-2, 2] in both axes with y up.
    unit_circle overlays the r = 1 circle as a guide (useful whenever the
    embedding is a radius). Only d = 2 data is supported.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ShapeError(
            f"scatter plots are only supported for 2-D data, got shape {points.shape}"
        )
    e = 2.0
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
            f'<circle cx="{x:.6g}" cy="{y:.6g}" r="0.015" '
            f'fill="#1f77b4" fill-opacity="0.6"/>'
        )
    parts.append("</g></svg>")
    _atomic_write_bytes(path, "\n".join(parts).encode("utf-8"))
