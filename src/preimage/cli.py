"""Command line front end.

Subcommands: dataset, train, sample, interpolate, direction, sweep, eval,
oracle-compare. Exit code 0 on success, 1 on usage or configuration errors,
2 on runtime failures. Output paths resolve against the config's output_dir,
which the PREIMAGE_OUT environment variable overrides.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .diffusion import SEED_MAX, SampleConfig, TrainConfig, sample_batch, train
from .embedders import (
    DatasetSpec,
    EmbedderInfo,
    draw_points,
    generate_dataset,
    make_embedder,
)
from .errors import ConfigurationError, PreimageError, check_int, is_int
from .evaluation import (
    cell_seed,
    diversity,
    energy_distance,
    guidance_sweep,
    identity_distances,
    identity_error,
    rejection_oracle,
    verification_accuracy,
    whitebox_gd_invert,
)
from .latent import custom_direction, fit_pca, lerp, percentile_split, slerp
from .nn import HIDDEN_DIMS, TIME_EMBED_DIM
from .persistence import (
    Checkpoint,
    load_checkpoint,
    read_csv,
    save_checkpoint,
    write_csv,
    write_scatter_svg,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class RunConfig:
    """Parsed run configuration file."""

    dataset: DatasetSpec
    embedder: EmbedderInfo
    hidden_dims: tuple = HIDDEN_DIMS
    time_embed_dim: int = TIME_EMBED_DIM
    train: TrainConfig | None = None
    output_dir: str = "."


# What each JSON value of a run config must be: a description for the error
# message and the test. Every integer of a run config is a count or a
# dimension, so "int" means a positive integer.
_KINDS = {
    "int": ("a positive integer", lambda v: is_int(v, 1)),
    "seed": ("an integer in [0, 2**64)", lambda v: is_int(v, 0, SEED_MAX)),
    "number": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str?": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "ints": ("a nonempty list of positive integers",
             lambda v: isinstance(v, list) and v and all(is_int(h, 1) for h in v)),
}

# Every key of every section of a run config and the kind of its value; a
# key whose kind ends in "!" is required.
_SECTIONS = {
    "top-level": {"dataset": "object!", "embedder": "object!", "model": "object",
                  "train": "object", "output_dir": "str"},
    "dataset": {"distribution": "str!", "input_dim": "int!", "n_samples": "int!",
                "seed": "seed!", "attribute": "str?", "params": "object"},
    "embedder": {"name": "str!", "input_dim": "int!", "output_dim": "int", "seed": "seed"},
    "model": {"hidden_dims": "ints", "time_embed_dim": "int"},
    "train": {"seed": "seed!", "schedule": "str", "timesteps": "int", "cond_dropout": "number",
              "batch_size": "int", "learning_rate": "number", "ema_rate": "number",
              "total_batches": "int"},
}


def _section(value, name: str) -> dict:
    """value checked against _SECTIONS[name]: an object with no unknown key,
    every required key, and every value of its kind."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"the {name} config must be a JSON object")
    keys = _SECTIONS[name]
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigurationError(f"unknown {name} config keys: {', '.join(sorted(unknown))}")
    for key, kind in keys.items():
        if key not in value:
            if kind.endswith("!"):
                raise ConfigurationError(f"the {name} config needs {key!r}")
            continue
        what, ok = _KINDS[kind.rstrip("!")]
        if not ok(value[key]):
            raise ConfigurationError(
                f"{name} config {key!r} must be {what}, got {value[key]!r}")
    return value


def load_run_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc

    raw = _section(raw, "top-level")
    dataset = DatasetSpec(**_section(raw["dataset"], "dataset"))
    embedder_info = EmbedderInfo(**{"output_dim": 1, **_section(raw["embedder"], "embedder")})
    model = _section(raw.get("model", {}), "model")
    hidden_dims = tuple(model.get("hidden_dims", HIDDEN_DIMS))
    time_embed_dim = model.get("time_embed_dim", TIME_EMBED_DIM)

    train_cfg = None
    if "train" in raw:
        train_cfg = TrainConfig(**_section(raw["train"], "train"))
        train_cfg.validate()

    cfg = RunConfig(dataset, embedder_info, hidden_dims, time_embed_dim,
                    train_cfg, raw.get("output_dir", "."))

    # Every dimension inconsistency is rejected here, before any compute.
    if embedder_info.input_dim != dataset.input_dim:
        raise ConfigurationError(
            f"embedder input_dim {embedder_info.input_dim} does not match "
            f"dataset input_dim {dataset.input_dim}"
        )
    make_embedder(embedder_info)  # refuses a descriptor it cannot build
    if time_embed_dim < 2 or time_embed_dim % 2:
        raise ConfigurationError("model time_embed_dim must be even and >= 2")
    return cfg


def _resolve_out(path: str, output_dir: str) -> str:
    base = os.environ.get("PREIMAGE_OUT") or output_dir or "."
    if not os.path.isabs(path):
        path = os.path.join(base, path)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return path


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        values = None
    if values is None or not len(values) or not np.isfinite(values).all():
        raise _UsageError(f"{flag} expects comma-separated finite numbers, got {text!r}")
    return values


def _parse_target(text: str, flag: str, width: int) -> np.ndarray:
    """_parse_vector of text, refused unless it has the model's width entries."""
    values = _parse_vector(text, flag)
    if len(values) != width:
        raise ConfigurationError(
            f"{flag} has {len(values)} entries but the model expects {width}")
    return values


def _sample_config(args) -> SampleConfig:
    """The SampleConfig of a sampling subcommand's flags. Only sample has
    --threshold; sweep has no --guidance, since each of its cells sets one."""
    return SampleConfig(
        seed=args.seed,
        guidance_scale=getattr(args, "guidance", SampleConfig.guidance_scale),
        respace_steps=args.steps,
        threshold={"on": True, "off": False}.get(getattr(args, "threshold", "auto"), "auto"),
        variance_mode=args.variance,
    )


# -- subcommand implementations ----------------------------------------------


def cmd_dataset(args) -> int:
    cfg = load_run_config(args.config)
    ds = generate_dataset(cfg.dataset, make_embedder(cfg.embedder))
    blocks = {name: b for name, b in (("x", ds.x), ("y", ds.y), ("a", ds.a)) if b is not None}
    meta_keys = sorted(ds.metadata)
    header = (["sample_id"]
              + [f"{name}_{j}" for name, block in blocks.items() for j in range(block.shape[1])]
              + meta_keys)
    table = np.column_stack([*blocks.values(), *(ds.metadata[k] for k in meta_keys)])
    rows = [[i, *row] for i, row in enumerate(table.tolist())]
    out = _resolve_out(args.out, cfg.output_dir)
    write_csv(out, header, rows)
    print(f"wrote {len(rows)} samples to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    if cfg.train is None:
        raise ConfigurationError("config has no 'train' section")
    train_cfg = cfg.train
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    ds = generate_dataset(cfg.dataset, make_embedder(cfg.embedder))
    result = train(ds.x, ds.y, train_cfg, attrs=ds.a, hidden_dims=cfg.hidden_dims,
                   time_embed_dim=cfg.time_embed_dim,
                   log_every=args.log_every)
    out = _resolve_out(args.out, cfg.output_dir)
    save_checkpoint(out, Checkpoint.from_train_result(result, cfg.embedder))
    print(f"trained {result.config.total_batches} batches; "
          f"final loss {np.mean(result.loss_history[-50:]):.5f}; saved {out}")
    return 0


def _load_for_sampling(args):
    ckpt = load_checkpoint(args.checkpoint)
    model = ckpt.model if getattr(args, "no_ema", False) else ckpt.ema_model()
    embedder = make_embedder(ckpt.embedder_info)
    return ckpt, model, embedder


def cmd_sample(args) -> int:
    ckpt, model, embedder = _load_for_sampling(args)
    y = _parse_target(args.target_y, "--target-y", model.id_dim)
    a = None
    if args.attr is not None:
        a = (_parse_vector(args.attr, "--attr") if model.attr_dim is None
             else _parse_target(args.attr, "--attr", model.attr_dim))
    if a is None and model.attr_dim is not None:
        print("attribute-conditioned model: sampling with the "
              "no-preference token (pass --attr to condition)")
    xs = sample_batch(model, y, ckpt.schedule, _sample_config(args), args.n, a=a)
    dists = identity_distances(xs, y, embedder)
    out = _resolve_out(args.out, ".")
    write_csv(out, ["sample_id", *(f"x_{j}" for j in range(model.data_dim)), "identity_distance"],
              [[i, *x, dist] for i, (x, dist) in enumerate(zip(xs, dists))])
    print(f"wrote {len(xs)} samples to {out} "
          f"(mean identity distance {dists.mean():.4f})")
    if args.scatter is not None:
        scatter = _resolve_out(args.scatter, ".")
        write_scatter_svg(scatter, xs, unit_circle=ckpt.embedder_info.name == "radius")
        print(f"wrote scatter plot to {scatter}")
    return 0


def cmd_interpolate(args) -> int:
    check_int("--grid", args.grid, 1)
    ckpt, model, embedder = _load_for_sampling(args)
    y1 = _parse_target(args.y1, "--y1", model.id_dim)
    y2 = _parse_target(args.y2, "--y2", model.id_dim)
    blend = slerp if args.mode == "slerp" else lerp
    taus = np.linspace(0.0, 1.0, args.grid)
    base = _sample_config(args)
    header = ["tau"] + [f"x_{j}" for j in range(model.data_dim)] + ["identity_distance"]
    rows = []
    for idx, tau in enumerate(taus):
        y_tau = blend(y1, y2, float(tau))
        cfg = replace(base, seed=cell_seed(args.seed, idx))
        xs = sample_batch(model, y_tau, ckpt.schedule, cfg, args.n_per)
        dists = identity_distances(xs, y_tau, embedder)
        for x_row, dist in zip(xs, dists):
            rows.append([float(tau), *x_row, dist])
    out = _resolve_out(args.out, ".")
    write_csv(out, header, rows)
    print(f"wrote {len(rows)} interpolation samples to {out}")
    return 0


def _float_table(path):
    """The header of a CSV and its rows as one float array; a file that is not
    UTF-8, a ragged row or a cell that is not a finite number is a
    ConfigurationError."""
    try:  # UnicodeDecodeError is a ValueError
        header, rows = read_csv(path)
        table = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    except ValueError:
        table = None
    if table is None or not np.isfinite(table).all():
        raise ConfigurationError(f"{path} is not a table of numbers")
    return header, table


def _dataset_columns_from_csv(path):
    """The y matrix and the named metadata columns of a dataset CSV."""
    header, table = _float_table(path)
    y_cols = [i for i, h in enumerate(header) if h.startswith("y_")]
    if not y_cols:
        raise ConfigurationError(f"{path} has no y_* columns")
    known = {h for h in header
             if h == "sample_id" or h.startswith(("x_", "y_", "a_"))}
    metadata = {h: table[:, i] for i, h in enumerate(header) if h not in known}
    # Row-major, like the dataset's own y: PCA's sums follow the memory layout.
    return np.ascontiguousarray(table[:, y_cols]), metadata


def cmd_direction(args) -> int:
    ys, metadata = _dataset_columns_from_csv(args.data)
    k = ys.shape[1]
    header = ["label", "provenance", "weight"] + [f"v_{j}" for j in range(k)]
    rows = []
    if args.mode == "pca":
        basis = fit_pca(ys)
        n_axes = check_int("--n-axes", k if args.n_axes is None else args.n_axes, 1, k)
        for i in range(n_axes):
            rows.append([f"pca_{i}", "pca-axis", basis.eigenvalues[i], *basis.axes[i]])
    else:
        if args.feature is None:
            raise _UsageError(f"--feature is required for --mode {args.mode}")
        if args.feature not in metadata:
            raise ConfigurationError(f"feature {args.feature!r} not found in {args.data}")
        values = metadata[args.feature]
        distinct = len(np.unique(values))
        if args.mode == "binary" and distinct != 2:
            raise ConfigurationError(
                f"--mode binary needs exactly 2 distinct values, found {distinct}"
            )
        if args.mode == "percentile" and distinct <= 2:
            raise ConfigurationError(
                f"--mode percentile needs a continuous feature, found {distinct} values"
            )
        lo, hi = percentile_split(values)
        provenance = "binary-split" if args.mode == "binary" else "percentile-split"
        direction = custom_direction(ys[lo], ys[hi], label=args.feature,
                                     provenance=provenance)
        rows.append([direction.label, direction.provenance, 0.0, *direction.vector])
    out = _resolve_out(args.out, ".")
    write_csv(out, header, rows)
    print(f"wrote {len(rows)} direction rows to {out}")
    return 0


def cmd_sweep(args) -> int:
    scales = _parse_vector(args.s, "--s")
    ckpt, model, embedder = _load_for_sampling(args)
    targets = [_parse_target(chunk, "--target-y", model.id_dim)
               for chunk in args.target_y.split(";") if chunk.strip() != ""]
    if not targets:
        raise _UsageError("--target-y expects semicolon-separated targets")
    rows = guidance_sweep(model, ckpt.schedule, embedder, np.stack(targets),
                          scales, args.n, _sample_config(args))
    out = _resolve_out(args.out, ".")
    write_csv(out, ["s", "identity_error", "diversity", "n"],
              [[r.guidance_scale, r.identity_error, r.diversity, r.n_samples]
               for r in rows])
    print(f"wrote {len(rows)} sweep rows to {out}")
    return 0


def cmd_eval(args) -> int:
    if args.task == "verification":
        if args.pairs is None:
            raise _UsageError("--pairs is required for --task verification")
        header, table = _float_table(args.pairs)
        try:
            d_col = header.index("distance")
            s_col = header.index("is_same")
        except ValueError:
            raise ConfigurationError(
                f"{args.pairs} must have 'distance' and 'is_same' columns"
            ) from None
        pairs = [(d, bool(int(s))) for d, s in table[:, [d_col, s_col]].tolist()]
        res = verification_accuracy(pairs)
        out = _resolve_out(args.out, ".")
        write_csv(out, ["threshold", "accuracy", "n_pairs"],
                  [[res.threshold, res.accuracy, res.n_pairs]])
        print(f"verification accuracy {res.accuracy:.4f} at threshold "
              f"{res.threshold:.6g} over {res.n_pairs} pairs; wrote {out}")
        return 0

    if args.samples is None:
        raise _UsageError(f"--samples is required for --task {args.task}")
    header, table = _float_table(args.samples)
    x_cols = [i for i, h in enumerate(header) if h.startswith("x_")]
    if not x_cols:
        raise ConfigurationError(f"{args.samples} has no x_* columns")
    xs = table[:, x_cols]
    if args.task == "diversity":
        value = diversity(xs)
    else:
        if args.target_y is None or args.checkpoint is None:
            raise _UsageError("--target-y and --checkpoint are required for "
                              "--task identity")
        ckpt = load_checkpoint(args.checkpoint)
        y = _parse_target(args.target_y, "--target-y", ckpt.model.id_dim)
        if len(x_cols) != ckpt.model.data_dim:
            raise ConfigurationError(
                f"{args.samples} has {len(x_cols)} x_* columns but the checkpoint's "
                f"data dimension is {ckpt.model.data_dim}")
        value = identity_error(xs, y, make_embedder(ckpt.embedder_info))
    out = _resolve_out(args.out, ".")
    write_csv(out, ["metric", "value", "n"], [[args.task, value, len(xs)]])
    print(f"{args.task} = {value:.6f} over {len(xs)} samples; wrote {out}")
    return 0


def cmd_oracle_compare(args) -> int:
    cfg = load_run_config(args.config)
    ckpt, model, embedder = _load_for_sampling(args)
    y = _parse_target(args.target_y, "--target-y", model.id_dim)
    check_int("--gd-inits", args.gd_inits, 1)

    xs = sample_batch(model, y, ckpt.schedule, _sample_config(args), args.n)

    def draw(rng, count):
        return draw_points(cfg.dataset, rng, count)

    rng = np.random.default_rng(args.seed)
    oracle_a = rejection_oracle(embedder, y, args.epsilon, draw, args.n, rng)
    oracle_b = rejection_oracle(embedder, y, args.epsilon, draw, args.n, rng)

    rows = [
        ["energy_diffusion_vs_oracle", energy_distance(xs, oracle_a), args.n],
        ["energy_oracle_vs_oracle", energy_distance(oracle_a, oracle_b), args.n],
        ["identity_error_diffusion", identity_error(xs, y, embedder), args.n],
        ["identity_error_oracle", identity_error(oracle_a, y, embedder), args.n],
    ]
    if hasattr(embedder, "embed_grad"):
        inits = draw(np.random.default_rng(args.seed + 1), args.gd_inits)
        runs = [whitebox_gd_invert(embedder, y, x0) for x0 in inits]
        rows.append(["gd_converged_fraction", sum(r.converged for r in runs) / len(runs),
                     len(runs)])
        rows.append(["gd_mean_steps", float(np.mean([r.n_steps for r in runs])), len(runs)])
    out = _resolve_out(args.out, cfg.output_dir)
    write_csv(out, ["metric", "value", "n"], rows)
    print(f"wrote oracle comparison to {out}")
    return 0


# -- parser wiring -------------------------------------------------------------


def _add_sampling_flags(p, with_guidance=True):
    p.add_argument("--checkpoint", required=True, help="checkpoint file to sample from")
    p.add_argument("--seed", type=int, required=True, help="sampling RNG seed")
    p.add_argument("--steps", type=int, default=None,
                   help="respaced reverse steps (default: quarter of the schedule)")
    p.add_argument("--variance", choices=["posterior", "beta"], default="posterior")
    p.add_argument("--no-ema", action="store_true", help="sample the live weights "
                   "instead of the EMA weights")
    if with_guidance:
        p.add_argument("--guidance", type=float, default=2.0, help="guidance scale")


def build_parser() -> _Parser:
    parser = _Parser(prog="preimage", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dataset", help="generate a labeled dataset CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="dataset.csv")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train a denoiser and save a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="model.ckpt")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--log-every", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="sample pre-images of a target embedding")
    _add_sampling_flags(p)
    p.add_argument("--target-y", required=True, help="target embedding, comma-separated")
    p.add_argument("--attr", default=None, help="attribute vector, comma-separated")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--threshold", choices=["auto", "on", "off"], default="auto")
    p.add_argument("--out", default="samples.csv")
    p.add_argument("--scatter", default=None, help="also write a scatter SVG here")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("interpolate", help="sample along an embedding interpolation")
    _add_sampling_flags(p)
    p.add_argument("--y1", required=True)
    p.add_argument("--y2", required=True)
    p.add_argument("--mode", choices=["slerp", "lerp"], default="slerp")
    p.add_argument("--grid", type=int, default=9, help="number of interpolation points")
    p.add_argument("--n-per", type=int, default=1, help="samples per point")
    p.add_argument("--out", default="interpolation.csv")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("direction", help="derive semantic directions from a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV from the dataset command")
    p.add_argument("--mode", choices=["binary", "percentile", "pca"], required=True)
    p.add_argument("--feature", default=None, help="metadata column to split on")
    p.add_argument("--n-axes", type=int, default=None, help="pca axes to emit")
    p.add_argument("--out", default="directions.csv")
    p.set_defaults(func=cmd_direction)

    p = sub.add_parser("sweep", help="guidance-scale sweep")
    _add_sampling_flags(p, with_guidance=False)
    p.add_argument("--s", required=True, help="comma-separated guidance scales")
    p.add_argument("--target-y", required=True,
                   help="targets; semicolons separate vectors")
    p.add_argument("--n", type=int, default=100, help="samples per (scale, target) cell")
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate samples or verification pairs")
    p.add_argument("--task", choices=["identity", "diversity", "verification"],
                   required=True)
    p.add_argument("--samples", default=None, help="samples CSV")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--target-y", default=None)
    p.add_argument("--pairs", default=None, help="CSV with distance,is_same columns")
    p.add_argument("--out", default="eval.csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle-compare",
                       help="compare diffusion samples with rejection sampling and "
                            "gradient descent")
    _add_sampling_flags(p)
    p.add_argument("--config", required=True, help="run config with the dataset spec")
    p.add_argument("--target-y", required=True)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--gd-inits", type=int, default=20)
    p.add_argument("--out", default="oracle_compare.csv")
    p.set_defaults(func=cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    command = parser.prog
    try:
        args = parser.parse_args(argv)
        command = args.command
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (PreimageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a valid request that this machine cannot hold
        print(f"error: {command}: out of memory for this request", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
