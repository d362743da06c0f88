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

from .diffusion import SampleConfig, TrainConfig, null_attr_token, sample_batch, train
from .embedders import (
    DatasetSpec,
    EmbedderInfo,
    draw_points,
    generate_dataset,
    make_embedder,
    stack_samples,
)
from .errors import ConfigurationError, PreimageError
from .evaluation import (
    diversity,
    energy_distance,
    guidance_sweep,
    identity_error,
    rejection_oracle,
    verification_accuracy,
    whitebox_gd_invert,
)
from .latent import custom_direction, fit_pca, lerp, percentile_split, slerp
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
    hidden_dims: tuple = (128, 128, 128)
    time_embed_dim: int = 64
    train: TrainConfig | None = None
    output_dir: str = "."


def _take(d: dict, section: str, allowed: set) -> dict:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown {section} config keys: {', '.join(sorted(unknown))}"
        )
    return d


def load_run_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc

    _take(raw, "top-level", {"dataset", "embedder", "model", "train", "output_dir"})
    if "dataset" not in raw or "embedder" not in raw:
        raise ConfigurationError("config needs 'dataset' and 'embedder' sections")

    ds = _take(dict(raw["dataset"]), "dataset",
               {"distribution", "input_dim", "n_samples", "seed", "attribute", "params"})
    dataset = DatasetSpec(
        distribution=ds["distribution"],
        input_dim=int(ds["input_dim"]),
        n_samples=int(ds["n_samples"]),
        seed=int(ds["seed"]),
        attribute=ds.get("attribute"),
        params=ds.get("params", {}),
    )

    em = _take(dict(raw["embedder"]), "embedder",
               {"name", "input_dim", "output_dim", "seed"})
    embedder_info = EmbedderInfo(
        name=em["name"],
        input_dim=int(em["input_dim"]),
        output_dim=int(em.get("output_dim", 1)),
        seed=int(em.get("seed", 0)),
    )

    model = _take(dict(raw.get("model", {})), "model", {"hidden_dims", "time_embed_dim"})
    hidden_dims = tuple(int(h) for h in model.get("hidden_dims", (128, 128, 128)))
    time_embed_dim = int(model.get("time_embed_dim", 64))

    train_cfg = None
    if "train" in raw:
        tr = _take(dict(raw["train"]), "train",
                   {"seed", "schedule", "timesteps", "cond_dropout", "batch_size",
                    "learning_rate", "ema_rate", "total_batches"})
        if "seed" not in tr:
            raise ConfigurationError("train config must set a seed")
        train_cfg = TrainConfig(**tr)
        train_cfg.validate()

    cfg = RunConfig(dataset, embedder_info, hidden_dims, time_embed_dim,
                    train_cfg, raw.get("output_dir", "."))

    # Every dimension inconsistency is rejected here, before any compute.
    if embedder_info.input_dim != dataset.input_dim:
        raise ConfigurationError(
            f"embedder input_dim {embedder_info.input_dim} does not match "
            f"dataset input_dim {dataset.input_dim}"
        )
    if embedder_info.name == "radius" and embedder_info.output_dim != 1:
        raise ConfigurationError("the radius embedder has output_dim 1")
    if any(h < 1 for h in hidden_dims) or not hidden_dims:
        raise ConfigurationError("model hidden_dims must be positive")
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
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated floats, got {text!r}") from None


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


def _samples_csv(path, xs, ys_dist):
    d = xs.shape[1]
    header = ["sample_id"] + [f"x_{j}" for j in range(d)] + ["identity_distance"]
    rows = [[i, *xs[i], ys_dist[i]] for i in range(len(xs))]
    write_csv(path, header, rows)


def _identity_distances(embedder, xs, target_y):
    return np.linalg.norm(embedder.embed(xs) - target_y, axis=1)


# -- subcommand implementations ----------------------------------------------


def cmd_dataset(args) -> int:
    cfg = load_run_config(args.config)
    embedder = make_embedder(cfg.embedder)
    samples = generate_dataset(cfg.dataset, embedder)
    xs, ys, attrs = stack_samples(samples)
    meta_keys = sorted(samples[0].metadata)
    header = (["sample_id"]
              + [f"x_{j}" for j in range(xs.shape[1])]
              + [f"y_{j}" for j in range(ys.shape[1])]
              + ([f"a_{j}" for j in range(attrs.shape[1])] if attrs is not None else [])
              + meta_keys)
    rows = []
    for i, s in enumerate(samples):
        row = [i, *s.x, *s.y]
        if attrs is not None:
            row += list(s.a)
        row += [s.metadata[k] for k in meta_keys]
        rows.append(row)
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
        train_cfg = TrainConfig(**{**train_cfg.__dict__, "seed": args.seed})
    embedder = make_embedder(cfg.embedder)
    samples = generate_dataset(cfg.dataset, embedder)
    xs, ys, attrs = stack_samples(samples)
    result = train(xs, ys, train_cfg, attrs=attrs, hidden_dims=cfg.hidden_dims,
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


def _default_attr(model):
    """No-preference token for attribute-conditioned checkpoints.

    Models trained with an attribute always saw the attribute term (a value
    or the dropout token), so sampling them without one must use the token
    rather than dropping the term from the compute path.
    """
    if model.attr_dim is None:
        return None
    return null_attr_token(model.attr_dim)


def cmd_sample(args) -> int:
    ckpt, model, embedder = _load_for_sampling(args)
    y = _parse_vector(args.target_y, "--target-y")
    if len(y) != model.id_dim:
        raise ConfigurationError(
            f"--target-y has {len(y)} entries but the model expects {model.id_dim}"
        )
    if args.attr is not None:
        a = _parse_vector(args.attr, "--attr")
    else:
        a = _default_attr(model)
        if a is not None:
            print("attribute-conditioned model: sampling with the "
                  "no-preference token (pass --attr to condition)")
    cfg = _sample_config(args)
    xs = sample_batch(model, y, ckpt.schedule, cfg, args.n, a=a)
    dists = _identity_distances(embedder, xs, y)
    out = _resolve_out(args.out, ".")
    _samples_csv(out, xs, dists)
    print(f"wrote {len(xs)} samples to {out} "
          f"(mean identity distance {dists.mean():.4f})")
    if args.scatter is not None:
        scatter = _resolve_out(args.scatter, ".")
        write_scatter_svg(scatter, xs, unit_circle=ckpt.embedder_info.name == "radius")
        print(f"wrote scatter plot to {scatter}")
    return 0


def cmd_interpolate(args) -> int:
    ckpt, model, embedder = _load_for_sampling(args)
    y1 = _parse_vector(args.y1, "--y1")
    y2 = _parse_vector(args.y2, "--y2")
    if len(y1) != model.id_dim or len(y2) != model.id_dim:
        raise ConfigurationError(
            f"interpolation endpoints must have {model.id_dim} entries"
        )
    blend = slerp if args.mode == "slerp" else lerp
    taus = np.linspace(0.0, 1.0, args.grid)
    base = _sample_config(args)
    header = ["tau"] + [f"x_{j}" for j in range(model.data_dim)] + ["identity_distance"]
    rows = []
    for idx, tau in enumerate(taus):
        y_tau = blend(y1, y2, float(tau))
        seed = int(np.random.SeedSequence((args.seed, idx)).generate_state(1)[0])
        xs = sample_batch(model, y_tau, ckpt.schedule, replace(base, seed=seed), args.n_per,
                          a=_default_attr(model))
        dists = _identity_distances(embedder, xs, y_tau)
        for x_row, dist in zip(xs, dists):
            rows.append([float(tau), *x_row, dist])
    out = _resolve_out(args.out, ".")
    write_csv(out, header, rows)
    print(f"wrote {len(rows)} interpolation samples to {out}")
    return 0


def _dataset_rows_from_csv(path):
    """Rebuild (y vectors, metadata dicts) from a dataset CSV."""
    header, rows = read_csv(path)
    y_cols = [i for i, h in enumerate(header) if h.startswith("y_")]
    known = {h for h in header
             if h == "sample_id" or h.startswith(("x_", "y_", "a_"))}
    meta_cols = [(i, h) for i, h in enumerate(header) if h not in known]
    if not y_cols:
        raise ConfigurationError(f"{path} has no y_* columns")
    ys = np.array([[float(r[i]) for i in y_cols] for r in rows])
    metas = [{h: float(r[i]) for i, h in meta_cols} for r in rows]
    return ys, metas


class _Record:
    def __init__(self, y, metadata):
        self.y = y
        self.metadata = metadata


def cmd_direction(args) -> int:
    ys, metas = _dataset_rows_from_csv(args.data)
    k = ys.shape[1]
    header = ["label", "provenance", "weight"] + [f"v_{j}" for j in range(k)]
    rows = []
    if args.mode == "pca":
        basis = fit_pca(ys)
        n_axes = args.n_axes if args.n_axes is not None else k
        if not (1 <= n_axes <= k):
            raise ConfigurationError(f"--n-axes must lie in [1, {k}]")
        for i in range(n_axes):
            rows.append([f"pca_{i}", "pca-axis", basis.eigenvalues[i], *basis.axes[i]])
    else:
        if args.feature is None:
            raise _UsageError(f"--feature is required for --mode {args.mode}")
        records = [_Record(y, m) for y, m in zip(ys, metas)]
        distinct = len({m[args.feature] for m in metas if args.feature in m})
        if args.feature not in metas[0]:
            raise ConfigurationError(f"feature {args.feature!r} not found in {args.data}")
        if args.mode == "binary" and distinct != 2:
            raise ConfigurationError(
                f"--mode binary needs exactly 2 distinct values, found {distinct}"
            )
        if args.mode == "percentile" and distinct <= 2:
            raise ConfigurationError(
                f"--mode percentile needs a continuous feature, found {distinct} values"
            )
        lo, hi = percentile_split(records, args.feature)
        provenance = "binary-split" if args.mode == "binary" else "percentile-split"
        direction = custom_direction(
            np.stack([r.y for r in lo]), np.stack([r.y for r in hi]),
            label=args.feature, provenance=provenance,
        )
        rows.append([direction.label, direction.provenance, 0.0, *direction.vector])
    out = _resolve_out(args.out, ".")
    write_csv(out, header, rows)
    print(f"wrote {len(rows)} direction rows to {out}")
    return 0


def cmd_sweep(args) -> int:
    ckpt, model, embedder = _load_for_sampling(args)
    scales = [float(s) for s in args.s.split(",") if s.strip() != ""]
    if not scales:
        raise _UsageError("--s expects comma-separated guidance scales")
    targets = [_parse_vector(chunk, "--target-y")
               for chunk in args.target_y.split(";") if chunk.strip() != ""]
    for t in targets:
        if len(t) != model.id_dim:
            raise ConfigurationError(
                f"each target must have {model.id_dim} entries, got {len(t)}"
            )
    base = _sample_config(args)
    attr = _default_attr(model)
    attrs = None if attr is None else np.tile(attr, (len(targets), 1))
    rows = guidance_sweep(model, ckpt.schedule, embedder, np.stack(targets),
                          scales, args.n, base, attrs=attrs)
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
        header, rows = read_csv(args.pairs)
        try:
            d_col = header.index("distance")
            s_col = header.index("is_same")
        except ValueError:
            raise ConfigurationError(
                f"{args.pairs} must have 'distance' and 'is_same' columns"
            ) from None
        pairs = [(float(r[d_col]), bool(int(float(r[s_col])))) for r in rows]
        res = verification_accuracy(pairs)
        out = _resolve_out(args.out, ".")
        write_csv(out, ["threshold", "accuracy", "n_pairs"],
                  [[res.threshold, res.accuracy, res.n_pairs]])
        print(f"verification accuracy {res.accuracy:.4f} at threshold "
              f"{res.threshold:.6g} over {res.n_pairs} pairs; wrote {out}")
        return 0

    if args.samples is None:
        raise _UsageError(f"--samples is required for --task {args.task}")
    header, rows = read_csv(args.samples)
    x_cols = [i for i, h in enumerate(header) if h.startswith("x_")]
    if not x_cols:
        raise ConfigurationError(f"{args.samples} has no x_* columns")
    xs = np.array([[float(r[i]) for i in x_cols] for r in rows])
    if args.task == "diversity":
        value = diversity(xs)
    else:
        if args.target_y is None or args.checkpoint is None:
            raise _UsageError("--target-y and --checkpoint are required for "
                              "--task identity")
        ckpt = load_checkpoint(args.checkpoint)
        embedder = make_embedder(ckpt.embedder_info)
        y = _parse_vector(args.target_y, "--target-y")
        value = identity_error(xs, y, embedder)
    out = _resolve_out(args.out, ".")
    write_csv(out, ["metric", "value", "n"], [[args.task, value, len(xs)]])
    print(f"{args.task} = {value:.6f} over {len(xs)} samples; wrote {out}")
    return 0


def cmd_oracle_compare(args) -> int:
    cfg = load_run_config(args.config)
    ckpt, model, embedder = _load_for_sampling(args)
    y = _parse_vector(args.target_y, "--target-y")
    if len(y) != model.id_dim:
        raise ConfigurationError(
            f"--target-y has {len(y)} entries but the model expects {model.id_dim}"
        )

    xs = sample_batch(model, y, ckpt.schedule, _sample_config(args), args.n,
                      a=_default_attr(model))

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
        init_rng = np.random.default_rng(args.seed + 1)
        inits = draw(init_rng, args.gd_inits)
        converged = 0
        steps_used = []
        for x0 in inits:
            res = whitebox_gd_invert(embedder, y, x0)
            converged += int(res.converged)
            steps_used.append(res.n_steps)
        rows.append(["gd_converged_fraction", converged / len(inits), len(inits)])
        rows.append(["gd_mean_steps", float(np.mean(steps_used)), len(inits)])
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
    try:
        args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
