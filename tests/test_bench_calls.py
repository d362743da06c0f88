"""bench/run.py calls this package through module aliases (D, M, E, P), and a
rename or a removed name would first show as a failed benchmark run. These
tests resolve every attribute chain the benchmark reads off those aliases,
and run its training-record path (train, sample, checkpoint round trip) on a
tiny model.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from preimage import diffusion as D
from preimage import embedders as M
from preimage import persistence as P

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def package_aliases(tree):
    """{alias: module name} of every `from preimage import module as alias`."""
    return {a.asname or a.name: a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "preimage"
            for a in node.names}


def alias_chains(tree, aliases):
    """Every dotted chain the file reads off a package alias, outermost only,
    as (alias, attribute names)."""
    inner = set()
    chains = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        names, base = [], node
        while isinstance(base, ast.Attribute):
            names.append(base.attr)
            inner.add(id(base.value))
            base = base.value
        if isinstance(base, ast.Name) and base.id in aliases and isinstance(node.ctx, ast.Load):
            chains.append((base.id, tuple(reversed(names))))
    return chains


TREE = ast.parse(RUN.read_text(), filename=str(RUN))
ALIASES = package_aliases(TREE)
CHAINS = sorted(set(alias_chains(TREE, ALIASES)))


def test_the_benchmark_reads_the_package_through_its_aliases():
    assert {"D": "diffusion", "M": "embedders", "E": "evaluation",
            "P": "persistence"}.items() <= ALIASES.items()
    assert ("P", ("Checkpoint", "from_train_result")) in CHAINS
    assert {alias for alias, _ in CHAINS} >= {"D", "M", "E", "P"}


@pytest.mark.parametrize("alias, names", CHAINS, ids=[".".join((a, *n)) for a, n in CHAINS])
def test_every_name_the_benchmark_reads_resolves(alias, names):
    owner = importlib.import_module(f"preimage.{ALIASES[alias]}")
    for i, name in enumerate(names):
        assert hasattr(owner, name), f"{alias}.{'.'.join(names[:i + 1])} does not resolve"
        owner = getattr(owner, name)


def test_the_benchmark_record_path_runs_on_a_tiny_model(tmp_path):
    # bench/run.py's train and checkpoint_trip operations, in their order.
    info = M.EmbedderInfo("radius", 2, 1)
    embedder = M.make_embedder(info)
    xs = np.random.default_rng(0).normal(size=(32, 2))
    cfg = D.TrainConfig(seed=1, timesteps=8, batch_size=8, total_batches=3)
    result = D.train(xs, embedder.embed(xs), cfg, hidden_dims=(8, 8), time_embed_dim=8)
    assert result.embedder_info is None
    model = result.ema_model()
    losses = np.asarray(result.loss_history)
    assert losses.size == cfg.total_batches and np.isfinite(losses).all()
    x = D.sample_batch(model, np.array([1.0]), result.schedule,
                       D.SampleConfig(seed=2, respace_steps=4), 3)
    assert x.shape == (3, 2)

    path, again = tmp_path / "ring.ckpt", tmp_path / "ring-again.ckpt"
    ckpt = P.Checkpoint.from_train_result(result, info)
    assert type(ckpt) is D.TrainResult and ckpt.embedder_info == info
    P.save_checkpoint(str(path), ckpt)
    loaded = P.load_checkpoint(str(path))
    P.save_checkpoint(str(again), loaded)
    assert path.read_bytes() == again.read_bytes()
    assert np.array_equal(loaded.ema.flat(), ckpt.ema.flat())
