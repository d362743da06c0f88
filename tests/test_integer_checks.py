"""Every count and seed goes through one check (errors.check_int): each entry
point refuses a float, a bool, a digit string and the integer one below its
minimum with a ConfigurationError that names the argument, before it draws a
random number or allocates, and accepts a numpy integer."""

import re
import tracemalloc

import numpy as np
import pytest

from preimage.diffusion import (
    SampleConfig,
    TrainConfig,
    make_cosine_schedule,
    make_linear_schedule,
    respace,
    sample_batch,
    train,
)
from preimage.embedders import (
    DatasetSpec,
    FrozenMlpEmbedder,
    LinearEmbedder,
    RadiusEmbedder,
    draw_points,
    generate_dataset,
)
from preimage.errors import ConfigurationError, check_int, is_int
from preimage.evaluation import cell_seed, guidance_sweep, rejection_oracle, whitebox_gd_invert
from preimage.latent import fit_pca, project_first_k
from preimage.nn import ConditionalDenoiser, sinusoidal_embed

SCHEDULE = make_cosine_schedule(8)
MODEL = ConditionalDenoiser(2, 1, hidden_dims=(4,), time_embed_dim=4)
MODEL.freeze()
X = np.random.default_rng(0).normal(size=(8, 2))
Y = np.linalg.norm(X, axis=1, keepdims=True)
TINY_TRAIN = TrainConfig(seed=0, timesteps=4, batch_size=4, total_batches=1)
BASIS = fit_pca(X)


def annulus(rng, count):
    return draw_points(DatasetSpec("annulus", 2, 1, 0), rng, count)


def oracle(name):
    counts = {"n": 1, "batch_size": 4, "max_draws": 4}
    return lambda v: rejection_oracle(RadiusEmbedder(2), np.array([1.0]), 10.0, annulus,
                                      rng=np.random.default_rng(0), **{**counts, name: v})


def dataset(distribution, n_samples=4, seed=0, params=None):
    spec = DatasetSpec(distribution, 2, n_samples, seed, params=params or {})
    return generate_dataset(spec, RadiusEmbedder(2))


def denoiser(name):
    dims = {"data_dim": 2, "id_dim": 1, "hidden_dims": (4,), "time_embed_dim": 4}
    if name == "hidden_dims":
        return lambda v: ConditionalDenoiser(**{**dims, "hidden_dims": (4, v)})
    return lambda v: ConditionalDenoiser(**{**dims, name: v})


def train_config(name):
    return lambda v: TrainConfig(**{"seed": 0, name: v}).validate()


# (entry point, argument, its minimum, a call with the argument set to v)
ENTRIES = [
    ("make_cosine_schedule", "n_steps", 1, make_cosine_schedule),
    ("make_linear_schedule", "n_steps", 1, make_linear_schedule),
    ("respace", "n_steps", 1, lambda v: respace(SCHEDULE, v)),
    *(("TrainConfig", name, int(name != "seed"), train_config(name))
      for name in ("seed", "timesteps", "batch_size", "total_batches")),
    ("SampleConfig", "seed", 0, lambda v: SampleConfig(seed=v).resolved()),
    ("SampleConfig", "respace_steps", 1,
     lambda v: SampleConfig(seed=0, respace_steps=v).resolved()),
    ("train", "log_every", 0,
     lambda v: train(X, Y, TINY_TRAIN, hidden_dims=(4,), time_embed_dim=4, log_every=v)),
    ("sample_batch", "n", 1, lambda v: sample_batch(MODEL, [1.0], SCHEDULE, SampleConfig(0), v)),
    ("cell_seed", "seed", 0, lambda v: cell_seed(v, 1)),
    ("guidance_sweep", "n_per_target", 2,
     lambda v: guidance_sweep(MODEL, SCHEDULE, RadiusEmbedder(2), [[1.0]], [1.0], v,
                              SampleConfig(seed=0))),
    *(("rejection_oracle", name, 1, oracle(name)) for name in ("n", "batch_size", "max_draws")),
    ("whitebox_gd_invert", "max_steps", 0,
     lambda v: whitebox_gd_invert(RadiusEmbedder(2), [1.0], [2.0, 0.0], max_steps=v)),
    ("sinusoidal_embed", "dim", 2, lambda v: sinusoidal_embed(1.0, v)),
    *(("ConditionalDenoiser", name, {"time_embed_dim": 2, "seed": 0}.get(name, 1), denoiser(name))
      for name in ("data_dim", "id_dim", "attr_dim", "hidden_dims", "time_embed_dim", "seed")),
    ("RadiusEmbedder", "input_dim", 1, RadiusEmbedder),
    ("FrozenMlpEmbedder", "input_dim", 1, lambda v: FrozenMlpEmbedder(v, 3)),
    ("FrozenMlpEmbedder", "output_dim", 1, lambda v: FrozenMlpEmbedder(2, v)),
    ("FrozenMlpEmbedder", "seed", 0, lambda v: FrozenMlpEmbedder(2, 3, v)),
    ("LinearEmbedder.from_seed", "input_dim", 1, lambda v: LinearEmbedder.from_seed(v, 3)),
    ("LinearEmbedder.from_seed", "output_dim", 1, lambda v: LinearEmbedder.from_seed(2, v)),
    ("LinearEmbedder.from_seed", "seed", 0, lambda v: LinearEmbedder.from_seed(2, 3, v)),
    ("draw_points", "n", 0, lambda v: annulus(np.random.default_rng(0), v)),
    ("project_first_k", "n", 0, lambda v: project_first_k(X[0], BASIS, v)),
    ("generate_dataset", "n_samples", 1, lambda v: dataset("annulus", n_samples=v)),
    ("generate_dataset", "seed", 0, lambda v: dataset("annulus", seed=v)),
    ("generate_dataset", "n_components", 1,
     lambda v: dataset("gaussian-mixture", params={"n_components": v})),
    ("generate_dataset", "n_identities", 1,
     lambda v: dataset("clustered-identities", params={"n_identities": v})),
]
PARAMS = [pytest.param(name, minimum, call, id=f"{entry}-{name}")
          for entry, name, minimum, call in ENTRIES]


class NoDraws:
    """Stands in for numpy's default_rng: building it is allowed, any draw
    from it fails the test."""

    def __init__(self, *args, **kwargs):
        pass

    def __getattr__(self, name):
        raise AssertionError(f"drew with {name} before refusing the argument")


@pytest.mark.parametrize("bad", ["float", "bool", "str", "below"])
@pytest.mark.parametrize("name, minimum, call", PARAMS)
def test_refused_before_any_draw_or_allocation(monkeypatch, name, minimum, call, bad):
    value = {"float": 2.5, "bool": True, "str": "3", "below": minimum - 1}[bad]
    monkeypatch.setattr(np.random, "default_rng", NoDraws)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match=re.escape(name)):
            call(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


@pytest.mark.parametrize("name, minimum, call", PARAMS)
def test_numpy_integer_accepted(name, minimum, call):
    call(np.int64(minimum))


def test_predicate_and_raiser_agree():
    for value in (0, 3, np.int64(3), np.uint8(3), 2**70, -1, 2.5, 3.0, True, np.bool_(True),
                  "3", None):
        ok = is_int(value, 0, 2**64)
        assert ok == (type(value) in (int, np.int64, np.uint8) and 0 <= value <= 2**64)
        if ok:
            assert check_int("k", value, 0, 2**64) == value
            assert type(check_int("k", value, 0, 2**64)) is int
        else:
            with pytest.raises(ConfigurationError, match=r"^k must be an integer in \[0, "):
                check_int("k", value, 0, 2**64)
