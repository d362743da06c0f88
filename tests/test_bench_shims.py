"""The benchmark's timing shims name callables of this package by string.

bench/run.py --trace 1 stops when a wrapped name records no calls, so a
rename in the package, or a refactor that stops calling a name, would first
show in a traced benchmark run. These tests read the WRAPPED table from
bench/shims.py without importing it, check that every name resolves as the
shims look it up, and check that one sampling request calls the names the
sampler is traced by.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from preimage.diffusion import SampleConfig, make_cosine_schedule, sample_batch
from preimage.nn import ConditionalDenoiser

SHIMS = Path(__file__).resolve().parents[1] / "bench" / "shims.py"


def wrapped_names():
    tree = ast.parse(SHIMS.read_text(), filename=str(SHIMS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "WRAPPED"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {SHIMS}")


def test_table_is_nonempty():
    assert len(wrapped_names()) > 0


@pytest.mark.parametrize("module, qual", wrapped_names())
def test_wrapped_name_resolves(module, qual):
    home = importlib.import_module(f"preimage.{module}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        owner = getattr(home, cls_name)
        assert callable(owner.__dict__[attr]), f"{module}.{qual} is not a method"
    else:
        assert callable(getattr(home, qual)), f"{module}.{qual} is not a function"


# The wrapped names a guided, thresholded sampling request must call.
SAMPLING_NAMES = (
    ("diffusion", "respace"),
    ("diffusion", "cfg_combine"),
    ("diffusion", "predict_x0"),
    ("diffusion", "dynamic_threshold"),
    ("nn", "sinusoidal_embed"),
    ("nn", "silu"),
    ("nn", "LinearLayer.forward"),
)


def test_a_guided_thresholded_request_calls_every_sampling_name(monkeypatch):
    assert set(SAMPLING_NAMES) <= set(wrapped_names())
    model = ConditionalDenoiser(2, 1, hidden_dims=(8, 8), time_embed_dim=8, seed=0)
    model.fitted = True
    calls = dict.fromkeys(SAMPLING_NAMES, 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # As the shims patch: a method on its class, a function under every
    # module namespace of the package that holds it.
    package = [m for n, m in sys.modules.items() if n == "preimage" or n.startswith("preimage.")]
    for module, qual in SAMPLING_NAMES:
        home = importlib.import_module(f"preimage.{module}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            owner = getattr(home, cls_name)
            monkeypatch.setattr(owner, attr, counted((module, qual), owner.__dict__[attr]))
            continue
        fn = getattr(home, qual)
        for mod in package:
            if mod.__dict__.get(qual) is fn:
                monkeypatch.setattr(mod, qual, counted((module, qual), fn))

    cfg = SampleConfig(seed=0, guidance_scale=2.0, threshold=True, respace_steps=3)
    sample_batch(model, np.array([1.0]), make_cosine_schedule(12), cfg, 4)
    assert all(calls.values()), calls
    assert calls["nn", "sinusoidal_embed"] == 1
