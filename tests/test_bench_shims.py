"""The benchmark's timing shims name callables of this package by string.

bench/run.py --trace 1 stops when a wrapped name records no calls, so a
rename in the package, or a refactor that stops calling a name, would first
show in a traced benchmark run. These tests read the WRAPPED table from
bench/shims.py without importing it, check that every name resolves as the
shims look it up, and check that one sampling request and one oracle-compare
pass call the names they are traced by. The shims' tracer keeps one span
stack, so an oracle-compare pass on two distance lanes must call every
wrapped name on the calling thread.
"""

import ast
import importlib
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from preimage import embedders as M
from preimage import evaluation as E
from preimage import nn
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


def count_calls(monkeypatch, names, threads=None):
    """Patch each (module, qualified name) with a call counter, as the shims
    patch: a method on its class, a function under every module namespace
    of the package that holds it. Returns the counts by name; threads, a
    set if given, gets the ident of every thread that calls a name."""
    calls = dict.fromkeys(names, 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if threads is not None:
                threads.add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    package = [m for n, m in sys.modules.items() if n == "preimage" or n.startswith("preimage.")]
    for module, qual in names:
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
    return calls


def test_a_guided_thresholded_request_calls_every_sampling_name(monkeypatch):
    assert set(SAMPLING_NAMES) <= set(wrapped_names())
    model = ConditionalDenoiser(2, 1, hidden_dims=(8, 8), time_embed_dim=8, seed=0)
    model.freeze()
    calls = count_calls(monkeypatch, SAMPLING_NAMES)
    cfg = SampleConfig(seed=0, guidance_scale=2.0, threshold=True, respace_steps=3)
    sample_batch(model, np.array([1.0]), make_cosine_schedule(12), cfg, 4)
    assert all(calls.values()), calls
    assert calls["nn", "sinusoidal_embed"] == 1


# The wrapped names the oracle-compare path must call: every evaluation and
# RadiusEmbedder name but verification_accuracy, which it does not run.
ORACLE_COMPARE_NAMES = (
    ("evaluation", "rejection_oracle"),
    ("evaluation", "energy_distance"),
    ("evaluation", "identity_error"),
    ("evaluation", "whitebox_gd_invert"),
    ("embedders", "draw_points"),
    ("embedders", "RadiusEmbedder.embed"),
    ("embedders", "RadiusEmbedder.embed_grad"),
)


def test_an_oracle_compare_pass_calls_every_oracle_compare_name(monkeypatch):
    assert set(ORACLE_COMPARE_NAMES) <= set(wrapped_names())
    assert {(m, q) for m, q in wrapped_names() if m == "evaluation" or
            q.startswith("RadiusEmbedder.")} - set(ORACLE_COMPARE_NAMES) == \
        {("evaluation", "verification_accuracy")}
    calls = count_calls(monkeypatch, ORACLE_COMPARE_NAMES)
    runs = oracle_compare_pass(20)
    assert all(calls.values()), calls
    # One gradient per descent step: the traced bench counts these calls.
    assert calls["embedders", "RadiusEmbedder.embed_grad"] == sum(r.n_steps for r in runs) > 0


def oracle_compare_pass(n):
    """bench/run.py's oracle-compare pass on n oracle draws a side; returns
    the white-box runs. The names are looked up on the modules at call time,
    as bench/run.py calls them."""
    embedder, target = M.RadiusEmbedder(2), np.array([1.0])
    spec = M.DatasetSpec("annulus", 2, 1, seed=0)

    def draw(rng, count):
        return M.draw_points(spec, rng, count)

    rng = np.random.default_rng(0)
    oracle_a = E.rejection_oracle(embedder, target, 0.1, draw, n, rng, batch_size=256)
    oracle_b = E.rejection_oracle(embedder, target, 0.1, draw, n, rng, batch_size=256)
    E.energy_distance(oracle_a, oracle_b)
    E.identity_error(oracle_a, target, embedder)
    return [E.whitebox_gd_invert(embedder, target, x0)
            for x0 in M.draw_points(spec, np.random.default_rng(1), 3)]


def test_an_oracle_compare_pass_on_two_lanes_calls_every_name_on_the_caller(monkeypatch):
    # The bench's Tracer keeps one span stack, so its spans are exact only
    # while every wrapped name runs on the calling thread: the distance
    # lanes must call none of them.
    monkeypatch.setattr(nn, "WORKERS", 2)
    lane_threads, run_lanes = set(), nn.run_lanes

    def recording(fn, lanes, pool):
        def lane(w):
            lane_threads.add(threading.get_ident())
            return fn(w)
        return run_lanes(lane, lanes, pool)

    monkeypatch.setattr(nn, "run_lanes", recording)
    callers = set()
    calls = count_calls(monkeypatch, wrapped_names(), callers)
    oracle_compare_pass(3 * E.DISTANCE_ROWS + 5)
    assert all(calls[name] for name in ORACLE_COMPARE_NAMES), calls
    assert len(lane_threads) == 2
    assert callers == {threading.get_ident()}
