"""End-to-end checks for the command line front end.

Every test drives main() in-process with a tiny config so the whole file
stays fast; one subprocess test confirms the module entry point is wired.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preimage.cli import _dataset_columns_from_csv, load_run_config, main
from preimage.diffusion import SampleConfig, sample_batch
from preimage.embedders import (_DISTRIBUTIONS, _PARAMS, draw_points, generate_dataset,
                                make_embedder)
from preimage.evaluation import identity_distances
from preimage.nn import ConditionalDenoiser, EmaParams, param_count
from preimage.persistence import _BOUNDS, load_checkpoint, read_csv, save_checkpoint

TINY_CONFIG = {
    "dataset": {
        "distribution": "annulus",
        "input_dim": 2,
        "n_samples": 96,
        "seed": 0,
        "attribute": "upper",
    },
    "embedder": {"name": "radius", "input_dim": 2, "output_dim": 1, "seed": 0},
    "model": {"hidden_dims": [8, 8], "time_embed_dim": 8},
    "train": {
        "seed": 3,
        "timesteps": 8,
        "batch_size": 16,
        "total_batches": 12,
        "learning_rate": 1e-3,
    },
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config file, dataset CSV, and trained checkpoint shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    cfg = dict(TINY_CONFIG)
    cfg["output_dir"] = str(root)
    config.write_text(json.dumps(cfg))
    assert main(["dataset", "--config", str(config), "--out", "data.csv"]) == 0
    assert main(["train", "--config", str(config), "--out", "model.ckpt"]) == 0
    return {
        "root": root,
        "config": str(config),
        "data": str(root / "data.csv"),
        "checkpoint": str(root / "model.ckpt"),
    }


class TestDataset:
    def test_writes_expected_columns(self, workspace):
        header, rows = read_csv(workspace["data"])
        assert header[:6] == ["sample_id", "x_0", "x_1", "y_0", "a_0", "angle"]
        assert "radius" in header and "upper" in header
        assert len(rows) == 96

    def test_embeddings_match_radii(self, workspace):
        header, rows = read_csv(workspace["data"])
        x0, x1 = header.index("x_0"), header.index("x_1")
        y0 = header.index("y_0")
        for r in rows[:10]:
            np.testing.assert_allclose(
                float(r[y0]), np.hypot(float(r[x0]), float(r[x1])), rtol=1e-12
            )

    def test_env_var_overrides_output_dir(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["dataset", "--config", workspace["config"],
                     "--out", "env.csv"]) == 0
        assert (tmp_path / "env.csv").exists()

    def test_mismatched_dims_rejected_before_compute(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["embedder"]["input_dim"] = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["dataset", "--config", str(path)]) == 1
        assert "input_dim" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["train"]["learning_rte"] = 1e-3
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(cfg))
        assert main(["dataset", "--config", str(path)]) == 1
        assert "learning_rte" in capsys.readouterr().err

    def test_invalid_json_is_usage_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["dataset", "--config", str(path)]) == 1

    def test_missing_config_file_is_runtime_error(self, tmp_path):
        assert main(["dataset", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("dataset, embedder", [
        ({"distribution": "annulus", "input_dim": 2},
         {"name": "radius", "input_dim": 2}),
        ({"distribution": "annulus", "input_dim": 2, "attribute": "angle"},
         {"name": "frozen-mlp", "input_dim": 2, "output_dim": 3}),
        ({"distribution": "gaussian-mixture", "input_dim": 3, "attribute": "component"},
         {"name": "frozen-mlp", "input_dim": 3, "output_dim": 4, "seed": 2}),
        ({"distribution": "clustered-identities", "input_dim": 4},
         {"name": "linear", "input_dim": 4, "output_dim": 2, "seed": 1}),
    ])
    def test_csv_reads_back_bit_for_bit(self, dataset, embedder, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "dataset": {**dataset, "n_samples": 200, "seed": 5},
            "embedder": embedder, "output_dir": str(tmp_path)}))
        assert main(["dataset", "--config", str(path), "--out", "data.csv"]) == 0
        cfg = load_run_config(str(path))
        ds = generate_dataset(cfg.dataset, make_embedder(cfg.embedder))
        ys, metadata = _dataset_columns_from_csv(str(tmp_path / "data.csv"))
        assert ys.shape == ds.y.shape and ys.tobytes() == ds.y.tobytes()
        assert ys.flags["C_CONTIGUOUS"]  # as ds.y, so fit_pca sums in the same order
        assert sorted(metadata) == sorted(ds.metadata)
        for key, column in ds.metadata.items():
            assert metadata[key].tobytes() == column.tobytes()

    @pytest.mark.parametrize("section, key, value", [
        ("dataset", "distribution", None),
        ("dataset", "input_dim", "two"),
        ("dataset", "input_dim", 2.0),
        ("dataset", "seed", -1),
        ("dataset", "params", [1]),
        ("embedder", "name", None),
        ("embedder", "output_dim", True),
        ("model", "hidden_dims", 5),
        ("model", "hidden_dims", ["8", 8]),
        ("train", "batch_size", "x"),
        ("train", "learning_rate", "fast"),
        ("train", "seed", None),
        (None, "output_dir", 3),
        (None, "model", [8, 8]),
        (None, "embedder", None),
    ])
    def test_malformed_config_is_configuration_error(self, tmp_path, capsys,
                                                     section, key, value):
        # None as a value deletes the key; None as a section is the top level.
        cfg = json.loads(json.dumps(TINY_CONFIG))
        target = cfg if section is None else cfg[section]
        if value is None:
            del target[key]
        else:
            target[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["dataset", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and repr(key) in err

    @pytest.mark.parametrize("bad", ["float", "bool", "str", "below"])
    @pytest.mark.parametrize("section, key, minimum", [
        ("dataset", "input_dim", 1), ("dataset", "n_samples", 1), ("dataset", "seed", 0),
        ("embedder", "input_dim", 1), ("embedder", "output_dim", 1), ("embedder", "seed", 0),
        ("model", "hidden_dims", 1), ("model", "time_embed_dim", 1),
        ("train", "seed", 0), ("train", "timesteps", 1), ("train", "batch_size", 1),
        ("train", "total_batches", 1),
    ])
    def test_every_integer_key_is_checked_before_compute(self, tmp_path, capsys,
                                                          section, key, minimum, bad):
        value = {"float": 2.5, "bool": True, "str": "3", "below": minimum - 1}[bad]
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg[section][key] = [8, value] if key == "hidden_dims" else value
        cfg["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["dataset", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and repr(key) in err
        assert os.listdir(tmp_path) == ["bad.json"]

    def test_config_that_is_not_an_object_is_configuration_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([TINY_CONFIG]))
        assert main(["dataset", "--config", str(path)]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    def test_null_attribute_and_integer_rates_are_accepted(self, tmp_path):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["dataset"]["attribute"] = None
        cfg["train"]["learning_rate"] = 1
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(cfg))
        loaded = load_run_config(str(path))
        assert loaded.dataset.attribute is None and loaded.train.learning_rate == 1
        assert loaded.embedder.output_dim == 1 and loaded.hidden_dims == (8, 8)

    def test_ragged_dataset_csv_is_configuration_error(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("sample_id,y_0,upper\n0,0.5,1.0\n1,0.7\n")
        assert main(["direction", "--data", str(path), "--mode", "pca"]) == 1
        assert "not a table of numbers" in capsys.readouterr().err


def write_config(path, cfg):
    """cfg as JSON at path, NaN and infinities as json writes them."""
    path.write_text(json.dumps(cfg))
    return str(path)


class TestRunConfigEncoding:
    @pytest.mark.parametrize("source", ["latin-1", "checkpoint"])
    @pytest.mark.parametrize("command", ["dataset", "train", "oracle-compare"])
    def test_a_config_that_is_not_utf8_exits_1(self, workspace, tmp_path, capsys,
                                               command, source):
        if source == "checkpoint":  # a binary file passed as the config
            path = workspace["checkpoint"]
        else:
            path = tmp_path / "latin1.json"
            path.write_bytes(json.dumps(TINY_CONFIG).replace("annulus", "annulusé")
                             .encode("latin-1"))
        out = tmp_path / "out"
        args = [command, "--config", str(path), "--out", str(out)]
        if command == "oracle-compare":
            args += ["--checkpoint", workspace["checkpoint"], "--target-y", "1.0",
                     "--seed", "13"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: config is not UTF-8 text")
        assert not out.exists()


class TestDatasetParams:
    def with_params(self, tmp_path, distribution, params, **dataset):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["dataset"].update({"distribution": distribution, "params": params,
                               "attribute": None, **dataset})
        cfg["output_dir"] = str(tmp_path)
        return write_config(tmp_path / "params.json", cfg)

    def test_every_distribution_has_a_params_schema(self):
        assert set(_PARAMS) == set(_DISTRIBUTIONS)

    @pytest.mark.parametrize("distribution, params, named", [
        ("annulus", {"r_min": "a"}, "'r_min'"),
        ("annulus", {"r_max": math.inf}, "'r_max'"),
        ("annulus", {"r_max": 10**400}, "'r_max'"),
        ("annulus", {"r_min": -0.5}, "'r_min'"),
        ("annulus", {"r_mn": 0.2}, "r_mn"),
        ("annulus", {"spread": 2.0}, "spread"),
        ("gaussian-mixture", {"spread": -1}, "'spread'"),
        ("gaussian-mixture", {"spread": [2.0]}, "'spread'"),
        ("gaussian-mixture", {"component_std": math.nan}, "'component_std'"),
        ("gaussian-mixture", {"n_components": 2.5}, "'n_components'"),
        ("gaussian-mixture", {"n_components": True}, "'n_components'"),
        ("clustered-identities", {"cluster_std": "wide"}, "'cluster_std'"),
        ("clustered-identities", {"center_scale": -math.inf}, "'center_scale'"),
        ("clustered-identities", {"n_identities": 0}, "'n_identities'"),
    ])
    @pytest.mark.parametrize("command", ["dataset", "train"])
    def test_a_bad_knob_exits_1_naming_it_before_any_draw(self, tmp_path, monkeypatch,
                                                          capsys, command,
                                                          distribution, params, named):
        calls = []
        monkeypatch.setattr("preimage.cli.generate_dataset", lambda *a: calls.append(a))
        path = self.with_params(tmp_path, distribution, params)
        assert main([command, "--config", path, "--out", "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: unknown {distribution} params config keys"
                              if named in ("r_mn", "spread") and distribution == "annulus"
                              else f"configuration error: {distribution} params config")
        assert named in err and calls == []
        assert os.listdir(tmp_path) == ["params.json"]

    def test_an_unknown_distribution_exits_1_before_any_draw(self, tmp_path, monkeypatch,
                                                             capsys):
        calls = []
        monkeypatch.setattr("preimage.cli.generate_dataset", lambda *a: calls.append(a))
        path = self.with_params(tmp_path, "ring", {})
        assert main(["dataset", "--config", path]) == 1
        assert "unknown distribution 'ring'" in capsys.readouterr().err and calls == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("distribution, params", [
        ("annulus", {"r_max": 1e308}),  # finite points whose norms overflow
        ("gaussian-mixture", {"spread": 1e308}),  # centres beyond float64's range
        ("gaussian-mixture", {"component_std": 1e308}),
        ("clustered-identities", {"center_scale": 1e300}),
    ])
    @pytest.mark.parametrize("command", ["dataset", "train"])
    def test_points_or_embeddings_beyond_float64_exit_1_before_any_output(
            self, tmp_path, capsys, command, distribution, params):
        path = self.with_params(tmp_path, distribution, params)
        assert main([command, "--config", path, "--out", "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: dataset params") and "beyond float64" in err
        assert os.listdir(tmp_path) == ["params.json"]

    @pytest.mark.parametrize("dataset", [
        {"n_samples": 10**400}, {"n_samples": 2**63},
        {"distribution": "gaussian-mixture", "params": {"n_components": 10**400}},
        {"distribution": "clustered-identities", "params": {"n_identities": 2**63}},
    ])
    def test_a_count_beyond_the_address_space_exits_2_with_one_line(self, tmp_path, capsys,
                                                                    dataset):
        # numpy refuses such an array with a ValueError before it allocates.
        path = self.with_params(tmp_path, **{"distribution": "annulus", "params": {},
                                             **dataset})
        assert main(["dataset", "--config", path, "--out", "out"]) == 2
        assert capsys.readouterr().err == "error: dataset: out of memory for this request\n"
        assert os.listdir(tmp_path) == ["params.json"]

    @pytest.mark.parametrize("distribution, params, attribute", [
        ("annulus", {"r_min": 0, "r_max": 2}, "radius"),
        ("gaussian-mixture", {"n_components": 3, "spread": 0, "component_std": 0.25},
         "component"),
        ("clustered-identities", {"n_identities": 2, "cluster_std": 0, "center_scale": -1.5},
         "identity"),
    ])
    def test_every_knob_in_range_is_accepted_and_drawn(self, tmp_path, distribution,
                                                       params, attribute):
        path = self.with_params(tmp_path, distribution, params, attribute=attribute)
        assert main(["dataset", "--config", path, "--out", "data.csv"]) == 0
        cfg = load_run_config(path)
        assert cfg.dataset.params == params
        ds = generate_dataset(cfg.dataset, make_embedder(cfg.embedder))
        ys, metadata = _dataset_columns_from_csv(str(tmp_path / "data.csv"))
        assert ys.tobytes() == ds.y.tobytes()
        assert metadata[attribute].tobytes() == ds.metadata[attribute].tobytes()


# Values a mutated dataset config may hold where a knob or field belongs. A
# count of 10**400 is beyond numpy's address space and fails before any
# allocation; the valid sizes stay small.
HOSTILE = [0, -1, 0.5, -0.5, 2.5, 1e308, -1e308, 1e-320, 10**400, math.nan, math.inf,
           -math.inf, "a", "", "2", [], [1.0], {}, None, True, False, "ring", "upper"]
EMBEDDERS = [{"name": "radius"}, {"name": "frozen-mlp", "output_dim": 3},
             {"name": "linear", "output_dim": 2, "seed": 4}]
METADATA = {"annulus": ["radius", "angle", "upper"], "gaussian-mixture": ["component"],
            "clustered-identities": ["identity"]}


@st.composite
def dataset_configs(draw):
    """A valid dataset config of a random distribution, mutated: params from
    its own knobs, another distribution's and a misspelling, each valid or
    hostile, and sometimes one field of the dataset section set to a hostile
    value."""
    distribution = draw(st.sampled_from(sorted(METADATA)))
    dim = 2 if distribution == "annulus" else draw(st.integers(1, 3))
    knobs = sorted(_PARAMS[distribution])
    value = st.one_of(st.sampled_from(HOSTILE), st.integers(-2, 12),
                      st.floats(-1e3, 1e3, allow_nan=False))
    params = draw(st.dictionaries(st.sampled_from(knobs), value, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        params[draw(st.sampled_from(["r_mn", "spred", "spread", "n_identities"]))] = draw(value)
    dataset = {"distribution": distribution, "input_dim": dim,
               "n_samples": draw(st.integers(1, 24)), "seed": draw(st.integers(0, 2**64 - 1)),
               "attribute": draw(st.sampled_from([None, *METADATA[distribution]])),
               "params": params}
    field = draw(st.sampled_from([None] * 6 + sorted(dataset)))
    if field is not None:
        dataset[field] = draw(st.sampled_from(HOSTILE))
    return {"dataset": dataset, "embedder": {**draw(st.sampled_from(EMBEDDERS)),
                                             "input_dim": dim}}


@settings(max_examples=120, deadline=None)
@given(cfg=dataset_configs())
def test_a_mutated_dataset_config_exits_0_1_or_2_with_finite_output(tmp_path_factory, cfg):
    root = tmp_path_factory.mktemp("mutated")
    path = write_config(root / "config.json", {**cfg, "output_dir": str(root)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["dataset", "--config", path, "--out", "data.csv"])
    assert code in (0, 1, 2)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if code == 0:
        _, table = read_csv(str(root / "data.csv"))
        assert np.isfinite(np.array(table, dtype=np.float64)).all()
    else:
        assert not (root / "data.csv").exists()


class TestRunConfigBounds:
    """A count of a run config that a checkpoint cannot hold (persistence's
    _BOUNDS) exits 1 for every subcommand that reads the config, before any
    draw or make_embedder, instead of failing after training or escaping
    from numpy."""

    @pytest.mark.parametrize("section, values, named, field", [
        ("train", {"batch_size": _BOUNDS["batch_size"] + 1}, "train config 'batch_size'",
         "batch_size"),
        ("train", {"batch_size": 10**11}, "train config 'batch_size'", "batch_size"),
        ("train", {"timesteps": _BOUNDS["n_steps"] + 1}, "train config 'timesteps'", "n_steps"),
        ("train", {"timesteps": 10**10}, "train config 'timesteps'", "n_steps"),
        ("train", {"total_batches": _BOUNDS["total_batches"] + 1},
         "train config 'total_batches'", "total_batches"),
        ("model", {"hidden_dims": [2] * (_BOUNDS["n_hidden"] + 1)},
         "the layer count of model config 'hidden_dims'", "n_hidden"),
        ("model", {"hidden_dims": [8, 2**63]}, "a width in model config 'hidden_dims'",
         "hidden_dims"),
        ("model", {"hidden_dims": [_BOUNDS["hidden_dims"] + 1]},
         "a width in model config 'hidden_dims'", "hidden_dims"),
        ("model", {"time_embed_dim": 2**63}, "model config 'time_embed_dim'", "time_embed_dim"),
        ("embedder", {"name": "frozen-mlp", "output_dim": 2**63},
         "embedder config 'output_dim'", "embedder_output_dim"),
        ("embedder", {"name": "linear", "output_dim": _BOUNDS["embedder_output_dim"] + 1},
         "embedder config 'output_dim'", "embedder_output_dim"),
    ])
    @pytest.mark.parametrize("command", ["dataset", "train", "oracle-compare"])
    def test_a_count_beyond_the_checkpoint_exits_1_before_any_draw(
            self, workspace, tmp_path, monkeypatch, capsys, command, section, values, named,
            field):
        calls = []
        for name in ("make_embedder", "generate_dataset", "draw_points", "sample_batch"):
            monkeypatch.setattr(f"preimage.cli.{name}", lambda *a, **k: calls.append(a))
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg[section].update(values)
        cfg["output_dir"] = str(tmp_path)
        path = write_config(tmp_path / "big.json", cfg)
        args = [command, "--config", path, "--out", "out"]
        if command == "oracle-compare":
            args += ["--checkpoint", workspace["checkpoint"], "--target-y", "1.0", "--seed", "1"]
        assert main(args) == 1 and calls == []
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {named} is ")
        assert err.endswith(f", beyond the checkpoint format's bound of {_BOUNDS[field]}\n")
        assert os.listdir(tmp_path) == ["big.json"]

    def test_counts_at_the_checkpoints_bounds_are_accepted(self, tmp_path):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["model"] = {"hidden_dims": [1] * _BOUNDS["n_hidden"],
                        "time_embed_dim": _BOUNDS["time_embed_dim"]}
        cfg["train"].update(timesteps=_BOUNDS["n_steps"], batch_size=_BOUNDS["batch_size"],
                            total_batches=_BOUNDS["total_batches"])
        run = load_run_config(write_config(tmp_path / "edge.json", cfg))
        assert (len(run.hidden_dims), run.train.timesteps) == (64, _BOUNDS["n_steps"])


class TestTrain:
    @pytest.mark.parametrize("seed", ["18446744073709551616", "-5"])
    def test_seed_the_checkpoint_cannot_hold_exits_1_before_training(
            self, workspace, tmp_path, monkeypatch, capsys, seed):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["train", "--config", workspace["config"], "--seed", seed]) == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    def test_checkpoint_loads_and_is_fitted(self, workspace):
        ckpt = load_checkpoint(workspace["checkpoint"])
        assert ckpt.model.fitted
        assert ckpt.embedder_info.name == "radius"
        assert ckpt.config.total_batches == 12

    def test_seed_flag_changes_weights(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["train", "--config", workspace["config"],
                     "--out", "other.ckpt", "--seed", "99"]) == 0
        other = load_checkpoint(str(tmp_path / "other.ckpt"))
        base = load_checkpoint(workspace["checkpoint"])
        assert other.config.seed == 99
        assert not np.array_equal(other.model.params_flat(), base.model.params_flat())

    def test_negative_log_every_exits_1_before_training(self, workspace, tmp_path,
                                                         monkeypatch, capsys):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["train", "--config", workspace["config"], "--log-every", "-1",
                     "--out", "model.ckpt"]) == 1
        captured = capsys.readouterr()
        assert "log_every" in captured.err and "loss" not in captured.out
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_exits_1_before_training(self, tmp_path, capsys, rate):
        # json writes and reads the NaN and Infinity literals.
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["train"]["learning_rate"] = rate
        cfg["output_dir"] = str(tmp_path)
        path = tmp_path / "rate.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path), "--out", "model.ckpt"]) == 1
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    def test_config_without_train_section(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        del cfg["train"]
        path = tmp_path / "no_train.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 1
        assert "train" in capsys.readouterr().err


class TestSample:
    def test_writes_requested_rows(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        code = main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "1.0", "--n", "5", "--seed", "11"])
        assert code == 0
        header, rows = read_csv(str(tmp_path / "samples.csv"))
        assert header == ["sample_id", "x_0", "x_1", "identity_distance"]
        assert len(rows) == 5

    def test_same_seed_same_csv(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        for name in ("a.csv", "b.csv"):
            assert main(["sample", "--checkpoint", workspace["checkpoint"],
                         "--target-y", "1.0", "--n", "4", "--seed", "5",
                         "--out", name]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_scatter_svg(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "1.0", "--n", "3", "--seed", "1",
                     "--scatter", "plot.svg"]) == 0
        text = (tmp_path / "plot.svg").read_text()
        assert "<svg" in text and 'r="1"' in text

    def test_missing_seed_is_usage_error(self, workspace, capsys):
        code = main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "1.0"])
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_negative_seed_is_configuration_error(self, workspace, capsys):
        assert main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "1.0", "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_steps_beyond_the_schedule_exits_1_naming_respace_steps(self, workspace, capsys):
        assert main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "1.0", "--seed", "1", "--steps", "130"]) == 1
        err = capsys.readouterr().err
        assert "respace_steps must be an integer in [1, 8], got 130" in err

    def test_wrong_target_width(self, workspace, capsys):
        code = main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "1.0,2.0", "--seed", "1"])
        assert code == 1
        assert "expects 1" in capsys.readouterr().err

    def test_non_numeric_target(self, workspace):
        assert main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "one", "--seed", "1"]) == 1

    @pytest.mark.parametrize("flags", [["--target-y", "nan"], ["--target-y", "inf"],
                                       ["--target-y", "1.0", "--attr=-inf"],
                                       ["--target-y", "1.0", "--guidance", "nan"]])
    def test_non_finite_number_exits_1_before_sampling(self, workspace, tmp_path,
                                                       monkeypatch, capsys, flags):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sample", "--checkpoint", workspace["checkpoint"], *flags,
                     "--seed", "1"]) == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    def test_empty_attr_is_usage_error(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sample", "--checkpoint", workspace["checkpoint"], "--target-y", "1.0",
                     "--attr", ",", "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("usage error: --attr")
        assert not (tmp_path / "samples.csv").exists()

    def test_missing_checkpoint_is_runtime_error(self, tmp_path):
        assert main(["sample", "--checkpoint", str(tmp_path / "nope.ckpt"),
                     "--target-y", "1.0", "--seed", "1"]) == 2

    def test_header_bomb_checkpoint_is_runtime_error(self, workspace, tmp_path, capsys):
        # The two hidden dims (bytes 48-64 of the header) set to 2^20 would ask
        # for terabytes if the model were built before the payload was checked.
        data = Path(workspace["checkpoint"]).read_bytes()
        path = tmp_path / "bomb.ckpt"
        path.write_bytes(data[:48] + (1 << 20).to_bytes(8, "little") * 2 + data[64:])
        assert main(["sample", "--checkpoint", str(path),
                     "--target-y", "1.0", "--seed", "1"]) == 2
        assert "payload length" in capsys.readouterr().err

    def test_topology_the_model_refuses_is_runtime_error(self, workspace, tmp_path, capsys):
        # time_embed_dim (bytes 32-40 of the header) set to 7, and the zeroed
        # parameter payload resized to match, passes every length check.
        model = load_checkpoint(workspace["checkpoint"]).model
        data = Path(workspace["checkpoint"]).read_bytes()
        params_at = len(data) - 16 * model.params.size
        n_params = param_count({**model.topology(), "time_embed_dim": 7})
        path = tmp_path / "odd.ckpt"
        path.write_bytes(data[:32] + (7).to_bytes(8, "little") + data[40:params_at]
                         + bytes(16 * n_params))
        assert main(["sample", "--checkpoint", str(path),
                     "--target-y", "1.0", "--seed", "1"]) == 2
        assert "time_embed_dim must be even" in capsys.readouterr().err

    def test_an_unknown_embedder_in_the_checkpoint_is_runtime_error(self, workspace,
                                                                     tmp_path, capsys):
        # The file is at fault, not the command line: exit 2, not 1.
        data = Path(workspace["checkpoint"]).read_bytes()
        old = (6).to_bytes(8, "little") + b"radius"
        assert data.count(old) == 1
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(data.replace(old, (5).to_bytes(8, "little") + b"bogus"))
        assert main(["sample", "--checkpoint", str(path),
                     "--target-y", "1.0", "--seed", "1"]) == 2
        assert "unknown embedder 'bogus'" in capsys.readouterr().err

    def test_activations_beyond_float32_exit_2_naming_the_layer_and_step(
            self, workspace, tmp_path, monkeypatch, capsys):
        # Weights float32 holds whose activations it does not: both trunk
        # maps of a fresh (8, 8) model scaled by 1e20, the output by 1e-30.
        ckpt = load_checkpoint(workspace["checkpoint"])
        model = ConditionalDenoiser(**ckpt.model.topology(), seed=0)
        for layer in model.mains:
            layer.weight[...] *= 1e20
        model.output.weight[...] = 1e-30
        path = tmp_path / "overflow.ckpt"
        save_checkpoint(str(path), replace(ckpt, model=model, ema=EmaParams(model.params)))
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sample", "--checkpoint", str(path),
                         "--target-y", "1.0", "--seed", "1"]) == 2
        assert capsys.readouterr().err == ("error: hidden layer 1's activations at reverse "
                                           "step 2: values beyond float32's range\n")
        assert not (tmp_path / "samples.csv").exists()

    def test_attr_model_defaults_to_no_preference_token(self, workspace, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "1.0", "--n", "3", "--seed", "2"]) == 0
        assert "no-preference" in capsys.readouterr().out

    def test_attr_model_csv_equals_the_library(self, workspace, tmp_path, monkeypatch):
        # Without --attr, sample asks the library for its own default, the
        # no-preference token, and reports the library's identity distances.
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "1.0", "--n", "6", "--seed", "21"]) == 0
        _, rows = read_csv(str(tmp_path / "samples.csv"))
        ckpt = load_checkpoint(workspace["checkpoint"])
        assert ckpt.model.attr_dim == 1
        y = np.array([1.0])
        xs = sample_batch(ckpt.ema_model(), y, ckpt.schedule, SampleConfig(seed=21), 6)
        dists = identity_distances(xs, y, make_embedder(ckpt.embedder_info))
        table = np.array(rows, dtype=np.float64)
        assert table[:, 1:3].tobytes() == xs.tobytes()
        assert table[:, 3].tobytes() == dists.tobytes()

    def test_attr_of_the_wrong_width_exits_1(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sample", "--checkpoint", workspace["checkpoint"], "--target-y", "1.0",
                     "--attr", "1,2", "--seed", "1"]) == 1
        assert "--attr has 2 entries but the model expects 1" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    def test_attr_on_attrless_model_rejected(self, workspace, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        del cfg["dataset"]["attribute"]
        cfg["output_dir"] = str(tmp_path)
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path), "--out", "plain.ckpt"]) == 0
        code = main(["sample", "--checkpoint", str(tmp_path / "plain.ckpt"),
                     "--target-y", "1.0", "--attr", "1.0", "--seed", "2"])
        assert code == 1
        assert "attribute" in capsys.readouterr().err


class TestInterpolate:
    def test_grid_times_n_per_rows(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["interpolate", "--checkpoint", workspace["checkpoint"],
                     "--y1", "0.7", "--y2", "1.3", "--grid", "3", "--n-per", "2",
                     "--mode", "lerp", "--seed", "4"]) == 0
        header, rows = read_csv(str(tmp_path / "interpolation.csv"))
        assert header == ["tau", "x_0", "x_1", "identity_distance"]
        assert [r[0] for r in rows] == ["0.0", "0.0", "0.5", "0.5", "1.0", "1.0"]

    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_grid_below_one_exits_1_before_loading(self, tmp_path, monkeypatch, capsys,
                                                   grid):
        # The checkpoint does not exist: the grid is refused before it is read.
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["interpolate", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--y1", "0.7", "--y2", "1.3", "--grid", grid, "--seed", "4"]) == 1
        assert "--grid" in capsys.readouterr().err
        assert not (tmp_path / "interpolation.csv").exists()

    def test_endpoint_width_checked(self, workspace, capsys):
        code = main(["interpolate", "--checkpoint", workspace["checkpoint"],
                     "--y1", "0.7,0.1", "--y2", "1.3", "--seed", "4"])
        assert code == 1
        assert "--y1" in capsys.readouterr().err

    def test_negative_seed_exits_1(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["interpolate", "--checkpoint", workspace["checkpoint"],
                     "--y1", "0.7", "--y2", "1.3", "--grid", "2", "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "interpolation.csv").exists()


class TestDirection:
    def test_binary_split(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["direction", "--data", workspace["data"],
                     "--mode", "binary", "--feature", "upper"]) == 0
        header, rows = read_csv(str(tmp_path / "directions.csv"))
        assert header == ["label", "provenance", "weight", "v_0"]
        assert rows[0][0] == "upper" and rows[0][1] == "binary-split"
        assert abs(float(rows[0][3])) == pytest.approx(1.0)

    @pytest.mark.parametrize("n_axes", ["0", "2"])
    def test_n_axes_outside_the_embedding_width_exits_1(self, workspace, tmp_path,
                                                        monkeypatch, capsys, n_axes):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["direction", "--data", workspace["data"], "--mode", "pca",
                     "--n-axes", n_axes]) == 1
        assert "--n-axes" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_percentile_split(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["direction", "--data", workspace["data"],
                     "--mode", "percentile", "--feature", "radius"]) == 0
        _, rows = read_csv(str(tmp_path / "directions.csv"))
        assert rows[0][1] == "percentile-split"
        # low-radius group to high-radius group points toward larger radius
        assert float(rows[0][3]) == pytest.approx(1.0)

    def test_pca_axes(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["direction", "--data", workspace["data"],
                     "--mode", "pca"]) == 0
        _, rows = read_csv(str(tmp_path / "directions.csv"))
        assert len(rows) == 1  # radius embedding is one-dimensional
        assert rows[0][1] == "pca-axis"
        assert float(rows[0][2]) > 0  # annulus radii have positive variance

    def test_binary_mode_needs_binary_feature(self, workspace, capsys):
        assert main(["direction", "--data", workspace["data"],
                     "--mode", "binary", "--feature", "radius"]) == 1
        assert "distinct" in capsys.readouterr().err

    def test_split_modes_need_feature_flag(self, workspace, capsys):
        assert main(["direction", "--data", workspace["data"],
                     "--mode", "binary"]) == 1
        assert "--feature" in capsys.readouterr().err

    def test_unknown_feature(self, workspace):
        assert main(["direction", "--data", workspace["data"],
                     "--mode", "binary", "--feature", "ghost"]) == 1


class TestSweep:
    def test_row_per_scale(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sweep", "--checkpoint", workspace["checkpoint"],
                     "--s", "1.0,2.0,3.0", "--target-y", "1.0",
                     "--n", "2", "--seed", "7"]) == 0
        header, rows = read_csv(str(tmp_path / "sweep.csv"))
        assert header == ["s", "identity_error", "diversity", "n"]
        assert [r[0] for r in rows] == ["1.0", "2.0", "3.0"]
        assert all(r[3] == "2" for r in rows)

    def test_multiple_targets_average(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sweep", "--checkpoint", workspace["checkpoint"],
                     "--s", "2.0", "--target-y", "0.8;1.2",
                     "--n", "2", "--seed", "7", "--out", "multi.csv"]) == 0
        _, rows = read_csv(str(tmp_path / "multi.csv"))
        assert len(rows) == 1

    def test_empty_scales_is_usage_error(self, workspace, capsys):
        assert main(["sweep", "--checkpoint", workspace["checkpoint"],
                     "--s", ",", "--target-y", "1.0", "--seed", "7"]) == 1
        assert "--s" in capsys.readouterr().err

    @pytest.mark.parametrize("scales", ["1,nan", "inf", "1,two"])
    def test_bad_scale_exits_1_before_sampling(self, workspace, tmp_path, monkeypatch,
                                               capsys, scales):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sweep", "--checkpoint", workspace["checkpoint"], "--s", scales,
                     "--target-y", "1.0", "--n", "2", "--seed", "7"]) == 1
        assert "--s" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("targets, error", [(";", "usage"), ("1.0;1.0,2.0", "configuration")])
    def test_no_target_or_a_wrong_width_exits_1(self, workspace, tmp_path, monkeypatch,
                                                capsys, targets, error):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sweep", "--checkpoint", workspace["checkpoint"], "--s", "2.0",
                     "--target-y", targets, "--n", "2", "--seed", "7"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(error) and "--target-y" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_negative_seed_exits_1(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sweep", "--checkpoint", workspace["checkpoint"], "--s", "2.0",
                     "--target-y", "1.0", "--n", "2", "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


class TestEval:
    def _write_pairs(self, path):
        path.write_text(
            "distance,is_same\n0.1,1\n0.2,1\n0.8,0\n0.9,0\n"
        )

    def test_verification(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        pairs = tmp_path / "pairs.csv"
        self._write_pairs(pairs)
        assert main(["eval", "--task", "verification", "--pairs", str(pairs)]) == 0
        header, rows = read_csv(str(tmp_path / "eval.csv"))
        assert header == ["threshold", "accuracy", "n_pairs"]
        assert float(rows[0][1]) == 1.0
        assert rows[0][2] == "4"

    def test_identity_and_diversity(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "1.0", "--n", "4", "--seed", "9"]) == 0
        samples = str(tmp_path / "samples.csv")
        assert main(["eval", "--task", "identity", "--samples", samples,
                     "--checkpoint", workspace["checkpoint"],
                     "--target-y", "1.0", "--out", "id.csv"]) == 0
        assert main(["eval", "--task", "diversity", "--samples", samples,
                     "--out", "div.csv"]) == 0
        _, id_rows = read_csv(str(tmp_path / "id.csv"))
        _, div_rows = read_csv(str(tmp_path / "div.csv"))
        assert id_rows[0][0] == "identity" and float(id_rows[0][1]) >= 0
        assert div_rows[0][0] == "diversity" and float(div_rows[0][1]) >= 0

    def test_diversity_on_a_ragged_samples_csv_exits_1(self, workspace, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        samples = tmp_path / "ragged.csv"
        samples.write_text("sample_id,x_0,x_1,identity_distance\n0,0.5,0.1,0.0\n1,0.2\n")
        assert main(["eval", "--task", "diversity", "--samples", str(samples)]) == 1
        assert "not a table of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["yes", "nan"])
    def test_verification_with_a_non_numeric_label_exits_1(self, workspace, tmp_path,
                                                          monkeypatch, capsys, label):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"distance,is_same\n0.1,{label}\n0.9,0\n")
        assert main(["eval", "--task", "verification", "--pairs", str(pairs)]) == 1
        assert "not a table of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["0.5", "2", "-1"])
    def test_verification_with_a_label_other_than_0_or_1_exits_1(
            self, workspace, tmp_path, monkeypatch, capsys, label):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"distance,is_same\n0.1,1\n0.5,{label}\n0.9,0\n")
        assert main(["eval", "--task", "verification", "--pairs", str(pairs)]) == 1
        assert f"column 'is_same' must hold 0 or 1, got {label}" in capsys.readouterr().err
        assert not (tmp_path / "eval.csv").exists()

    @pytest.mark.parametrize("task, flag", [("diversity", "--samples"),
                                            ("verification", "--pairs")])
    def test_non_utf8_table_exits_1(self, workspace, tmp_path, monkeypatch, capsys,
                                    task, flag):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        path = tmp_path / "latin1.csv"
        path.write_bytes("distance,is_same,x_0\n0.1,1,0.5\n".encode() + b"\xe9\xff\n")
        assert main(["eval", "--task", task, flag, str(path)]) == 1
        assert "not a table of numbers" in capsys.readouterr().err

    def test_verification_requires_pairs(self, workspace, capsys):
        assert main(["eval", "--task", "verification"]) == 1
        assert "--pairs" in capsys.readouterr().err

    def test_identity_requires_target(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "1.0", "--n", "3", "--seed", "9"]) == 0
        assert main(["eval", "--task", "identity",
                     "--samples", str(tmp_path / "samples.csv"),
                     "--checkpoint", workspace["checkpoint"]]) == 1

    def test_identity_target_width_checked(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "1.0", "--n", "3", "--seed", "9"]) == 0
        assert main(["eval", "--task", "identity", "--samples", str(tmp_path / "samples.csv"),
                     "--checkpoint", workspace["checkpoint"], "--target-y", "1,2",
                     "--out", "id.csv"]) == 1
        assert "--target-y has 2 entries but the model expects 1" in capsys.readouterr().err
        assert not (tmp_path / "id.csv").exists()

    def test_identity_on_samples_of_another_width_exits_1(self, workspace, tmp_path,
                                                         monkeypatch, capsys):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        samples = tmp_path / "wide.csv"
        samples.write_text("sample_id,x_0,x_1,x_2\n0,0.5,0.1,0.2\n1,0.2,0.3,0.4\n")
        assert main(["eval", "--task", "identity", "--samples", str(samples),
                     "--checkpoint", workspace["checkpoint"], "--target-y", "1.0",
                     "--out", "id.csv"]) == 1
        err = capsys.readouterr().err
        assert str(samples) in err and "3 x_* columns" in err
        assert not (tmp_path / "id.csv").exists()


class TestOracleCompare:
    def test_emits_energy_and_gd_rows(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        code = main(["oracle-compare", "--checkpoint", workspace["checkpoint"],
                     "--config", workspace["config"], "--target-y", "1.0",
                     "--epsilon", "0.3", "--n", "8", "--gd-inits", "3",
                     "--seed", "13"])
        assert code == 0
        header, rows = read_csv(str(tmp_path / "oracle_compare.csv"))
        metrics = {r[0] for r in rows}
        assert {"energy_diffusion_vs_oracle", "energy_oracle_vs_oracle",
                "gd_converged_fraction"} <= metrics
        by_name = {r[0]: float(r[1]) for r in rows}
        assert by_name["gd_converged_fraction"] == 1.0
        assert by_name["energy_oracle_vs_oracle"] >= 0.0


    @pytest.mark.parametrize("inits", ["0", "-1"])
    def test_gd_inits_below_one_exits_1_before_sampling(self, workspace, tmp_path,
                                                        monkeypatch, capsys, inits):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        calls = []
        monkeypatch.setattr("preimage.cli.sample_batch", lambda *a, **k: calls.append(a))
        code = main(["oracle-compare", "--checkpoint", workspace["checkpoint"],
                     "--config", workspace["config"], "--target-y", "1.0",
                     "--gd-inits", inits, "--seed", "13"])
        assert code == 1 and calls == []
        assert "--gd-inits" in capsys.readouterr().err

    def test_nan_epsilon_exits_1_before_the_oracle_draws(self, workspace, tmp_path,
                                                         monkeypatch, capsys):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        draws = []
        monkeypatch.setattr("preimage.cli.draw_points", lambda *a: draws.append(a))
        assert main(["oracle-compare", "--checkpoint", workspace["checkpoint"],
                     "--config", workspace["config"], "--target-y", "1.0",
                     "--epsilon", "nan", "--seed", "13"]) == 1
        assert draws == [] and "epsilon" in capsys.readouterr().err
        assert not (tmp_path / "oracle_compare.csv").exists()


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("distribution, params, message", [
        ("annulus", {"r_max": 1e308}, "the distances of draw(rng, 4096)'s embeddings"),
        ("gaussian-mixture", {"spread": 1e308, "n_components": 8}, "dataset params"),
    ])
    def test_params_beyond_float64_exit_1_after_one_batch(self, workspace, tmp_path,
                                                          monkeypatch, capsys, distribution,
                                                          params, message):
        draws = []

        def counted(spec, rng, n):
            draws.append(n)
            return draw_points(spec, rng, n)

        monkeypatch.setattr("preimage.cli.draw_points", counted)
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["dataset"].update(distribution=distribution, params=params, attribute=None)
        path = write_config(tmp_path / "far.json", cfg)
        assert main(["oracle-compare", "--checkpoint", workspace["checkpoint"], "--config", path,
                     "--target-y", "1.0", "--seed", "13", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {message}") and len(err.splitlines()) == 1
        assert err.endswith("beyond float64's range\n") and draws == [4096]
        assert os.listdir(tmp_path) == ["far.json"]


def child_env(**extra):
    """os.environ plus extra, with this checkout's src first on PYTHONPATH,
    so that a child's python -m preimage runs the code under test."""
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_in_address_space(args, limit=2 << 30):
    """python -m preimage with args, in a child process whose address space,
    and only its own, is capped at limit bytes."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "preimage", *args], capture_output=True,
                          text=True, env=env, preexec_fn=cap, timeout=60)


class TestEntryPoints:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("command, section, values", [
        ("dataset", "dataset", {"n_samples": 10**12}),
        ("train", "model", {"hidden_dims": [10**6, 10**6]}),
        ("train", "model", {"hidden_dims": [1 << 20, 1 << 20]}),  # at the checkpoint's bound
        ("sample", None, ["--target-y", "1.0", "--n", str(10**12)]),
        ("interpolate", None, ["--y1", "0.7", "--y2", "1.3", "--grid", str(10**12)]),
    ])
    def test_oversized_count_exits_2_with_one_line(self, workspace, tmp_path, command,
                                                   section, values):
        # Valid requests that no machine here can hold: each one's first large
        # allocation fails under the cap, and none may end in a traceback.
        if section is None:
            args = [command, "--checkpoint", workspace["checkpoint"], "--seed", "1",
                    *values, "--out", str(tmp_path / "out.csv")]
        else:
            cfg = json.loads(json.dumps(TINY_CONFIG))
            cfg[section].update(values)
            cfg["output_dir"] = str(tmp_path)
            (tmp_path / "big.json").write_text(json.dumps(cfg))
            args = [command, "--config", str(tmp_path / "big.json"), "--out", "out"]
        proc = run_in_address_space(args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [f"error: {command}: out of memory for this request"]
        assert os.listdir(tmp_path) == (["big.json"] if section else [])

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "preimage", "--help"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "sample" in proc.stdout


# Values a flag of a sampling or evaluation subcommand may hold, as (valid,
# hostile): small counts only, so that no example allocates much, and the
# hostile values of every numeric flag (zero, negatives, NaN, infinities,
# 1e308, empty, ragged or not a number).
HOSTILE_NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "", "a"]
NUMBER = (["0.5", "1", "2"], HOSTILE_NUMBERS)
VECTOR = (["0.9", "1.0", "1.2"], [*HOSTILE_NUMBERS, "1,2", "1,", ",", "1;2", "1.0,nan"])
COUNT = (["1", "2", "3"], ["0", "-1", "nan", "1e308", ""])
SEED = (["0", "7"], ["-1", "18446744073709551616", "nan"])


@pytest.fixture(scope="module")
def argv_files(workspace):
    """(valid, wrong) files for each file flag: wrong ones are a CSV of
    another kind, the checkpoint read as text, a missing path and the run
    config whose annulus draws embed beyond float64's range."""
    root = workspace["root"]
    assert main(["sample", "--checkpoint", workspace["checkpoint"], "--seed", "1",
                 "--target-y", "1.0", "--n", "4", "--out", str(root / "samples.csv")]) == 0
    (root / "pairs.csv").write_text("distance,is_same\n0.1,1\n0.9,0\n0.4,1\n0.7,0\n")
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["dataset"]["params"] = {"r_max": 1e308}
    far = write_config(root / "far.json", cfg)
    data, samples, pairs, ckpt = (workspace["data"], str(root / "samples.csv"),
                                  str(root / "pairs.csv"), workspace["checkpoint"])
    missing = str(root / "missing")
    return {"--checkpoint": ([ckpt], [workspace["config"], data, missing]),
            "--config": ([workspace["config"]], [far, ckpt, missing]),
            "--data": ([data], [samples, pairs, ckpt, missing]),
            "--samples": ([samples], [data, pairs, ckpt, missing]),
            "--pairs": ([pairs], [data, samples, ckpt, missing])}


# Each subcommand's flags and their (valid, hostile) values; None for a flag
# that takes no value. A flag in REQUIRED is always passed; the others are
# passed or left out at random.
SAMPLING = {"--seed": SEED, "--steps": (["1", "2", "8"], ["9", "0", "-1"]),
            "--variance": (["posterior", "beta"], ["x"]), "--no-ema": None}
GRAMMAR = {
    "sample": {**SAMPLING, "--target-y": VECTOR, "--attr": (["0", "1"], VECTOR[1]),
               "--n": COUNT, "--guidance": NUMBER,
               "--threshold": (["auto", "on", "off"], ["x"])},
    "interpolate": {**SAMPLING, "--y1": VECTOR, "--y2": VECTOR, "--guidance": NUMBER,
                    "--mode": (["slerp", "lerp"], ["x"]), "--grid": COUNT, "--n-per": COUNT},
    "direction": {"--mode": (["binary", "percentile", "pca"], ["x"]),
                  "--feature": (["upper", "radius", "angle"], ["a_0", "x_0", "nope", ""]),
                  "--n-axes": COUNT},
    "sweep": {**SAMPLING, "--s": (["1", "0,2", "1,3"], VECTOR[1]),
              "--target-y": (["1.0", "1;0.5"], [*VECTOR[1], "1;;"]), "--n": COUNT},
    "eval": {"--task": (["identity", "diversity", "verification"], ["x"]),
             "--target-y": VECTOR},
    "oracle-compare": {**SAMPLING, "--target-y": VECTOR, "--guidance": NUMBER,
                       "--epsilon": (["0.3", "0.05"], HOSTILE_NUMBERS), "--n": COUNT,
                       "--gd-inits": COUNT},
}
FILES = {"sample": ["--checkpoint"], "interpolate": ["--checkpoint"], "direction": ["--data"],
         "sweep": ["--checkpoint"], "eval": ["--samples", "--pairs", "--checkpoint"],
         "oracle-compare": ["--checkpoint", "--config"]}
REQUIRED = {"--checkpoint", "--config", "--seed", "--target-y", "--y1", "--y2", "--s",
            "--data", "--mode", "--task", "--n", "--gd-inits"}


@st.composite
def hostile_argv(draw, files):
    """argv of one subcommand: its required flags and a random subset of the
    rest, each value valid or, one time in four, hostile."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    flags = {**GRAMMAR[command], **{f: files[f] for f in FILES[command]}}
    for flag, values in flags.items():
        if flag not in REQUIRED and not draw(st.booleans()):
            continue
        if values is None:
            argv.append(flag)
        else:
            valid, hostile = values
            argv += [flag, draw(st.sampled_from(hostile if draw(st.integers(0, 3)) == 0
                                                else valid))]
    return argv


def numbers_in(rows) -> list:
    """The cells of CSV rows that parse as floats, NaN and infinities included."""
    numbers = []
    for cell in (c for row in rows for c in row):
        try:
            numbers.append(float(cell))
        except ValueError:
            pass
    return numbers


def test_a_hostile_argv_exits_0_1_or_2_with_finite_output(argv_files, tmp_path_factory):
    ckpt, far = argv_files["--checkpoint"][0][0], argv_files["--config"][1][0]

    # The examples are the defects the grammar found: a slerp endpoint whose
    # norm overflows, and the run config whose oracle draws embed beyond
    # float64's range.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(argv=hostile_argv(argv_files))
    @example(argv=["interpolate", "--checkpoint", ckpt, "--seed", "0", "--y1", "0.9",
                   "--y2", "1e308", "--mode", "slerp"])
    @example(argv=["oracle-compare", "--checkpoint", ckpt, "--config", far, "--seed", "0",
                   "--target-y", "1.0", "--n", "2", "--gd-inits", "1"])
    def run(argv):
        out = tmp_path_factory.mktemp("argv") / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--out", str(out)])
        assert code in (0, 1, 2), argv
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == [], argv
        if code == 0:
            _, rows = read_csv(str(out))
            assert rows and np.isfinite(numbers_in(rows)).all(), argv
        else:
            assert not out.exists(), argv

    run()
