"""End-to-end checks for the command line front end.

Every test drives main() in-process with a tiny config so the whole file
stays fast; one subprocess test confirms the module entry point is wired.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from preimage.cli import main
from preimage.persistence import load_checkpoint, read_csv

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


class TestTrain:
    def test_checkpoint_loads_and_is_fitted(self, workspace):
        ckpt = load_checkpoint(workspace["checkpoint"])
        assert ckpt.model.fitted
        assert ckpt.embedder_info.name == "radius"
        assert ckpt.train_config.total_batches == 12

    def test_seed_flag_changes_weights(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["train", "--config", workspace["config"],
                     "--out", "other.ckpt", "--seed", "99"]) == 0
        other = load_checkpoint(str(tmp_path / "other.ckpt"))
        base = load_checkpoint(workspace["checkpoint"])
        assert other.train_config.seed == 99
        assert not np.array_equal(other.model.params_flat(), base.model.params_flat())

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

    def test_wrong_target_width(self, workspace, capsys):
        code = main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "1.0,2.0", "--seed", "1"])
        assert code == 1
        assert "expects 1" in capsys.readouterr().err

    def test_non_numeric_target(self, workspace):
        assert main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "one", "--seed", "1"]) == 1

    def test_missing_checkpoint_is_runtime_error(self, tmp_path):
        assert main(["sample", "--checkpoint", str(tmp_path / "nope.ckpt"),
                     "--target-y", "1.0", "--seed", "1"]) == 2

    def test_header_bomb_checkpoint_is_runtime_error(self, workspace, tmp_path, capsys):
        # The two hidden dims (bytes 48-64 of the header) set to 2^20 would ask
        # for terabytes if the model were built before the payload was checked.
        data = open(workspace["checkpoint"], "rb").read()
        path = tmp_path / "bomb.ckpt"
        path.write_bytes(data[:48] + (1 << 20).to_bytes(8, "little") * 2 + data[64:])
        assert main(["sample", "--checkpoint", str(path),
                     "--target-y", "1.0", "--seed", "1"]) == 2
        assert "payload length" in capsys.readouterr().err

    def test_attr_model_defaults_to_no_preference_token(self, workspace, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["sample", "--checkpoint", workspace["checkpoint"],
                     "--target-y", "1.0", "--n", "3", "--seed", "2"]) == 0
        assert "no-preference" in capsys.readouterr().out

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

    def test_endpoint_width_checked(self, workspace, capsys):
        code = main(["interpolate", "--checkpoint", workspace["checkpoint"],
                     "--y1", "0.7,0.1", "--y2", "1.3", "--seed", "4"])
        assert code == 1
        assert "endpoints" in capsys.readouterr().err


class TestDirection:
    def test_binary_split(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PREIMAGE_OUT", str(tmp_path))
        assert main(["direction", "--data", workspace["data"],
                     "--mode", "binary", "--feature", "upper"]) == 0
        header, rows = read_csv(str(tmp_path / "directions.csv"))
        assert header == ["label", "provenance", "weight", "v_0"]
        assert rows[0][0] == "upper" and rows[0][1] == "binary-split"
        assert abs(float(rows[0][3])) == pytest.approx(1.0)

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


class TestEntryPoints:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "preimage", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "sample" in proc.stdout
