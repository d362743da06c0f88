"""Unit tests for checkpoint, CSV, and SVG serialization."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from preimage.diffusion import SampleConfig, TrainConfig, sample_batch, train
from preimage.embedders import EmbedderInfo, RadiusEmbedder
from preimage.errors import CheckpointFormatError, ShapeError
from preimage.nn import ConditionalDenoiser, EmaParams
from preimage.persistence import (
    MAGIC,
    VERSION,
    Checkpoint,
    load_checkpoint,
    read_csv,
    save_checkpoint,
    write_csv,
    write_scatter_svg,
)


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(128, 2))
    emb = RadiusEmbedder(2)
    ys = emb.embed(xs)
    cfg = TrainConfig(seed=11, timesteps=12, total_batches=25, batch_size=16)
    result = train(xs, ys, cfg, hidden_dims=(8, 8), time_embed_dim=8)
    return Checkpoint.from_train_result(result, emb.info)


@pytest.fixture(scope="module")
def trained_with_attrs():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(64, 2))
    emb = RadiusEmbedder(2)
    ys = emb.embed(xs)
    attrs = xs[:, :1].copy()
    cfg = TrainConfig(seed=5, timesteps=10, total_batches=10, batch_size=8,
                      schedule="linear")
    result = train(xs, ys, cfg, attrs=attrs, hidden_dims=(6,), time_embed_dim=6)
    return Checkpoint.from_train_result(result, emb.info)


class TestCheckpointRoundtrip:
    def test_save_load_save_byte_identical(self, trained, tmp_path):
        p1 = str(tmp_path / "a.ckpt")
        p2 = str(tmp_path / "b.ckpt")
        save_checkpoint(p1, trained)
        loaded = load_checkpoint(p1)
        save_checkpoint(p2, loaded)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_parameters_bitwise_preserved(self, trained, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, trained)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.model.params_flat(),
                                      trained.model.params_flat())
        np.testing.assert_array_equal(loaded.ema.flat(), trained.ema.flat())
        np.testing.assert_array_equal(loaded.schedule.betas, trained.schedule.betas)

    def test_sampling_bitwise_reproducible_across_reload(self, trained, tmp_path):
        path = str(tmp_path / "d.ckpt")
        save_checkpoint(path, trained)
        loaded = load_checkpoint(path)
        cfg = SampleConfig(seed=3)
        y = np.array([1.0])
        before = sample_batch(trained.ema_model(), y, trained.schedule, cfg, 4)
        after = sample_batch(loaded.ema_model(), y, loaded.schedule, cfg, 4)
        np.testing.assert_array_equal(before, after)

    def test_config_and_descriptor_preserved(self, trained, tmp_path):
        path = str(tmp_path / "e.ckpt")
        save_checkpoint(path, trained)
        loaded = load_checkpoint(path)
        assert loaded.train_config == trained.train_config
        assert loaded.embedder_info == EmbedderInfo("radius", 2, 1)

    def test_attr_model_roundtrip(self, trained_with_attrs, tmp_path):
        path = str(tmp_path / "f.ckpt")
        save_checkpoint(path, trained_with_attrs)
        loaded = load_checkpoint(path)
        assert loaded.model.attr_dim == 1
        assert loaded.train_config.schedule == "linear"
        np.testing.assert_array_equal(loaded.model.params_flat(),
                                      trained_with_attrs.model.params_flat())

    def test_loaded_model_is_fitted(self, trained, tmp_path):
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(path, trained)
        assert load_checkpoint(path).model.fitted


class TestCheckpointValidation:
    def write_good(self, trained, tmp_path) -> tuple[str, bytes]:
        path = str(tmp_path / "good.ckpt")
        save_checkpoint(path, trained)
        with open(path, "rb") as fh:
            return path, fh.read()

    def test_bad_magic(self, trained, tmp_path):
        path, data = self.write_good(trained, tmp_path)
        with open(path, "wb") as fh:
            fh.write(b"XXXX" + data[4:])
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, trained, tmp_path):
        path, data = self.write_good(trained, tmp_path)
        with open(path, "wb") as fh:
            fh.write(data[:4] + b"\x63\x00\x00\x00" + data[8:])
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    def test_truncated_header(self, trained, tmp_path):
        path, data = self.write_good(trained, tmp_path)
        with open(path, "wb") as fh:
            fh.write(data[:10])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_payload_names_length(self, trained, tmp_path):
        path, data = self.write_good(trained, tmp_path)
        with open(path, "wb") as fh:
            fh.write(data[:-8])
        with pytest.raises(CheckpointFormatError, match="payload length"):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, trained, tmp_path):
        path, data = self.write_good(trained, tmp_path)
        with open(path, "wb") as fh:
            fh.write(data + b"\x00" * 8)
        with pytest.raises(CheckpointFormatError, match="payload length"):
            load_checkpoint(path)

    def test_absurd_count_rejected(self, trained, tmp_path):
        path, data = self.write_good(trained, tmp_path)
        # data_dim is the first u64 after the 8-byte header.
        with open(path, "wb") as fh:
            fh.write(data[:8] + (2**40).to_bytes(8, "little") + data[16:])
        with pytest.raises(CheckpointFormatError, match="data_dim"):
            load_checkpoint(path)


def crafted_header(hidden_dims, payload_floats=0) -> bytes:
    """A checkpoint header for a 2-D radius model with the given hidden dims,
    followed by payload_floats zero floats."""
    u64s = [2, 1, 0, 64, len(hidden_dims), *hidden_dims, 100, 0]
    name = b"radius"
    head = MAGIC + struct.pack("<I", VERSION) + struct.pack(f"<{len(u64s)}Q", *u64s)
    head += struct.pack("<Q", len(name)) + name + struct.pack("<6Q", 2, 1, 0, 10, 64, 0)
    return head + bytes(8 * payload_floats)


class TestHostileCheckpoints:
    @pytest.mark.parametrize("hidden", [(4096, 4096, 4096), (1 << 20, 1 << 20, 1 << 20)])
    def test_header_bomb_rejected_before_any_allocation(self, hidden, tmp_path,
                                                         monkeypatch):
        path = tmp_path / "bomb.ckpt"
        path.write_bytes(crafted_header(hidden, payload_floats=8))

        def constructor_ran(*args, **kwargs):
            raise AssertionError("the model was built before the payload was checked")

        monkeypatch.setattr(ConditionalDenoiser, "__init__", constructor_ran)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointFormatError, match="payload length"):
                load_checkpoint(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("vector", ["model", "ema"])
    def test_save_refuses_non_finite_parameters(self, trained, vector, tmp_path):
        ckpt = Checkpoint(trained.model.clone(), EmaParams(trained.ema.shadow),
                          trained.schedule, trained.embedder_info, trained.train_config)
        (ckpt.model.params if vector == "model" else ckpt.ema.shadow)[3] = np.nan
        path = tmp_path / "nan.ckpt"
        with pytest.raises(CheckpointFormatError, match="not finite"):
            save_checkpoint(str(path), ckpt)
        assert not path.exists()

    @pytest.mark.parametrize("vector", ["parameters", "ema parameters"])
    def test_load_refuses_non_finite_parameters(self, trained, vector, tmp_path):
        path = tmp_path / "nan.ckpt"
        save_checkpoint(str(path), trained)
        data = bytearray(path.read_bytes())
        # The payload ends with the live parameters, then the EMA parameters.
        end = len(data) - (8 * trained.model.n_params() if vector == "parameters" else 0)
        data[end - 8:end] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match=f"^{vector} are not finite"):
            load_checkpoint(str(path))


class TestCsv:
    def test_header_then_rows(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b"], [[1, 2.5], [3, -0.125]])
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert rows == [["1", "2.5"], ["3", "-0.125"]]

    def test_floats_roundtrip_bitwise(self, tmp_path):
        path = str(tmp_path / "f.csv")
        rng = np.random.default_rng(0)
        values = list(rng.normal(size=20)) + [0.1, 1e-300, 1e300, -7.0]
        write_csv(path, ["v"], [[v] for v in values])
        _, rows = read_csv(path)
        parsed = [float(r[0]) for r in rows]
        np.testing.assert_array_equal(parsed, values)

    def test_decimal_separator_is_dot(self, tmp_path):
        path = str(tmp_path / "d.csv")
        write_csv(path, ["v"], [[0.5]])
        with open(path) as fh:
            content = fh.read()
        assert "0.5" in content and "," not in content.splitlines()[1]

    def test_header_only(self, tmp_path):
        path = str(tmp_path / "h.csv")
        write_csv(path, ["x", "y"], [])
        header, rows = read_csv(path)
        assert header == ["x", "y"] and rows == []

    def test_row_width_mismatch_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            write_csv(str(tmp_path / "bad.csv"), ["a", "b"], [[1]])

    def test_no_temp_files_left(self, tmp_path):
        write_csv(str(tmp_path / "ok.csv"), ["a"], [[1]])
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


class TestScatterSvg:
    def test_writes_svg_with_points(self, tmp_path):
        path = str(tmp_path / "s.svg")
        write_scatter_svg(path, np.array([[0.0, 1.0], [1.0, 0.0]]))
        with open(path) as fh:
            content = fh.read()
        assert content.startswith("<svg")
        assert content.count("<circle") == 2

    def test_unit_circle_overlay(self, tmp_path):
        path = str(tmp_path / "c.svg")
        write_scatter_svg(path, np.array([[0.5, 0.5]]), unit_circle=True)
        with open(path) as fh:
            content = fh.read()
        assert 'r="1"' in content

    def test_fixed_viewbox(self, tmp_path):
        path = str(tmp_path / "v.svg")
        write_scatter_svg(path, np.zeros((1, 2)))
        with open(path) as fh:
            assert 'viewBox="-2.0 -2.0 4.0 4.0"' in fh.read()

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            write_scatter_svg(str(tmp_path / "x.svg"), np.zeros((3, 3)))
