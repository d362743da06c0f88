"""Unit tests for checkpoint, CSV, and SVG serialization."""

import os
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from preimage import persistence
from preimage.diffusion import (SCHEDULES, SampleConfig, TrainConfig, TrainResult,
                                make_cosine_schedule, sample_batch, train)
from preimage.embedders import EmbedderInfo, RadiusEmbedder
from preimage.errors import CheckpointFormatError, ConfigurationError, PreimageError, ShapeError
from preimage.nn import ConditionalDenoiser, EmaParams, param_count
from preimage.persistence import (
    _SCHEDULE_CODES,
    MAGIC,
    VERSION,
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
    return replace(result, embedder_info=emb.info)


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
    return replace(result, embedder_info=emb.info)


@pytest.fixture(scope="module")
def ring_sized():
    """An untrained checkpoint of the ring experiment's size: 128x3, T = 100."""
    model = ConditionalDenoiser(2, 1, hidden_dims=(128, 128, 128), time_embed_dim=64, seed=4)
    model.freeze()
    return TrainResult(model=model, ema=EmaParams(model.params),
                       schedule=make_cosine_schedule(100),
                       config=TrainConfig(seed=4, timesteps=100),
                       embedder_info=RadiusEmbedder(2).info)


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of calling fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCheckpointRoundtrip:
    def test_a_trained_checkpoint_keeps_the_v1_layout(self, trained, tmp_path):
        # Training runs a float32 network, but saves its float64 master
        # params and EMA shadow: v1's header, then every float as f64.
        path = tmp_path / "v1.ckpt"
        save_checkpoint(str(path), trained)
        cfg, model = trained.config, trained.model
        assert model.params.dtype == trained.ema.shadow.dtype == np.float64
        head = crafted_header(model.hidden_dims, time_embed_dim=model.time_embed_dim,
                              n_steps=cfg.timesteps)[:-24]
        head += struct.pack("<3Q", cfg.total_batches, cfg.batch_size, cfg.seed)
        floats = np.concatenate([[cfg.cond_dropout, cfg.learning_rate, cfg.ema_rate],
                                 trained.schedule.betas, model.params, trained.ema.shadow])
        data = path.read_bytes()
        assert data[:8] == MAGIC + struct.pack("<I", 1)
        assert len(data) == len(head) + 8 * (3 + cfg.timesteps + 2 * param_count(model.topology()))
        assert data == head + floats.astype("<f8").tobytes()

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
        assert loaded.config == trained.config
        assert loaded.embedder_info == EmbedderInfo("radius", 2, 1)

    def test_attr_model_roundtrip(self, trained_with_attrs, tmp_path):
        path = str(tmp_path / "f.ckpt")
        save_checkpoint(path, trained_with_attrs)
        loaded = load_checkpoint(path)
        assert loaded.model.attr_dim == 1
        assert loaded.config.schedule == "linear"
        np.testing.assert_array_equal(loaded.model.params_flat(),
                                      trained_with_attrs.model.params_flat())

    def test_loaded_model_is_fitted(self, trained, tmp_path):
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(path, trained)
        assert load_checkpoint(path).model.fitted

    @pytest.mark.parametrize("fixture", ["trained", "trained_with_attrs"])
    def test_a_trained_record_loads_back_as_the_same_record(self, request, fixture, tmp_path):
        # train's record is what save takes and load gives: one type, with
        # the config and descriptor kept and the history v1 does not store.
        record = request.getfixturevalue(fixture)
        assert type(record) is TrainResult and len(record.loss_history) > 0
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(first), record)
        loaded = load_checkpoint(str(first))
        save_checkpoint(str(second), loaded)
        assert first.read_bytes() == second.read_bytes()
        assert type(loaded) is TrainResult
        assert loaded.config == record.config
        assert loaded.embedder_info == record.embedder_info == EmbedderInfo("radius", 2, 1)
        assert loaded.loss_history == []

    def test_a_record_without_a_descriptor_is_refused_and_writes_nothing(self, trained,
                                                                         tmp_path):
        path = tmp_path / "bare.ckpt"
        with pytest.raises(ConfigurationError, match="^embedder_info is None"):
            save_checkpoint(str(path), replace(trained, embedder_info=None))
        assert os.listdir(tmp_path) == []

    def test_load_draws_no_initialization(self, trained, tmp_path, monkeypatch):
        path = str(tmp_path / "h.ckpt")
        save_checkpoint(path, trained)

        def no_draw(*args, **kwargs):
            raise AssertionError("an initialization was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.model.params, trained.model.params)

    def test_a_loaded_checkpoint_owns_its_arrays(self, trained, tmp_path):
        # Load reads the payload into one buffer; a kept checkpoint must not pin it.
        path = tmp_path / "own.ckpt"
        save_checkpoint(str(path), trained)
        loaded = load_checkpoint(str(path))
        for vec in (loaded.model.params, loaded.ema.shadow, loaded.schedule.betas):
            assert vec.base is None or vec.flags.owndata
        assert loaded.model.grads.shape == loaded.model.params.shape
        assert not loaded.model.grads.any()

    def test_save_allocates_no_payload_sized_temporary(self, ring_sized, tmp_path):
        # The params and EMA shadow go to the file from their own arrays.
        path = tmp_path / "ring.ckpt"
        save_checkpoint(str(path), ring_sized)
        peak = traced_peak(lambda: save_checkpoint(str(path), ring_sized))
        assert peak < path.stat().st_size / 8

    def test_a_failed_write_keeps_the_old_file(self, trained, tmp_path, monkeypatch):
        # Save writes its header, then the params, then the EMA shadow; a
        # failure at the params leaves the target as it was and no temp file.
        path = tmp_path / "kept.ckpt"
        path.write_bytes(b"the old checkpoint")
        fdopen = os.fdopen

        class FailingSecondWrite:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                self.writes += 1
                if self.writes == 2:
                    raise OSError("no space left on device")
                return self.fh.write(chunk)

        monkeypatch.setattr(persistence.os, "fdopen",
                            lambda fd, mode: FailingSecondWrite(fdopen(fd, mode)))
        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(str(path), trained)
        assert path.read_bytes() == b"the old checkpoint"
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

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


def crafted_header(hidden_dims, payload_floats=0, time_embed_dim=64, n_steps=100) -> bytes:
    """A checkpoint header for a 2-D radius model with the given hidden dims,
    followed by payload_floats zero floats."""
    u64s = [2, 1, 0, time_embed_dim, len(hidden_dims), *hidden_dims, n_steps, 0]
    name = b"radius"
    head = MAGIC + struct.pack("<I", VERSION) + struct.pack(f"<{len(u64s)}Q", *u64s)
    head += struct.pack("<Q", len(name)) + name + struct.pack("<6Q", 2, 1, 0, 10, 64, 0)
    return head + bytes(8 * payload_floats)


def renamed(data: bytes, name: bytes) -> bytes:
    """A radius checkpoint's bytes with the embedder's name replaced."""
    old = struct.pack("<Q", 6) + b"radius"
    assert data.count(old) == 1
    return data.replace(old, struct.pack("<Q", len(name)) + name)


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

    def test_trailing_data_is_refused_before_it_is_read(self, trained, tmp_path):
        # A good checkpoint padded with 32 MiB of zeros was read whole, then refused.
        path = tmp_path / "padded.ckpt"
        save_checkpoint(str(path), trained)
        with open(path, "ab") as fh:
            fh.truncate(path.stat().st_size + (32 << 20))

        def refused():
            with pytest.raises(CheckpointFormatError, match="payload length mismatch"):
                load_checkpoint(str(path))

        assert traced_peak(refused) < 4 << 20

    def test_topology_the_model_refuses_is_a_format_error(self, tmp_path):
        # Header and payload agree, so every length check passes, but the
        # model constructor refuses an odd time_embed_dim.
        topo = {"data_dim": 2, "id_dim": 1, "attr_dim": None, "time_embed_dim": 7,
                "hidden_dims": (8, 8)}
        floats = np.concatenate(([0.1, 1e-3, 0.999], np.linspace(1e-4, 0.02, 10),
                                 np.zeros(2 * param_count(topo))))
        path = tmp_path / "odd.ckpt"
        path.write_bytes(crafted_header((8, 8), time_embed_dim=7, n_steps=10)
                         + floats.astype("<f8").tobytes())
        with pytest.raises(CheckpointFormatError, match="time_embed_dim must be even"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("vector", ["model", "ema"])
    def test_save_refuses_non_finite_parameters(self, trained, vector, tmp_path):
        # A trained model is frozen; the NaN goes into a writable copy.
        m = trained.model
        ckpt = TrainResult(model=ConditionalDenoiser(**m.topology(), seed=m.seed, params=m.params),
                           ema=EmaParams(trained.ema.shadow), schedule=trained.schedule,
                           config=trained.config, embedder_info=trained.embedder_info)
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
        end = len(data) - (8 * trained.model.params.size if vector == "parameters" else 0)
        data[end - 8:end] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match=f"^{vector} are not finite"):
            load_checkpoint(str(path))

    @staticmethod
    def with_header(trained, name_len=6, **train_config):
        return replace(trained, embedder_info=replace(trained.embedder_info, name="x" * name_len),
                       config=replace(trained.config, **train_config))

    @pytest.mark.parametrize("field, name_len, train_config", [
        ("batch_size", 6, {"batch_size": (1 << 20) + 1}),
        ("total_batches", 6, {"total_batches": (1 << 48) + 1}),
        ("embedder_name_len", 5000, {}),
    ])
    def test_save_refuses_a_header_field_load_would_refuse(self, trained, tmp_path, field,
                                                           name_len, train_config):
        path = tmp_path / "wide.ckpt"
        with pytest.raises(CheckpointFormatError, match=f"^{field} value .* is out of range"):
            save_checkpoint(str(path), self.with_header(trained, name_len, **train_config))
        assert not path.exists()

    def test_header_fields_at_their_bound_round_trip(self, trained, tmp_path):
        ckpt = replace(trained, config=replace(trained.config, batch_size=1 << 20,
                                                     total_batches=1 << 48))
        path = tmp_path / "edge.ckpt"
        save_checkpoint(str(path), ckpt)
        loaded = load_checkpoint(str(path))
        assert (loaded.embedder_info, loaded.config) == (ckpt.embedder_info,
                                                               ckpt.config)
        # No embedder has a 4096-byte name: one at the bound passes the
        # reader's bound and is refused by make_embedder.
        path.write_bytes(renamed(path.read_bytes(), b"x" * 4096))
        with pytest.raises(CheckpointFormatError, match="unknown embedder 'xxx"):
            load_checkpoint(str(path))

    CONFIG_FLOATS = ("cond_dropout", "learning_rate", "ema_rate")
    BAD_CONFIGS = [("learning_rate", np.nan), ("learning_rate", -1.0),
                   ("cond_dropout", 2.0), ("cond_dropout", np.nan), ("ema_rate", 1.5)]

    @pytest.mark.parametrize("field, value", BAD_CONFIGS)
    def test_save_refuses_a_training_config_validate_refuses(self, trained, tmp_path,
                                                             field, value):
        path = tmp_path / "config.ckpt"
        with pytest.raises(ConfigurationError, match=field):
            save_checkpoint(str(path), replace(
                trained, config=replace(trained.config, **{field: value})))
        assert not path.exists()

    @pytest.mark.parametrize("field, value", BAD_CONFIGS)
    def test_load_refuses_a_training_config_validate_refuses(self, trained, tmp_path,
                                                             field, value):
        # A NaN or negative learning rate or an out-of-range dropout once
        # loaded, sampled and saved again.
        path = tmp_path / "config.ckpt"
        save_checkpoint(str(path), trained)
        data = bytearray(path.read_bytes())
        # The payload opens with the three config floats, then the betas.
        n_floats = 3 + trained.schedule.n_steps + 2 * trained.model.params.size
        at = len(data) - 8 * n_floats + 8 * self.CONFIG_FLOATS.index(field)
        data[at:at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match=field):
            load_checkpoint(str(path))

    def test_an_embedder_make_embedder_refuses_is_neither_saved_nor_loaded(self, trained,
                                                                           tmp_path):
        path = tmp_path / "bogus.ckpt"
        with pytest.raises(ConfigurationError, match="unknown embedder 'bogus'"):
            save_checkpoint(str(path), replace(
                trained, embedder_info=replace(trained.embedder_info, name="bogus")))
        assert not path.exists()
        save_checkpoint(str(path), trained)
        path.write_bytes(renamed(path.read_bytes(), b"bogus"))
        with pytest.raises(CheckpointFormatError, match="unknown embedder 'bogus'"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("step", [0, 5])
    def test_load_refuses_a_nan_beta(self, trained, tmp_path, step):
        # Such a file once loaded, and sampling failed at reverse step 2.
        path = tmp_path / "nan-beta.ckpt"
        save_checkpoint(str(path), trained)
        data = bytearray(path.read_bytes())
        at = len(data) - 8 * (trained.schedule.n_steps - step + 2 * trained.model.params.size)
        data[at:at + 8] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match="betas are not a valid schedule"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("dims, field", [((2, 3), "embedder_output_dim"),
                                             ((3, 1), "embedder_input_dim")])
    def test_save_refuses_an_embedder_of_other_dimensions(self, trained, tmp_path, dims, field):
        # The model maps 2-D data and 1-D embeddings.
        ckpt = replace(trained, embedder_info=EmbedderInfo("frozen-mlp", *dims))
        path = tmp_path / "mismatch.ckpt"
        with pytest.raises(CheckpointFormatError, match=f"^{field} "):
            save_checkpoint(str(path), ckpt)
        assert not path.exists()

    def test_load_refuses_an_embedder_of_other_dimensions(self, trained, tmp_path):
        path = tmp_path / "mismatch.ckpt"
        save_checkpoint(str(path), trained)
        data = path.read_bytes()
        # embedder_output_dim follows eight counts, the hidden dims, the name's
        # length, the name and embedder_input_dim.
        at = 8 + 8 * (8 + len(trained.model.hidden_dims)) + len(b"radius") + 8
        assert struct.unpack("<Q", data[at:at + 8]) == (1,)
        path.write_bytes(data[:at] + struct.pack("<Q", 3) + data[at + 8:])
        with pytest.raises(CheckpointFormatError, match="^embedder_output_dim 3"):
            load_checkpoint(str(path))


def test_schedule_codes_name_every_schedule_kind():
    # The file keeps its own codes, but for exactly the kinds training runs.
    assert set(_SCHEDULE_CODES) == set(SCHEDULES)
    assert sorted(_SCHEDULE_CODES.values()) == list(range(len(SCHEDULES)))


class TestMutatedCheckpoints:
    """Every mutant of a tiny v1 checkpoint loads or raises a PreimageError,
    and every one that loads samples at guidance 2 or raises one."""

    def mutants(self, data: bytes, payload_floats: int):
        header = len(data) - 8 * payload_floats
        for at in range(header):
            for bits in (0x01, 0x80, 0xFF):
                yield f"header byte {at} ^ {bits:#04x}", at, bits
        rng = np.random.default_rng(20)
        for at, bits in zip(rng.integers(0, len(data), 200), rng.integers(1, 256, 200)):
            yield f"byte {at} ^ {bits:#04x}", int(at), int(bits)

    def test_every_mutant_loads_and_samples_or_raises_a_preimage_error(self, trained,
                                                                       tmp_path):
        path = tmp_path / "mutant.ckpt"
        save_checkpoint(str(path), trained)
        data = path.read_bytes()
        payload_floats = 3 + trained.schedule.n_steps + 2 * trained.model.params.size
        flipped = ((what, data[:at] + bytes([data[at] ^ bits]) + data[at + 1:])
                   for what, at, bits in self.mutants(data, payload_floats))
        cut = ((f"truncated at {end}", data[:end]) for end in range(0, len(data), 7))
        loaded = 0
        for what, mutant in (*flipped, *cut):
            path.write_bytes(mutant)
            try:
                ckpt = load_checkpoint(str(path))
            except PreimageError:
                continue
            loaded += 1
            for model in (ckpt.model, ckpt.ema_model()):
                try:
                    with np.errstate(all="ignore"):
                        out = sample_batch(model, np.array([1.0]), ckpt.schedule,
                                           SampleConfig(seed=3, guidance_scale=2.0), 8)
                except PreimageError:
                    continue
                assert out.shape == (8, 2) and np.isfinite(out).all(), what
        # The payload's flips and the header's inert bytes load.
        assert loaded > 100


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
