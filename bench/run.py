#!/usr/bin/env python3
"""End-to-end benchmark of the preimage package.

Run from the repository root:

    python3 bench/run.py --workload sample-ring --seed 1 --seconds 36 --trace 0

Every run is one Python process acting as one researcher's script: a closed
loop that issues the next library call only after the previous one returned.
It builds the ring dataset, trains the acceptance ring model, draws the
first n = 4096 batch, and then runs the workload's rotation of heavy
operations (training, n = 4096 sampling, the oracle-compare path, the
verification sweep) once, each followed by a fixed number of light ones
(small sampling requests and checkpoint round trips). That is the fixed part
of the run. With --trace 0 the rotation's operations then go on, one at a
time, until --seconds have passed since set-up. With --trace 1 the fixed part
runs traced and the rotation runs once more untraced, for the tracing
overhead. It checks every output. Every run reports every end-to-end metric;
the workload sets how much of the run each operation gets. The end-to-end
timings are scaled to the reference machine's speed by a calibration kernel
timed between the operations (see Calibration); the unscaled values are
printed beside them. See bench/README.md.

The last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end metrics;
with --trace 1 they are the per-layer metrics of a run with timing shims
installed (bench/shims.py). The full record, with the machine description,
goes to bench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "preimage", "__init__.py")):
    sys.exit(f"no preimage package under {SRC}: run this from a checkout of the repository")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

# BLAS runs one thread, set before numpy loads. With one thread per core of a
# 2-vCPU machine, any other process on the host stalls the BLAS threads'
# hand-offs: the n = 64 requests' p90 then doubled, where one thread kept it
# within 15 % of the median.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

from preimage import diffusion as D  # noqa: E402
from preimage import embedders as M  # noqa: E402
from preimage import evaluation as E  # noqa: E402
from preimage import nn  # noqa: E402,F401  (the shims patch it)
from preimage import persistence as P  # noqa: E402

from shims import Tracer  # noqa: E402

clock = time.perf_counter

# The acceptance ring configuration (tests/test_acceptance.py).
N_TRAIN = 20_000
HIDDEN = (128, 128, 128)
TIME_EMBED_DIM = 64
TRAIN_KW = dict(timesteps=100, schedule="cosine", batch_size=64,
                learning_rate=1e-3, ema_rate=0.999, total_batches=2500)
RING_TARGET_ERR = 0.1
TARGET = np.array([1.0])

RESPACE_STEPS = 25
BIG_N = 4096
ORACLE_N = 2000
EPSILON = 0.05
GD_RESTARTS = 200
VERIFY_PAIRS = 20_000
LOSS_TAIL = 0.2
# A _tail metric is the p90 of each window of TAIL_WINDOW consecutive samples
# (its TAIL_RANK-th smallest), and the lower quartile over the run's windows.
TAIL_WINDOW = 10
TAIL_RANK = 9
MIN_WINDOWS = 5

# Repeated distances and two cuts of equal accuracy (after 3 and after 5 of
# the 6 distinct distances): verification_accuracy must pick the smaller
# threshold, 1.75, at accuracy 0.75. Checked once per run at set-up, because
# the continuous 20k pairs tie at the best cut only at some seeds.
TIE_PAIRS = ((0.5, True), (1.0, False), (1.0, True), (1.5, True), (2.0, False),
             (2.5, True), (3.0, False), (3.0, False))

# The machine's speed drifts over seconds. A measurement taken in one burst
# catches one phase of that drift; the same measurement spread over the run
# averages over it. So light operations are spread evenly: after every heavy
# operation the run rebuilds the dataset once (for setup_s) and then runs the
# workload's fixed number of light blocks. A light block is these sampling
# requests, (kind, n, guidance), plus one checkpoint round trip. The two
# kinds with a tail metric come twice, so that every workload's fixed part
# fills at least MIN_WINDOWS tail windows of each.
LIGHT_SAMPLES = (("n1_g1", 1, 1.0), ("n1_g2", 1, 2.0), ("n64_g2", 64, 2.0),
                 ("n1_g2", 1, 2.0), ("n64_g2", 64, 2.0))

# Every run starts with the first training and the first fixed-seed n = 4096
# request: the other operations need the model, and the oracle-compare
# passes take their candidate from that batch.
PRELUDE = ("train", "n4096_g2")

# Per workload: the heavy operations of one rotation, in order, and the light
# blocks after each heavy operation. The prelude and one whole rotation are
# the fixed part of every run; an untraced run then goes on through the
# rotation, one operation at a time, until --seconds have passed. Each
# rotation holds one more fixed-seed n = 4096 request, for the determinism
# check.
WORKLOADS = {
    "train-ring": (("verification", "oracle_compare", "gallery", "verification",
                    "n4096_g2", "train"), 4),
    "sample-ring": (("gallery", "oracle_compare", "verification", "n4096_g2",
                     "gallery", "verification"), 8),
    "eval-oracle": (("oracle_compare", "verification", "oracle_compare", "verification",
                     "gallery", "oracle_compare", "verification", "n4096_g2",
                     "oracle_compare", "verification"), 3),
}

# name: unit. BENCHMARK.json adds the direction and the bound of each.
END_TO_END = {
    "setup_s": "s",
    "train_batches_per_s": "1/s",
    "train_loss_tail": "mse",
    "sample_n1_g1_ms_p50": "ms",
    "sample_n1_g2_ms_p50": "ms",
    "sample_n1_g2_ms_tail": "ms",
    "sample_n64_g2_ms_p50": "ms",
    "sample_n64_g2_ms_tail": "ms",
    "sample_n4096_g2_samples_per_s": "1/s",
    "gallery_n4096_g2_samples_per_s": "1/s",
    "ring_radius_err": "1",
    "oracle_compare_s": "s",
    "verification_s": "s",
    "checkpoint_roundtrip_ms_p50": "ms",
}


# The host's speed drifts by itself: on the reference machine the same
# n = 64 request read 28 ms for tens of seconds and 45 ms for the next tens.
# So a run also times a calibration kernel, which calls nothing of the
# package, before every heavy operation, after it and before every light
# block, and scales each timing sample to the reference machine's speed:
# CALIBRATION_REF_S, the kernel's median time there, over its median time
# from CALIBRATION_NEAR_S before the sample to CALIBRATION_NEAR_S after it.
CALIBRATION_REF_S = 0.0102
CALIBRATION_NEAR_S = 1.0


class Calibration:
    """A fixed numpy kernel, timed between operations: the machine's speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((128, 128))
        self.weights = [0.1 * rng.standard_normal((128, 128)) for _ in range(3)]
        self.stamps = []
        self.times = []

    def kernel(self):
        """Three 128-wide SiLU layers on 128 rows, like a denoiser forward."""
        for _ in range(20):
            h = self.x
            for w in self.weights:
                h = h @ w
                h = h / (1.0 + np.exp(-h))
        return h

    def measure(self):
        t0 = clock()
        self.kernel()
        t1 = clock()
        self.stamps.append((t0 + t1) / 2.0)
        self.times.append(t1 - t0)

    def scale(self, start, end):
        """CALIBRATION_REF_S over the median calibration near [start, end],
        and always over at least the last one before it and the first after
        it (the one that exists, at either end of the run)."""
        lo = min(bisect.bisect(self.stamps, start - CALIBRATION_NEAR_S),
                 max(bisect.bisect(self.stamps, start) - 1, 0))
        hi = max(bisect.bisect(self.stamps, end + CALIBRATION_NEAR_S),
                 bisect.bisect(self.stamps, end) + 1)
        return CALIBRATION_REF_S / statistics.median(self.times[lo:hi])


class Ledger:
    """Operations attempted, and the output checks that failed on them.

    An operation is one call a researcher's script would make: a training
    run, a sampling request, an oracle-compare pass, a verification sweep or
    a checkpoint round trip. A failed check fails the operation it checks.
    """

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failures = []
        self.failed_ops = set()
        self.tracer = tracer

    def op(self):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request_id = self.attempted

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)
            self.failed_ops.add(self.attempted)


def tail(values):
    """The lower quartile (nearest rank) over consecutive windows of
    TAIL_WINDOW samples, in the order they were taken, of each window's p90;
    and the number of windows.

    Other load on the host decides the few highest samples of a whole run,
    and at times it holds for most of a run. It raises only the windows it
    falls in, so the lower quartile of the windows reads the program's own
    p90 while up to three quarters of them are disturbed. A slow request that
    the program itself makes in every window still shows. The window size,
    not the sample count, sets the percentile, so a faster program that fits
    more samples in does not change which percentile is reported."""
    windows = sorted(sorted(values[i:i + TAIL_WINDOW])[TAIL_RANK - 1]
                     for i in range(0, len(values) - TAIL_WINDOW + 1, TAIL_WINDOW))
    if len(windows) < MIN_WINDOWS:
        raise ValueError(f"{len(values)} samples are too few for {MIN_WINDOWS} tail windows")
    return windows[-(-len(windows) // 4) - 1], len(windows)


def mean_distance(a, b, chunk=256) -> float:
    """Mean Euclidean distance over all row pairs of a and b, chunked."""
    total = 0.0
    for i in range(0, len(a), chunk):
        diff = a[i:i + chunk, None, :] - b[None, :, :]
        total += float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).sum())
    return total / (len(a) * len(b))


def energy_reference(a, b) -> float:
    """The V-statistic energy distance, independent of evaluation.py."""
    return 2.0 * mean_distance(a, b) - mean_distance(a, a) - mean_distance(b, b)


def verification_reference(pairs):
    """(threshold, accuracy) that verification_accuracy must return.

    Sort the distinct distances and count, with cumulative sums, how many
    pairs each cut between them classifies correctly; the candidate
    thresholds are the same sentinels and midpoints as the library's, a pair
    is "same" when its distance is strictly below the threshold, and the
    first best cut (the smallest threshold) wins ties."""
    dists = np.array([d for d, _ in pairs])
    same = np.array([s for _, s in pairs])
    uniq, index = np.unique(dists, return_inverse=True)
    same_at = np.bincount(index, weights=same, minlength=len(uniq))
    diff_at = np.bincount(index, weights=~same, minlength=len(uniq))
    correct = (np.concatenate(([0.0], np.cumsum(same_at)))
               + diff_at.sum() - np.concatenate(([0.0], np.cumsum(diff_at))))
    best = int(np.argmax(correct))
    thresholds = np.concatenate(([uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2.0,
                                 [uniq[-1] + 1.0]))
    return float(thresholds[best]), float(correct[best]) / len(pairs)


def derive_seeds(seed: int) -> dict:
    names = ("dataset", "train", "sample", "shared", "gallery", "oracle", "gd",
             "pairs", "quality")
    state = np.random.SeedSequence(seed).generate_state(len(names))
    return {k: int(v) for k, v in zip(names, state)}


def make_pairs(seed: int):
    """Verification pairs with continuous distances: same-identity pairs sit
    closer on average, and the two distributions overlap."""
    rng = np.random.default_rng(seed)
    same = rng.random(VERIFY_PAIRS) < 0.5
    dist = np.where(same, rng.gamma(4.0, 0.15, VERIFY_PAIRS),
                    rng.gamma(6.0, 0.2, VERIFY_PAIRS))
    return [(float(d), bool(s)) for d, s in zip(dist, same)]


class Run:
    """State and measurements of one benchmark run."""

    def __init__(self, seed: int, tracer=None):
        self.seeds = derive_seeds(seed)
        self.ledger = Ledger(tracer)
        self.result = self.model = None
        self.times = {}
        self.stamps = {}
        self.calibration = Calibration()
        self.loss_tail = []
        self.rotation_s = []
        self.oracle_reference = None
        self.spec = M.DatasetSpec("annulus", 2, N_TRAIN, self.seeds["dataset"])
        self.info = M.EmbedderInfo("radius", 2, 1)
        self.embedder = M.make_embedder(self.info)
        self.small_requests = 0
        self.drawn = 0
        self.accepted = 0
        self.gd_converged = []
        self.gd_steps = []
        self.shared_hash = None
        self.shared = None
        self.ring_err = []
        self.checkpoint_bytes = None
        self.checkpoint_dir = None

    def record(self, key, t0):
        """One sample of `key`: the time since t0, with its start and end."""
        t1 = clock()
        self.times.setdefault(key, []).append(t1 - t0)
        self.stamps.setdefault(key, []).append((t0, t1))

    # -- set-up --------------------------------------------------------------

    def build_dataset(self):
        """The 20k-point annulus dataset, embedded; setup_s is the median time."""
        t0 = clock()
        self.xs, self.ys, _ = M.stack_samples(M.generate_dataset(self.spec, self.embedder))
        self.record("setup", t0)

    def setup(self):
        self.build_dataset()
        pick = np.random.default_rng(self.seeds["gallery"]).choice(N_TRAIN, BIG_N, replace=False)
        self.gallery_targets = self.ys[pick]
        self.pairs = make_pairs(self.seeds["pairs"])
        self.verification_expected = verification_reference(self.pairs)
        self.ledger.op()
        res = E.verification_accuracy(TIE_PAIRS)
        self.ledger.check((res.threshold, res.accuracy) == verification_reference(TIE_PAIRS)
                          == (1.75, 0.75),
                          f"verification: ({res.threshold!r}, {res.accuracy!r}) on the tie pairs")

    # -- operations: each is one call a researcher's script would make ---------

    def train(self):
        cfg = D.TrainConfig(seed=self.seeds["train"], **TRAIN_KW)
        self.ledger.op()
        t0 = clock()
        result = D.train(self.xs, self.ys, cfg, hidden_dims=HIDDEN,
                         time_embed_dim=TIME_EMBED_DIM)
        model = result.ema_model()
        self.record("train", t0)
        losses = np.asarray(result.loss_history)
        self.ledger.check(losses.size == cfg.total_batches and bool(np.isfinite(losses).all()),
                          "train: losses are not all finite")
        self.loss_tail.append(float(losses[-int(LOSS_TAIL * losses.size):].mean()))
        if self.model is None:
            self.result, self.model = result, model

    def _sample(self, kind, n, guidance, seed):
        y = self.gallery_targets if kind == "gallery" else TARGET
        cfg = D.SampleConfig(seed=seed, guidance_scale=guidance, respace_steps=RESPACE_STEPS)
        self.ledger.op()
        t0 = clock()
        x = D.sample_batch(self.model, y, self.result.schedule, cfg, n)
        self.record(kind, t0)
        self.ledger.check(x.shape == (n, 2), f"{kind}: output shape {x.shape}")
        return x

    def shared_batch(self):
        """n = 4096 at guidance 2 for the shared target y = 1, at a fixed seed."""
        x = self._sample("n4096_g2", BIG_N, 2.0, self.seeds["shared"])
        digest = hashlib.sha256(x.tobytes()).hexdigest()
        if self.shared_hash is None:
            self.shared_hash, self.shared = digest, x
        self.ledger.check(digest == self.shared_hash,
                          "n4096_g2: a repeated fixed-seed request returned other bytes")
        err = float(np.mean(np.abs(np.linalg.norm(x, axis=1) - 1.0)))
        self.ring_err.append(err)
        self.ledger.check(err <= RING_TARGET_ERR,
                          f"n4096_g2: ring radius error {err:.4f} > {RING_TARGET_ERR}")

    def gallery(self):
        """n = 4096 at guidance 2 with one dataset embedding per row."""
        self._sample("gallery", BIG_N, 2.0, self.seeds["gallery"])

    def light_block(self):
        self.calibration.measure()
        for kind, n, guidance in LIGHT_SAMPLES:
            self.small_requests += 1
            self._sample(kind, n, guidance, self.seeds["sample"] + self.small_requests)
        self.checkpoint_trip()

    def _draw(self, rng, count):
        xs = M.draw_points(self.spec, rng, count)
        self.drawn += count
        self.accepted += int(np.count_nonzero(
            np.abs(np.linalg.norm(xs, axis=1) - TARGET[0]) <= EPSILON))
        return xs

    def oracle_compare(self):
        """The oracle-compare path of the CLI, on the sampler's n = 4096 batch."""
        candidate = self.shared[:ORACLE_N]
        self.ledger.op()
        t0 = clock()
        rng = np.random.default_rng(self.seeds["oracle"])
        oracle_a = E.rejection_oracle(self.embedder, TARGET, EPSILON, self._draw, ORACLE_N, rng)
        oracle_b = E.rejection_oracle(self.embedder, TARGET, EPSILON, self._draw, ORACLE_N, rng)
        energies = (E.energy_distance(candidate, oracle_a),
                    E.energy_distance(oracle_a, oracle_b))
        identity = (E.identity_error(candidate, TARGET, self.embedder),
                    E.identity_error(oracle_a, TARGET, self.embedder))
        inits = M.draw_points(self.spec, np.random.default_rng(self.seeds["gd"]), GD_RESTARTS)
        runs = [E.whitebox_gd_invert(self.embedder, TARGET, x0) for x0 in inits]
        self.record("oracle_compare", t0)
        gaps = []
        for oracle in (oracle_a, oracle_b):
            radius_gap = np.abs(np.linalg.norm(oracle, axis=1) - TARGET[0])
            gaps.append(float(radius_gap.mean()))
            self.ledger.check(oracle.shape == (ORACLE_N, 2) and bool(np.all(radius_gap <= EPSILON)),
                              "rejection_oracle: not n points within epsilon")
        # Every pass sees the same candidate and the same oracle draws, so
        # one reference, computed here outside the timing, checks them all.
        if self.oracle_reference is None:
            self.oracle_reference = (energy_reference(candidate, oracle_a),
                                     energy_reference(oracle_a, oracle_b))
        for got, want in zip(energies, self.oracle_reference):
            self.ledger.check(abs(got - want) <= 1e-9,
                              f"energy_distance: {got!r}, the reference gives {want!r}")
        candidate_gap = float(np.mean(np.abs(np.linalg.norm(candidate, axis=1) - TARGET[0])))
        for got, want in zip(identity, (candidate_gap, gaps[0])):
            self.ledger.check(abs(got - want) <= 1e-12,
                              f"identity_error: {got!r}, the reference gives {want!r}")
        for r in runs:
            self.ledger.check(not r.converged or
                              abs(np.linalg.norm(r.x) - TARGET[0]) < 1e-5,
                              "whitebox_gd_invert: converged off the ring")
        self.gd_converged.append(np.mean([r.converged for r in runs]))
        self.gd_steps.append(np.mean([r.n_steps for r in runs]))

    def verification(self):
        self.ledger.op()
        t0 = clock()
        res = E.verification_accuracy(self.pairs)
        self.record("verification", t0)
        threshold, accuracy = self.verification_expected
        self.ledger.check(res.n_pairs == VERIFY_PAIRS and
                          abs(res.threshold - threshold) <= 1e-12 * abs(threshold) and
                          abs(res.accuracy - accuracy) <= 1e-12,
                          f"verification: ({res.threshold!r}, {res.accuracy!r}), "
                          f"the reference gives ({threshold!r}, {accuracy!r})")

    def checkpoint_trip(self):
        """save_checkpoint then load_checkpoint of the trained ring checkpoint."""
        if self.checkpoint_dir is None:
            self.checkpoint_dir = tempfile.mkdtemp(dir=OUT)
        path = os.path.join(self.checkpoint_dir, "ring.ckpt")
        again = os.path.join(self.checkpoint_dir, "ring-again.ckpt")
        ckpt = P.Checkpoint.from_train_result(self.result, self.info)
        self.ledger.op()
        t0 = clock()
        P.save_checkpoint(path, ckpt)
        loaded = P.load_checkpoint(path)
        self.record("checkpoint", t0)
        P.save_checkpoint(again, loaded)
        with open(path, "rb") as a, open(again, "rb") as b:
            same_bytes = a.read() == b.read()
        self.checkpoint_bytes = os.path.getsize(path)
        self.ledger.check(same_bytes, "checkpoint: save -> load -> save changed the bytes")
        self.ledger.check(np.array_equal(loaded.ema.flat(), ckpt.ema.flat()),
                          "checkpoint: loaded EMA parameters differ from the saved ones")

    # -- results ---------------------------------------------------------------

    def quality(self):
        """Energy distance from 2000 sampler draws to 2000 oracle draws.

        Reported but not gated: it moves with the training seed by more than
        the largest bound a gated metric may have (see README.md)."""
        rng = np.random.default_rng(self.seeds["quality"])
        oracle = E.rejection_oracle(self.embedder, TARGET, EPSILON,
                                    lambda r, c: M.draw_points(self.spec, r, c), ORACLE_N, rng)
        return E.energy_distance(self.shared[:ORACLE_N], oracle)

    def scaled(self):
        """Every timing sample, scaled to the reference machine's speed."""
        return {k: [dt * self.calibration.scale(*at) for dt, at in zip(v, self.stamps[k])]
                for k, v in self.times.items()}

    def end_to_end(self, t):
        """The end-to-end metrics from the timing samples t."""
        ms = lambda key: [1e3 * v for v in t[key]]  # noqa: E731
        n1g2_tail, n1g2_windows = tail(ms("n1_g2"))
        n64_tail, n64_windows = tail(ms("n64_g2"))
        values = {
            "setup_s": statistics.median(t["setup"]),
            "train_batches_per_s": TRAIN_KW["total_batches"] / statistics.median(t["train"]),
            "train_loss_tail": statistics.median(self.loss_tail),
            "sample_n1_g1_ms_p50": statistics.median(ms("n1_g1")),
            "sample_n1_g2_ms_p50": statistics.median(ms("n1_g2")),
            "sample_n1_g2_ms_tail": n1g2_tail,
            "sample_n64_g2_ms_p50": statistics.median(ms("n64_g2")),
            "sample_n64_g2_ms_tail": n64_tail,
            "sample_n4096_g2_samples_per_s": BIG_N / statistics.median(t["n4096_g2"]),
            "gallery_n4096_g2_samples_per_s": BIG_N / statistics.median(t["gallery"]),
            "ring_radius_err": statistics.median(self.ring_err),
            "oracle_compare_s": statistics.median(t["oracle_compare"]),
            "verification_s": statistics.median(t["verification"]),
            "checkpoint_roundtrip_ms_p50": statistics.median(ms("checkpoint")),
        }
        percentile = 100.0 * TAIL_RANK / TAIL_WINDOW
        tails = {
            "sample_n1_g2_ms_tail": {"percentile": percentile, "window": TAIL_WINDOW,
                                     "windows": n1g2_windows, "samples": len(t["n1_g2"])},
            "sample_n64_g2_ms_tail": {"percentile": percentile, "window": TAIL_WINDOW,
                                      "windows": n64_windows, "samples": len(t["n64_g2"])},
        }
        return values, tails


def per_layer(run: Run, tracer: Tracer, overhead_pct: float) -> dict:
    metrics = {}
    summary = tracer.summary()
    for name, row in summary.items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_ms"] = (row["self_ms"], "ms")
    for name in ("nn.LinearLayer.forward", "nn.LinearLayer.backward"):
        row = summary[name]
        metrics[f"{name}.gflop_computed"] = (row["flop"] / 1e9, "GFLOP")
        metrics[f"{name}.gflops_per_s"] = (row["flop"] / 1e9 / (row["self_ms"] / 1e3), "GFLOP/s")
    metrics["evaluation.rejection_oracle.acceptance"] = (run.accepted / run.drawn, "ratio")
    metrics["evaluation.whitebox_gd_invert.converged_frac"] = (
        statistics.median(run.gd_converged), "ratio")
    metrics["evaluation.whitebox_gd_invert.mean_steps"] = (
        statistics.median(run.gd_steps), "count")
    metrics["persistence.save_checkpoint.bytes"] = (run.checkpoint_bytes, "B")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    silent = [name for name, row in summary.items() if row["calls"] == 0]
    if silent:
        raise SystemExit(f"traced run recorded no calls of {', '.join(silent)}; "
                         "a wrapped name was renamed or is no longer on the path")
    return metrics


def machine(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS, "threads_from": "bench/run.py"},
        "num_threads_env": env,
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when the
    checkout is not a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


OPERATIONS = {
    "train": Run.train,
    "n4096_g2": Run.shared_batch,
    "gallery": Run.gallery,
    "oracle_compare": Run.oracle_compare,
    "verification": Run.verification,
}


def run_workload(run: Run, rotation, blocks: int, seconds: float, tracer) -> None:
    """The closed loop: set-up, the prelude and one rotation (the fixed
    part), each heavy operation followed by a dataset build and the
    workload's light blocks.

    Untraced, the rotation's operations then go on one at a time until
    `seconds` have passed since set-up. Traced, the fixed part runs with the
    shims installed, so the per-layer totals are always the same work, and
    the rotation then runs once more without them: trace.overhead_pct
    compares the two rotations' wall times."""

    def step(kind):
        run.calibration.measure()
        OPERATIONS[kind](run)
        run.calibration.measure()
        run.build_dataset()
        for _ in range(blocks):
            run.light_block()

    def rotate():
        t0 = clock()
        for kind in rotation:
            step(kind)
        run.rotation_s.append(clock() - t0)

    with tracer.installed() if tracer else nullcontext():
        run.setup()
        deadline = clock() + seconds
        for kind in PRELUDE:
            step(kind)
        rotate()
    if tracer:
        rotate()
        return
    i = 0
    while clock() < deadline:
        step(rotation[i % len(rotation)])
        i += 1


def time_shares(run: Run, wall: float) -> dict:
    """Share of the run's wall time per kind of operation; `other` is the
    rest: checks, references, the quality estimate and interpreter glue."""
    shares = {k: sum(v) / wall for k, v in run.times.items()}
    shares["calibration"] = sum(run.calibration.times) / wall
    shares["other"] = 1.0 - sum(shares.values())
    return {k: round(v, 4) for k, v in shares.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.makedirs(OUT, exist_ok=True)
    rotation, blocks = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    run = Run(args.seed, tracer)
    started = clock()

    try:
        run_workload(run, rotation, blocks, args.seconds, tracer)
    finally:
        if run.checkpoint_dir is not None:
            shutil.rmtree(run.checkpoint_dir)
    details = {"energy_to_oracle": run.quality()}

    if tracer:
        values = {}
        traced, plain = run.rotation_s
        metrics = per_layer(run, tracer, 100.0 * (traced / plain - 1.0))
        spans = os.path.join(OUT, f"spans-{args.workload}.npz")
        tracer.write(spans)
        details["spans"] = os.path.relpath(spans, ROOT)
    else:
        values, tails = run.end_to_end(run.scaled())
        details.update(tails)
        details["unscaled"] = run.end_to_end(run.times)[0]
        calibration = run.calibration.times
        details["calibration_ms"] = {"p50": 1e3 * statistics.median(calibration),
                                     "ref": 1e3 * CALIBRATION_REF_S, "samples": len(calibration)}
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    details["samples"] = {k: len(v) for k, v in run.times.items()}
    details["wall_s"] = clock() - started
    details["time_share"] = time_shares(run, details["wall_s"])

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(args.seed),
        "end_to_end": values,
        "details": details,
        "checks_failed": run.ledger.failures,
        "samples_s": run.times,
        "stamps_s": run.stamps,
        "calibration_s": {"stamps": run.calibration.stamps, "times": run.calibration.times},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"machine": record["machine"]}))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for name, value in details.items():
        print(f"{name:48s} {json.dumps(value)}")
    for failure in run.ledger.failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not run.ledger.failures,
        "attempted": run.ledger.attempted,
        "failed": len(run.ledger.failed_ops),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
