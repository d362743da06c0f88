"""Timing shims for the traced run.

The benchmark wraps public functions and methods of the preimage package in
shims that record one span per call: (name, start, end, parent span, request
id). Spans stay in memory and are written out once, when the run ends. Nothing
in the package itself changes; the shims are installed into the package's
module namespaces from here and removed again afterwards.

A module-level function is patched under every module namespace that holds
it, because the package imports names into the modules that call them
(`preimage.diffusion.sample_batch` is also `preimage.evaluation.sample_batch`).
A method is patched on its class.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, qualified name) of every wrapped callable, in report order.
WRAPPED = (
    ("nn", "LinearLayer.forward"),
    ("nn", "LinearLayer.backward"),
    ("nn", "sigmoid"),
    ("nn", "silu"),
    ("nn", "silu_grad"),
    ("nn", "sinusoidal_embed"),
    ("nn", "ConditionalDenoiser.forward"),
    ("nn", "ConditionalDenoiser.backward"),
    ("nn", "ConditionalDenoiser.clone"),
    ("nn", "Adam.step"),
    ("nn", "EmaParams.update"),
    ("diffusion", "train"),
    ("diffusion", "training_loss"),
    ("diffusion", "q_sample"),
    ("diffusion", "sample_batch"),
    ("diffusion", "respace"),
    ("diffusion", "cfg_combine"),
    ("diffusion", "predict_x0"),
    ("diffusion", "dynamic_threshold"),
    ("evaluation", "rejection_oracle"),
    ("evaluation", "energy_distance"),
    ("evaluation", "identity_error"),
    ("evaluation", "whitebox_gd_invert"),
    ("evaluation", "verification_accuracy"),
    ("embedders", "generate_dataset"),
    ("embedders", "draw_points"),
    ("embedders", "RadiusEmbedder.embed"),
    ("embedders", "RadiusEmbedder.embed_grad"),
    ("persistence", "save_checkpoint"),
    ("persistence", "load_checkpoint"),
)


def _linear_forward_flop(layer, x, *_, **__):
    return 2 * np.shape(x)[0] * layer.in_dim * layer.out_dim


def _linear_backward_flop(layer, grad_out, *_, **__):
    # weight grad, input grad: two (n, in, out) products of 2 flop each.
    return 4 * np.shape(grad_out)[0] * layer.in_dim * layer.out_dim


# Work computed per call, from the argument shapes alone.
FLOP_COUNTERS = {
    "nn.LinearLayer.forward": _linear_forward_flop,
    "nn.LinearLayer.backward": _linear_backward_flop,
}


class Tracer:
    """Records spans of the wrapped callables while installed."""

    def __init__(self):
        self.names = [f"{module}.{qual}" for module, qual in WRAPPED]
        self.name_id = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.flop = np.zeros(len(self.names))
        self.request_id = 0
        self._stack = []
        self._originals = None

    def _shim(self, nid, fn, counter):
        name_id, parent, request = self.name_id, self.parent, self.request
        start, end, stack, flop = self.start, self.end, self._stack, self.flop
        clock = time.perf_counter

        def shim(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            start.append(0.0)
            end.append(0.0)
            if counter is not None:
                flop[nid] += counter(*args, **kwargs)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return shim

    def install(self) -> None:
        """Replace every wrapped callable with its shim."""
        if self._originals is not None:
            raise RuntimeError("shims are already installed")
        package = [m for n, m in sys.modules.items()
                   if n == "preimage" or n.startswith("preimage.")]
        self._originals = []
        for nid, (module, qual) in enumerate(WRAPPED):
            home = sys.modules[f"preimage.{module}"]
            counter = FLOP_COUNTERS.get(self.names[nid])
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(home, cls_name)
                fn = owner.__dict__[attr]
                self._originals.append((owner, attr, fn))
                setattr(owner, attr, self._shim(nid, fn, counter))
                continue
            fn = getattr(home, qual)
            shim = self._shim(nid, fn, counter)
            for mod in package:
                if mod.__dict__.get(qual) is fn:
                    self._originals.append((mod, qual, fn))
                    setattr(mod, qual, shim)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals or []):
            setattr(owner, attr, fn)
        self._originals = None

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self) -> dict:
        """calls, self_ms and flop per wrapped name.

        Self time is a span's duration minus the durations of its direct
        children; the shims run on one thread, so children nest inside their
        parent and never overlap each other.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = dur - covered
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_ms = 1e3 * np.bincount(ids, weights=self_s, minlength=k)
        return {name: {"calls": int(calls[i]), "self_ms": float(self_ms[i]),
                       "flop": float(self.flop[i])}
                for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Write every span to an .npz file of parallel arrays.

        Span i is named names[name_id[i]], ran from start[i] to end[i]
        (seconds of time.perf_counter), was called from span parent[i] (-1 at
        top level) and belongs to benchmark operation request[i].
        """
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 request=np.frombuffer(self.request, dtype=np.int64))
