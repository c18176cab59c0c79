"""Per-layer tracing of groundsent, taken from outside the package.

The tracer replaces module attributes with wrappers that open a span, and
restores them on `uninstall`. Each name is patched where it is looked up:
`training` binds `encode_sentence`, `caption_nll` and `grounding_loss` in
its own namespace, and `evaluation` binds `encode_sentence` and `project`,
so those bindings are patched rather than the defining modules.

`autodiff.record` is wrapped so that every backward closure it records is
timed, and counted, under the layer whose span was innermost when the op
was recorded. Entries are counted when backward replays them, so ops run
without an active tape (inference) are never counted.

A span's layer is the part of its name before the first dot. Ops recorded
outside any layer span are attributed to `training`: in a train step that
is `composite_loss` summing and stacking its parts.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory spans (inclusive and self time, call counts) and per-op backward counters."""

    def __init__(self):
        self._stack: list[list] = []  # [layer, seconds spent in child spans]
        self._undo: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.entries: Counter[tuple[str, str]] = Counter()      # (layer, op) -> replayed entries
        self.bwd_s: dict[tuple[str, str], float] = defaultdict(float)  # (layer, op) -> seconds

    def take(self) -> dict:
        """Return what was recorded since the last take/reset, then reset."""
        snap = {"total_s": dict(self.total_s), "self_s": dict(self.self_s),
                "calls": dict(self.calls), "entries": dict(self.entries),
                "bwd_s": dict(self.bwd_s)}
        self.reset()
        return snap

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        frame = [name.split(".", 1)[0], 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.total_s[name] += dt
            self.self_s[name] += dt - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dt

    def _layer(self) -> str:
        return self._stack[-1][0] if self._stack else "training"

    def patch(self, owner, attr: str, span_name: str) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self.span(span_name, orig, *args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def patch_record(self, autodiff) -> None:
        orig = autodiff.record

        def record(name, inputs, outputs, backward):
            key = (self._layer(), name)

            def timed_backward():
                t0 = time.perf_counter()
                backward()
                self.bwd_s[key] += time.perf_counter() - t0
                self.entries[key] += 1

            orig(name, inputs, outputs, timed_backward)

        autodiff.record = record
        self._undo.append((autodiff, "record", orig))

    def install(self, gs) -> None:
        """Patch every traced name of the groundsent modules in namespace `gs`."""
        tr, ev = gs.training, gs.evaluation
        self.patch(tr, "encode_sentence", "encoder.fwd")
        self.patch(tr, "caption_nll", "decoder.fwd")
        self.patch(tr, "grounding_loss", "grounding.fwd")
        self.patch(tr, "composite_loss", "training.loss_fwd")
        self.patch(tr, "clip_gradients", "training.clip")
        self.patch(tr, "adam_step", "training.adam")
        self.patch(gs.autodiff.Tape, "backward", "autodiff.backward")
        self.patch(ev, "encode_sentence", "encoder.fwd")
        self.patch(ev, "encode_reps", "evaluation.encode")
        self.patch(ev, "project", "evaluation.project")
        self.patch(gs.checkpoint, "save", "checkpoint.save")
        self.patch(gs.checkpoint, "load", "checkpoint.load")
        self.patch(gs.data, "make_batches", "data.make_batches")
        self.patch_record(gs.autodiff)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
