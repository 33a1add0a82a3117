"""Per-layer tracing by wrapping the public functions of the ``icl`` modules.

The program is not edited: ``Tracer.install`` replaces module attributes
with timing wrappers and ``uninstall`` puts the originals back. Each
autodiff op's backward time comes from wrapping the backward rule of the
node the op returns. Totals are kept in memory and read out once.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

MB = float(1 << 20)

AUTODIFF_OPS = ("add", "mul", "scale", "weighted_sum", "sum_all", "relu", "transpose",
                "matmul", "linear", "conv2d", "global_avg_pool", "l2_normalize",
                "softmax_cross_entropy")
STAGES = ("synth", "extract", "train", "eval", "cam")


class Tracer:
    """Accumulates time, call counts and sizes per layer function."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        # (op, layer, input shape) -> [calls, forward s, backward s]
        self.table: dict[tuple[str, str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.stage_calls: dict[str, list[float]] = defaultdict(list)
        self._saved: list[tuple[object, str, object]] = []
        self._rule_s = 0.0
        self._stage_now: str | None = None
        self._in_train = False

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _timer(self, key: str, calls: str | None = None, size=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                t = perf_counter()
                out = fn(*args, **kwargs)
                self.totals[key] += perf_counter() - t
                if calls:
                    self.totals[calls] += 1
                if size:
                    self.totals[size[0]] += size[1](args, out) / MB
                return out
            return wrapper
        return make

    def install(self) -> None:
        from icl import (audio, autodiff, checkpoint, features, losses, model, optim,
                         pipeline, reporting, training, wavio)

        for stage in STAGES:
            self._patch(pipeline, f"cmd_{stage}", self._stage(stage))
        self._patch(pipeline, "load_dataset", self._load_dataset)
        self._patch(features, "read_feature_cache", self._timer(
            "features.read_feature_cache.s", "features.read_feature_cache.calls",
            ("features.read_feature_cache.mb", lambda a, out: out[2].nbytes + 19)))
        self._patch(features, "write_feature_cache", self._timer(
            "features.write_feature_cache.s", None,
            ("features.write_feature_cache.mb", lambda a, out: 4 * a[1].size + 19)))
        self._patch(features, "mel_spectrogram", self._timer("features.mel_spectrogram.s"))
        self._patch(features, "cqt_spectrogram", self._timer("features.cqt_spectrogram.s"))
        self._patch(wavio, "read_wav", self._timer(
            "wavio.read_wav.s", None, ("wavio.read_wav.mb", lambda a, out: os.path.getsize(a[0]))))
        self._patch(wavio, "write_wav", self._timer("wavio.write_wav.s"))
        self._patch(audio, "segment_tracks", self._timer("audio.segment_tracks.s"))
        self._patch(audio, "synthesize_dataset", self._timer("audio.synthesize_dataset.s"))
        self._patch(model, "encoder_forward", self._encoder_forward)
        self._patch(model, "compute_cam", self._timer("model.compute_cam.s"))
        self._patch(losses, "combined_loss", self._timer("losses.combined_loss.s"))
        self._patch(training, "predict_logits", self._timer("training.predict_logits.s"))
        self._patch(training, "train", self._train)
        self._patch(optim.AdamW, "step", self._step)
        # pipeline binds the checkpoint functions by name at import.
        for owner in (checkpoint, pipeline):
            self._patch(owner, "save_checkpoint", self._timer("checkpoint.save_checkpoint.s"))
            self._patch(owner, "load_checkpoint", self._timer("checkpoint.load_checkpoint.s"))
        self._patch(reporting, "export_cam", self._timer("reporting.export_cam.s"))
        for op in AUTODIFF_OPS:
            self._patch(autodiff, op, self._op(op))
        self._patch(autodiff, "backward", self._backward)

    # -- wrappers -------------------------------------------------------------

    def _stage(self, stage: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self._stage_now = stage
                t = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.stage_calls[stage].append(perf_counter() - t)
                    self._stage_now = None
            return wrapper
        return make

    def _load_dataset(self, fn):
        def wrapper(cfg, out_dir, kinds, stats=None):
            reads = self.totals["features.read_feature_cache.calls"]
            t = perf_counter()
            data, stats_out = fn(cfg, out_dir, kinds, stats)
            self.totals["pipeline.load_dataset.s"] += perf_counter() - t
            self.totals["pipeline.load_dataset.calls"] += 1
            self.totals["pipeline.load_dataset.reads"] += (
                self.totals["features.read_feature_cache.calls"] - reads)
            # Rows the calling command goes on to use: train fits on train
            # and validates on val, eval scores test, cam explains one row.
            splits = {"train": ("train", "val"), "eval": ("test",)}.get(self._stage_now, ())
            rows = sum(data.split_size(s) for s in splits) if splits else 1
            self.totals["pipeline.load_dataset.consumed"] += rows * len(kinds)
            return data, stats_out
        return wrapper

    def _encoder_forward(self, fn):
        def wrapper(params, cfg, x):
            t = perf_counter()
            out = fn(params, cfg, x)
            self.totals[f"model.encoder_forward.{cfg.input_kind}_s"] += perf_counter() - t
            return out
        return wrapper

    def _train(self, fn):
        def wrapper(*args, **kwargs):
            self._in_train = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_train = False
        return wrapper

    def _step(self, fn):
        def wrapper(opt):
            t = perf_counter()
            fn(opt)
            self.totals["optim.AdamW.step.s"] += perf_counter() - t
            self.totals["optim.AdamW.step.calls"] += 1
            if self._in_train:
                self.totals["training.train.steps"] += 1
        return wrapper

    def _op(self, op: str):
        group = "conv2d" if op == "conv2d" else "other"

        def make(fn):
            def wrapper(*args, **kwargs):
                t = perf_counter()
                out = fn(*args, **kwargs)
                dt = perf_counter() - t
                first = args[0] if args else next(iter(kwargs.values()))
                layer = "-"
                flops = 0
                if op in ("conv2d", "linear"):  # both take (x, w, b, ...)
                    w = args[1] if len(args) > 1 else kwargs["w"]
                    layer = w.name or "-"
                if op == "conv2d":
                    padding = args[4] if len(args) > 4 else kwargs.get("padding", "same")
                    n, _, oh, ow = out.data.shape
                    f, c, kh, kw = w.data.shape
                    flops = 2 * n * oh * ow * f * c * kh * kw
                    self.totals["autodiff.conv2d.calls"] += 1
                    self.totals["autodiff.conv2d.gflop"] += flops / 1e9
                    if not (kh == kw == 1 and padding == "same"):
                        self.totals["autodiff.conv2d.im2col_mb"] += (
                            n * oh * ow * c * kh * kw * out.data.itemsize / MB)
                self.totals[f"autodiff.{group}.fwd_s"] += dt
                row = self.table[(op, layer, "x".join(map(str, first.data.shape)))]
                row[0] += 1
                row[1] += dt
                out._backward = self._rule(out._backward, group, row, flops)
                return out
            return wrapper
        return make

    def _rule(self, rule, group: str, row: list, flops: int):
        def timed(g):
            t = perf_counter()
            grads = rule(g)
            dt = perf_counter() - t
            self._rule_s += dt
            row[2] += dt
            self.totals[f"autodiff.{group}.bwd_s"] += dt
            if flops:
                # dW and dX each cost as much as the forward product.
                done = sum(gr is not None for gr in grads[:2])
                self.totals["autodiff.conv2d.gflop"] += done * flops / 1e9
            return grads
        return timed

    def _backward(self, fn):
        def wrapper(loss):
            t = perf_counter()
            rules = self._rule_s
            fn(loss)
            self.totals["autodiff.backward.self_s"] += perf_counter() - t - (self._rule_s - rules)
        return wrapper

    # -- read-out -------------------------------------------------------------

    def write_table(self, path) -> None:
        """CSV of op x layer x input shape with calls and forward/backward ms."""
        lines = ["op,layer,input_shape,calls,fwd_ms,bwd_ms"]
        for (op, layer, shape), (calls, fwd, bwd) in sorted(self.table.items()):
            lines.append(f"{op},{layer},{shape},{calls},{fwd * 1e3:.4f},{bwd * 1e3:.4f}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
