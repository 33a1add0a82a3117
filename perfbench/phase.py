"""One phase of a benchmark run, executed in a process of its own.

    python3 perfbench/phase.py '<json spec>'

A run has three kinds of phase, each process a fresh interpreter so
that one phase's memory high-water mark cannot mask another's:

- ``setup``: the pipeline stages before the workload's own stage; on
  train-icl and infer also a few warm extract calls, which are not set-up.
- ``timed``: one part of the workload's own stage: whole rounds until its
  share of ``seconds`` has passed; the largest peak RSS of the parts is the
  run's ``peak_rss_mb``.
- ``tail``: one part of the other stages, so that every end-to-end
  metric is measured on every workload.

A run repeats set-up, timed part and tail part in ``CYCLES`` cycles
(``run.py``): timing on a shared host drifts over seconds, so every stage is
sampled in several processes across the whole run, not in one burst.

Every operation is a public pipeline command; its output is checked
after the clock stops. The last line of stdout is one JSON document.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

# The pipeline order; a workload's set-up is every stage before its own.
SETUP_STAGES = {"extract": ("synth",), "train-icl": ("synth", "extract"),
                "infer": ("synth", "extract", "train")}
EPOCHS = {"extract": 1, "train-icl": 4, "infer": 1}
CYCLES = 3                  # set-up, timed part, tail part; setup_s is the set-ups' median
# One 4-epoch training round outlasts a third of the run, so train-icl has
# one timed part.
TIMED_PARTS = {"extract": 3, "train-icl": 1, "infer": 3}
# A timed round of infer: 2 evals, then cam for 7 test segments x every
# class; 4 rounds export every test segment once, and at least 2 rounds
# per part give at least 6 rounds of 28 cam calls.
EVALS_PER_ROUND = 2
CAM_SEGMENTS_PER_ROUND = 7
MIN_ROUNDS = {"extract": 1, "train-icl": 1, "infer": 2}      # per timed part
SETUP_EXTRACTS = 3          # warm extract calls after each set-up of train-icl, infer
# Extract calls vary most from call to call, so every tail part adds some.
TAIL_EXTRACTS = {"extract": 2, "train-icl": 2, "infer": 3}
TAIL_EVALS = 2              # per tail part
TAIL_CAM_SEGMENTS = 9       # per tail part: 9 x 4 classes x 3 parts = 108 cam calls
SAMPLED_SEGMENTS = 3        # per extract call, recomputed from the definitions


def workload_config(workload: str, seed: int) -> dict:
    """Desk preset; the extract workload synthesizes 16 tracks per class (448 segments)."""
    from icl.config import resolve_config

    overrides = [f"seed={seed}", "training.mode=icl", "training.alpha=0.5",
                 f"training.epochs={EPOCHS[workload]}"]
    if workload == "extract":
        overrides.append("dataset.synthesis.tracks_per_class=16")
    return resolve_config(preset="desk", overrides=overrides, env={})


class Phase:
    """Runs timed operations and records, per operation, time, units and verdict."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        import checks
        from icl import pipeline

        self.checks, self.pipeline = checks, pipeline
        self.workload = workload
        self.cfg = workload_config(workload, seed)
        self.out = out_dir
        self.run_name = pipeline.default_run_name(self.cfg)
        self.rng = np.random.default_rng([seed, 2402])
        self.ops: list[dict] = []

    def op(self, name: str, call, units, check) -> dict:
        """Time ``call()``; then check its output outside the timed region.

        A raised exception fails the operation; so does a wrong output,
        which also marks the record ``wrong``.
        """
        rec = {"op": name, "s": 0.0, "n": 0, "ok": False, "wrong": False, "error": None}
        self.ops.append(rec)
        t = perf_counter()
        try:
            out = call()
        except Exception as exc:  # a program fault fails this operation only
            rec.update(s=perf_counter() - t, error=f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return rec
        rec["s"] = perf_counter() - t
        try:
            rec["n"] = units(out)
            check(out)
        except Exception as exc:  # any fault found in the output fails the check
            rec.update(wrong=True, error=f"{type(exc).__name__}: {exc}")
            print(f"check failed: {name}: {rec['error']}", file=sys.stderr)
            return rec
        rec["ok"] = True
        return rec

    # -- one operation per pipeline command -----------------------------------

    def synth(self) -> None:
        self.op("synth", lambda: self.pipeline.cmd_synth(self.cfg, self.out), lambda _: 1,
                lambda _: self.checks.check_synth(self.cfg, self.out))

    def extract(self) -> None:
        """cmd_extract into an emptied feature cache: every call writes new
        files, as a first extraction does, and the check reads only them."""
        def check(index):
            ids = [s["id"] for s in index["segments"]]
            sample = self.rng.choice(len(ids), SAMPLED_SEGMENTS, replace=False)
            self.checks.check_extract(self.cfg, self.out, index, [ids[i] for i in sample])

        shutil.rmtree(self.out / "features", ignore_errors=True)
        self.op("extract", lambda: self.pipeline.cmd_extract(self.cfg, self.out),
                lambda index: len(index["segments"]), check)

    def train(self, converged: bool) -> None:
        n_train = len(self.checks.split_assignment(self.cfg, self.out).train)
        self.op("train", lambda: self.pipeline.cmd_train(self.cfg, self.out, self.run_name),
                lambda _: n_train * self.cfg["training"]["epochs"],
                lambda run_dir: self.checks.check_train(self.cfg, self.out, run_dir, converged))

    def evaluate(self, calls: int) -> dict | None:
        rec = None
        for _ in range(calls):
            rec = self.op("eval", lambda: self.pipeline.cmd_eval(self.out, self.run_name),
                          lambda doc: doc["n_test"],
                          lambda _: self.checks.check_eval(self.cfg, self.out, self.run_dir))
        if not rec["ok"]:
            return None
        return json.loads((self.run_dir / "eval.json").read_text())

    def cams(self, eval_doc: dict | None, first: int = 0, count: int | None = None) -> None:
        """cmd_cam for every class of test segments first..first+count
        (first taken modulo the test set), then the pooling identity per segment; a segment that breaks it fails
        all of its cam operations."""
        n_classes = self.cfg["dataset"]["synthesis"]["n_classes"]
        kinds = ("mel", "cqt")
        test = [s.segment_id for s in self.checks.split_assignment(self.cfg, self.out).test]
        first %= len(test)
        stop = len(test) if count is None else min(first + count, len(test))
        for index in range(first, stop):
            sid = test[index]
            recs = [self.op("cam", lambda: self.pipeline.cmd_cam(
                                self.out, self.run_name, index=index, class_index=c),
                            lambda paths: 1,
                            lambda paths: self._check_cam_files(paths, sid, c, kinds))
                    for c in range(n_classes)]
            if eval_doc is None or not all(r["ok"] for r in recs):
                continue
            try:
                self.checks.check_cam_identity(self.run_dir, eval_doc, [sid], kinds)
            except Exception as exc:  # the identity is a check on these outputs
                print(f"check failed: cam: {exc}", file=sys.stderr)
                for r in recs:
                    r.update(ok=False, wrong=True, error=f"{type(exc).__name__}: {exc}")

    def _check_cam_files(self, paths, sid: str, c: int, kinds) -> None:
        want = {self.run_dir / f"cam_{sid}_{k}_c{c}.{ext}" for k in kinds for ext in ("csv", "pgm")}
        if set(map(Path, paths)) != want or not all(p.exists() for p in want):
            raise self.checks.CheckError(f"cam {sid} class {c} wrote {sorted(map(str, paths))}")

    @property
    def run_dir(self) -> Path:
        return self.out / "runs" / self.run_name

    # -- phases ---------------------------------------------------------------

    def setup(self) -> None:
        """The set-up stages, their ops tagged ``setup``; after the extract
        stage, warm extract calls that are samples, not set-up. They come
        before any training: extract calls after a training run in the same
        process ran slower and spread more across runs."""
        for stage in SETUP_STAGES[self.workload]:
            first = len(self.ops)
            if stage == "train":
                self.train(converged=False)
            else:
                getattr(self, stage)()
            for rec in self.ops[first:]:
                rec["setup"] = True
            if stage == "extract":
                for _ in range(SETUP_EXTRACTS):
                    self.extract()

    def round(self, index: int) -> None:
        if self.workload == "extract":
            self.extract()
        elif self.workload == "train-icl":
            self.train(converged=True)
        else:
            first = index * CAM_SEGMENTS_PER_ROUND
            self.cams(self.evaluate(EVALS_PER_ROUND), first, CAM_SEGMENTS_PER_ROUND)

    def tail(self, part: int) -> None:
        """Part ``part`` of the tail: extract calls, then on extract and
        train-icl eval and cam. On extract these need a trained model, which
        the first part trains after its extract calls."""
        for _ in range(TAIL_EXTRACTS[self.workload]):
            self.extract()
        if self.workload == "infer":
            return
        if self.workload == "extract" and part == 0:
            self.train(converged=False)
        self.cams(self.evaluate(TAIL_EVALS), part * TAIL_CAM_SEGMENTS, TAIL_CAM_SEGMENTS)


def main(spec: dict) -> dict:
    t0 = perf_counter()
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import tracing
    from icl import pipeline  # noqa: F401  (import cost belongs to the phase)

    import_s = perf_counter() - t0
    phase = Phase(spec["workload"], spec["seed"], Path(spec["dir"]))
    tracer = tracing.Tracer() if spec["trace"] else None
    result = {"import_s": import_s, "rounds_traced": 0, "overhead_s": 0.0}

    if spec["phase"] == "timed":
        # Part p of P runs rounds p*m, p*m+1, ... (m the minimum per part)
        # for its share of the seconds.
        deadline = perf_counter() + spec["seconds"] / spec["parts"]
        least = MIN_ROUNDS[phase.workload]
        index = spec["part"] * least
        if tracer is None:
            while True:
                phase.round(index)
                index += 1
                if perf_counter() >= deadline and index >= (spec["part"] + 1) * least:
                    break
        else:
            # Pairs of rounds, untraced then traced, give the tracing overhead
            # on work of the same shapes.
            while True:
                t = perf_counter()
                phase.round(index)
                untraced = perf_counter() - t
                tracer.install()
                t = perf_counter()
                phase.round(index + 1)
                result["overhead_s"] += perf_counter() - t - untraced
                tracer.uninstall()
                result["rounds_traced"] += 1
                index += 2
                if perf_counter() >= deadline and index >= (spec["part"] + 1) * least:
                    break
    else:
        if tracer is not None:
            tracer.install()
        if spec["phase"] == "tail":
            phase.tail(spec["part"])
        else:
            phase.setup()
        if tracer is not None:
            tracer.uninstall()

    result["ops"] = phase.ops
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = dict(tracer.totals)
        result["stage_calls"] = dict(tracer.stage_calls)
        if spec.get("table"):
            tracer.write_table(spec["table"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
