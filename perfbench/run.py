"""Benchmark of the icl pipeline: one command, three workloads.

    python3 perfbench/run.py --workload extract|train-icl|infer \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run drives the pipeline from
synthesis to class activation maps in separate processes (see
``phase.py``), checks every output, and prints as the last line of
stdout one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics named in ``BENCHMARK.json`` -- the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from phase import CYCLES, TIMED_PARTS  # noqa: E402

ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("extract", "train-icl", "infer")
TIME_LIMIT_S = 170            # a run must end within 180 s
BLAS_THREADS = "1"            # at most nproc; one thread gave the steadiest figures
SETUP_LAYERS = ("audio.synthesize_dataset.s", "wavio.write_wav.s")


class BenchError(RuntimeError):
    pass


def _phase(spec: dict, deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    budget = deadline - perf_counter()
    if budget <= 0:
        raise BenchError(f"no time left for the {spec['phase']} phase")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "phase.py"), json.dumps(spec)],
                              stdout=subprocess.PIPE, text=True, env=env, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{spec['phase']} phase exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{spec['phase']} phase exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median_rate(ops: list[dict], name: str) -> float:
    rates = [o["n"] / o["s"] for o in ops if o["op"] == name and o["ok"]]
    if not rates:
        raise BenchError(f"no successful {name} operation to measure")
    return statistics.median(rates)


def end_to_end(setups: list[dict], timed: list[dict], tails: list[dict]) -> dict[str, float]:
    """Stage rates from every call of the stage in the run, set-up calls
    included, so that each stage is sampled across the whole run."""
    ops = [o for p in [*setups, *timed, *tails] for o in p["ops"]]
    cam_ms = [o["s"] * 1e3 for o in ops if o["op"] == "cam" and o["ok"]]
    if len(cam_ms) < 100:
        raise BenchError(f"only {len(cam_ms)} successful cam calls; need 100 for a p90")
    return {
        "setup_s": statistics.median(
            s["import_s"] + sum(o["s"] for o in s["ops"] if o.get("setup")) for s in setups),
        "peak_rss_mb": max(t["rss_mb"] for t in timed),
        "extract_segments_per_s": _median_rate(ops, "extract"),
        "train_samples_per_s": _median_rate(ops, "train"),
        "eval_segments_per_s": _median_rate(ops, "eval"),
        "cam_ms_p50": statistics.median(cam_ms),
        # The 90th percentile keeps at least ten of >= 100 calls beyond it.
        "cam_ms_p90": statistics.quantiles(cam_ms, n=10)[-1],
    }


def per_layer(setups: list[dict], timed: dict, tails: list[dict]) -> dict[str, float]:
    """Timed-phase layer totals and tracing overhead per round; set-up
    layers per set-up; each stage's median wall time per call over the run."""
    rounds = timed["rounds_traced"]
    layers = {k: v / rounds for k, v in timed["layers"].items()}
    for key in SETUP_LAYERS:
        layers[key] = statistics.median(s["layers"].get(key, 0.0) for s in setups)
    reads = timed["layers"].get("pipeline.load_dataset.reads", 0.0)
    layers["pipeline.load_dataset.useful_ratio"] = (
        timed["layers"].get("pipeline.load_dataset.consumed", 0.0) / reads if reads else 0.0)
    calls: dict[str, list[float]] = {}
    for phase in [*setups, timed, *tails]:
        for stage, times in phase["stage_calls"].items():
            calls.setdefault(stage, []).extend(times)
    for stage, times in calls.items():
        layers[f"pipeline.cmd_{stage}.s"] = statistics.median(times)
    layers["tracing_overhead_s"] = timed["overhead_s"] / rounds
    return layers


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace else "end_to_end"]
    deadline = perf_counter() + TIME_LIMIT_S
    work = OUT / "work" / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    base = {"root": str(ROOT), "workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace)}
    table = OUT / "trace" / f"{workload}-s{seed}-ops.csv"
    # Cycle i: a set-up in a new directory, then part i of the timed phase
    # and of the tail, both on the first set-up's directory. A traced run
    # has one set-up and one timed part, then every tail part.
    cycles = 1 if trace else CYCLES
    parts = 1 if trace else TIMED_PARTS[workload]
    setups, timed, tails = [], [], []
    try:
        for i in range(cycles):
            setup_dir = work / f"setup{i}"
            setup_dir.mkdir(parents=True)
            setups.append(_phase({**base, "phase": "setup", "dir": str(setup_dir)}, deadline))
            shared = {**base, "dir": str(work / "setup0"), "part": i}
            if i < parts:
                if trace:
                    table.parent.mkdir(parents=True, exist_ok=True)
                timed.append(_phase({**shared, "phase": "timed", "parts": parts,
                                     "table": str(table) if trace else None}, deadline))
            for part in range(CYCLES) if trace else [i]:
                tails.append(_phase({**shared, "phase": "tail", "part": part}, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [o for p in [*setups, *timed, *tails] for o in p["ops"]]
    values = (per_layer(setups, timed[0], tails) if trace
              else end_to_end(setups, timed, tails))
    metrics = {}
    for m in wanted:
        if m["name"] not in values and not trace:
            raise BenchError(f"metric {m['name']} was not measured")
        # A layer absent from the trace did no work in the timed phase.
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    if trace:
        print(f"op table: {table}", file=sys.stderr)
    return {
        # An output that fails a check makes the run incorrect; operations
        # that raised are counted in ``failed`` only.
        "correct": not any(o["wrong"] for o in ops),
        "attempted": len(ops),
        "failed": sum(not o["ok"] for o in ops),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "icl" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src' / 'icl'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
