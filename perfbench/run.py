"""Benchmark of groundsent: one workload per run, or a table of all three.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run generates its inputs from --seed in a child process, sets up several
times (setup_s is the median), measures a closed loop for --seconds, checks
the outputs and prints, as its last stdout line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list; with --trace 1 its per_layer list.
Earlier lines hold the manifest and a "detail" object with the metrics
under their per-workload names. `--workload all` runs each workload in its
own process and prints a table of those names. See README.md.
"""

from __future__ import annotations

import env

env.pin_threads()  # before numpy loads anywhere in this process or its children

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-small", "train-largevocab", "eval-retrieval")
UNITS = {"setup_s": "s", "train_sents_per_s": "1/s", "encode_sents_per_s": "1/s",
         "step_ms_p50": "ms", "step_ms_p90": "ms", "retrieval_ms_p50": "ms",
         "salience_ms_p50": "ms", "salience_ms_p90": "ms", "peak_rss_mb": "MB",
         "error_rate": "frac"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy shrinks corpora and pools, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def spec_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    gs = env.import_groundsent()
    import workloads

    units = spec_metrics(args.trace)
    size = workloads.SIZES[args.size]
    env.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=env.WORK))
    try:
        subprocess.run([sys.executable, str(HERE / "gen.py"), args.workload, str(args.seed),
                        args.size, str(work)], check=True, timeout=300)
        print(json.dumps({"manifest": env.manifest(args.workload, args.seed, args.seconds,
                                                   args.trace, args.size)}), flush=True)
        result = workloads.run(gs, args.workload, args.seed, args.seconds, bool(args.trace),
                               size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = result.tally
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    values = result.per_layer if args.trace else result.e2e
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    if not all(math.isfinite(v) for v in values.values()):
        raise RuntimeError(f"non-finite metric in {values}")
    print(json.dumps({"detail": result.detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so no peak memory or state leaks between them."""
    rows, ok = [], True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
        detail, result = lines[-2]["detail"], lines[-1]
        ok = ok and result["correct"]
        if args.trace:
            rows += [(workload, k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        else:
            rows += [(workload, k, v, UNITS[k]) for k, v in detail["named"].items()]
        rows.append((workload, "attempted/failed", f"{result['attempted']}/{result['failed']}", ""))
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:17s} {name:34s} {shown:>14s} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
