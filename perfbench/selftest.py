"""Self-test of the benchmark at toy sizes. It has no timing gate.

    python3 perfbench/selftest.py

For each workload it runs run.py untraced and traced, each in its own
process, and checks that:
- the result line has the agreed keys, is correct, and names every metric
  of BENCHMARK.json with its unit and a finite value;
- the detail line holds every per-workload metric, finite;
- in a traced train run the layer times add up to no more than the traced
  step time, and the largest backward op is `select_rows` on
  train-largevocab and `lstm_step` on train-small.
It also checks that run.py fails, printing no result, in a directory that
holds only BENCHMARK.json and perfbench/ (no source tree).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# step_ms_p90 is reported only from at least 100 steps, which a toy run may not reach.
NAMED = {
    "train-small": {"setup_s", "train_sents_per_s", "step_ms_p50", "peak_rss_mb", "error_rate"},
    "train-largevocab": {"setup_s", "train_sents_per_s", "step_ms_p50", "peak_rss_mb",
                         "error_rate"},
    "eval-retrieval": {"setup_s", "encode_sents_per_s", "retrieval_ms_p50", "salience_ms_p50",
                       "salience_ms_p90", "peak_rss_mb", "error_rate"},
}
LARGEST_BWD_OP = {"train-small": "lstm_step", "train-largevocab": "select_rows"}
# Disjoint parts of a traced train step.
STEP_PARTS = ("encoder.fwd_ms", "decoder.fwd_ms", "grounding.fwd_ms", "encoder.bwd_ms",
              "decoder.bwd_ms", "grounding.bwd_ms", "training.clip_ms", "training.adam_ms")
SECONDS = "2"


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", SECONDS, "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload: str, trace: int, proc) -> tuple[dict, dict]:
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert set(metrics) == set(listed), f"{where}: {sorted(set(metrics) ^ set(listed))}"
    for name, unit in listed.items():
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit, f"{where}: unit of {name}"
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name}"
    named = detail["named"]
    want = NAMED[workload]
    assert want <= set(named), f"{where}: missing {sorted(want - set(named))}"
    assert all(math.isfinite(v) for v in named.values()), f"{where}: {named}"
    assert named["error_rate"] == 0.0, f"{where}: {named['error_rate']}"
    return {k: v["value"] for k, v in metrics.items()}, detail


def check_trace(workload: str, metrics: dict, detail: dict) -> None:
    if workload not in LARGEST_BWD_OP:
        return
    parts = sum(metrics[k] for k in STEP_PARTS)
    assert parts <= metrics["training.step_ms"], (
        f"{workload}: layer times {parts:.3f} ms exceed the step {metrics['training.step_ms']:.3f} ms")
    assert metrics["training.other_ms"] >= 0.0, workload
    by_op = detail["bwd_ms_by_op"]
    largest = max(by_op, key=by_op.get)
    assert largest == LARGEST_BWD_OP[workload], f"{workload}: largest backward op {largest}"


def check_fails_without_source() -> None:
    """In a directory with only the benchmark's own files, run.py must fail without a result."""
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run("train-small", 0, cwd=bare)
        assert proc.returncode != 0, "run.py succeeded without a source tree"
        assert not any(line.startswith('{"correct"') for line in proc.stdout.splitlines())


def main() -> int:
    (HERE / ".work").mkdir(exist_ok=True)
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            metrics, detail = check_result(workload, trace, run(workload, trace))
            if trace:
                check_trace(workload, metrics, detail)
            print(f"ok  {workload} --trace {trace}")
    check_fails_without_source()
    print("ok  fails without a source tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
