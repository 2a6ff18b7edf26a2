"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

For each workload, runs the real command at a tiny size, untraced and
traced, and asserts that every metric name declared in BENCHMARK.json is
printed with its unit, that the run is correct, and that the traced counts
repeat.  Then it corrupts one output of each workload (a point moved outside
its region; a gate verdict flipped) and asserts that the error rate the
harness computes rises above 0.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_command(workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.splitlines()


def check_output(lines: list[str], declared: list[dict], workload: str, trace: int) -> None:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, (workload, trace, result)
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}, (workload, trace)
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], (m, printed)
        assert isinstance(printed["value"], (int, float)), (m, printed)
        line = next((x for x in lines if x.startswith(f"metric {m['name']} ")), None)
        assert line is not None and line.endswith(f" {m['unit']}"), (m["name"], line)
    if trace:
        assert any(x == "metric trace.counts_repeat 1 bool" for x in lines), workload


def corrupted_error_rate(workload_name: str) -> float:
    """Error rate of a tiny pass after one output has been corrupted."""
    import run

    bd = run.load_package()
    import workloads as wl

    workload = wl.build(workload_name, 7, wl.TINY)
    passes = [workload.run_pass(), workload.run_pass()]
    assert run.count_failures(workload, passes) == 0, workload_name
    outputs = passes[0].outputs
    if workload_name == "verify":
        report = json.loads(outputs[0].report)
        report["results"][-1]["verdict"] = "fail"
        outputs[0] = dataclasses.replace(outputs[0], report=json.dumps(report))
    else:
        i = next(
            i for i, c in enumerate(outputs) if isinstance(c, bd.PointConfiguration) and c.points
        )
        region = workload.jobs[i][1].region
        outside = complex(0.5 * (1.0 + region.outer_radius), 0.0)
        outputs[i] = dataclasses.replace(outputs[i], points=(outside,) + outputs[i].points[1:])
    attempted = sum(len(p.outputs) for p in passes)
    return run.count_failures(workload, passes) / attempted


def main() -> int:
    sys.path.insert(0, str(BENCH))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            check_output(run_command(workload, trace), declared, workload, trace)
        rate = corrupted_error_rate(workload)
        assert rate > 0.0, (workload, rate)
        print(f"ok {workload}: metrics printed with units; corrupted error_rate {rate:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
