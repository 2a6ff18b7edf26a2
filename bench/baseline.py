"""Repeat the benchmark over several seeds and summarise it.

    python3 bench/baseline.py --runs 10 --traced 3 [--first-seed 100] [--out FILE]

For every workload in BENCHMARK.json this runs the benchmark command
``--runs`` times untraced and ``--traced`` times traced, each with its own
seed, in a fresh process per run started from the repository root.  For each end-to-end metric it reports the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(interquartile distance over the median), next to the metric's bound.  It
also sets the harness's values beside the ad-hoc numbers of ROADMAP.md's
open-items table and flags a row whose difference exceeds the harness's own
run-to-run spread.  The summary is printed and written to ``--out``
(default ``bench/baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# ROADMAP.md open-items table, measured with ad-hoc scripts before the harness
# existed: (row, value, unit, workload, how the harness value is derived)
ROADMAP_ROWS = (
    ("sample, disc 0.98, beta 5 (per configuration)", 17.0, "ms", "sample-large",
     ("extra", "sample_ms.mean", 1.0)),
    ("one-point sample_positions (per call)", 204.0, "us", "verify",
     ("trace_mean", "sampler.sample_positions", 1e6)),
    ("bernoulli_phase at N=22 (per call)", 40.0, "us", "verify",
     ("trace_mean", "sampler.bernoulli_phase", 1e6)),
    ("make_rng (per call)", 22.0, "us", "verify",
     ("trace_mean", "streams.make_rng", 1e6)),
)


def run_once(spec, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def harness_value(how, untraced: list[dict], traced: list[dict]) -> list[float]:
    kind, key, scale = how
    if kind == "extra":
        return [r["extra"][key]["value"] * scale for r in untraced]
    return [
        scale * r["detail"]["total_s"][key] / r["detail"]["counts"][0][f"{key}.calls"]
        for r in traced
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--traced", type=int, default=3)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--workload", action="append", help="limit to these workloads")
    p.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + max(args.runs, args.traced)))
    out = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}, "roadmap": []}
    records = {}
    all_correct = True
    for name in names:
        untraced, traced = [], []
        results = []
        for seed in seeds[: args.runs]:
            result, record = run_once(spec, name, seed, 0)
            results.append(result)
            untraced.append(record)
        for seed in seeds[: args.traced]:
            result, record = run_once(spec, name, seed, 1)
            results.append(result)
            traced.append(record)
        records[name] = (untraced, traced)
        correct = all(r["correct"] for r in results)
        all_correct &= correct
        entry = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
            "extra": {},
        }
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if untraced:
                s = summary([r["result"]["metrics"][key]["value"] for r in untraced])
                s["bound"] = bounds[key]
                entry["end_to_end"][key] = s
        for key in (untraced[0]["extra"] if untraced else {}):
            entry["extra"][key] = summary([r["extra"][key]["value"] for r in untraced])
        if traced:
            counts = [r["detail"]["counts"] for r in traced]
            entry["trace_counts_repeat"] = all(c[0] == c[1] for c in counts)
            entry["per_layer"] = {
                m["name"]: summary([r["result"]["metrics"][m["name"]]["value"] for r in traced])
                for m in spec["per_layer"]
            }
        out["workloads"][name] = entry
        if untraced:
            out["recorded"] = {k: untraced[0][k] for k in
                               ("git_revision", "machine", "versions", "blas_threads")}

    for row, value, unit, workload, how in ROADMAP_ROWS:
        if workload not in records:
            continue
        values = harness_value(how, *records[workload])
        if not values:
            continue
        s = summary(values)
        diff = abs(s["median"] - value) / s["median"]
        out["roadmap"].append({
            "row": row, "unit": unit, "roadmap": value, "harness_median": s["median"],
            "harness_spread": s["spread"], "relative_difference": diff,
            "differs_beyond_spread": diff > s["spread"], "source": f"{workload}: {how[0]} {how[1]}",
        })

    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for name, entry in out["workloads"].items():
        print(f"{name}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for key, s in entry["end_to_end"].items():
            print(f"  {key:14s} median {s['median']:.6g}  spread {s['spread']:.3f}"
                  f"  bound {s['bound']}")
    for r in out["roadmap"]:
        flag = "DIFFERS" if r["differs_beyond_spread"] else "agrees"
        print(f"  roadmap {r['row']}: {r['roadmap']} vs {r['harness_median']:.4g} {r['unit']}"
              f" (spread {r['harness_spread']:.3f}) {flag}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
