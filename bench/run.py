"""Benchmark of the bergman_dpp sampler and verifier.

    python3 bench/run.py --workload sample-small|sample-large|verify \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  Load
comes from this one process and thread, with OpenBLAS pinned to one thread.

``--trace 0`` measures the end-to-end metrics.  Set-up is timed in separate
child processes (interpreter start, ``import bergman_dpp``, building the
workload's inputs) and reported as the fastest of them.  Then the
workload's pass repeats until ``--seconds`` have elapsed.

``--trace 1`` measures the per-layer metrics.  It runs four passes of
set-up plus one batch: untraced, traced, traced, untraced.  The traced passes
wrap the package's public functions from outside (see ``spans.py``), their
counts must repeat exactly, and the faster traced pass minus the faster
untraced pass is the tracing overhead.  The spans of the first traced pass
are written to ``bench/out/``.

Outputs are checked outside the timed section (see ``workloads.py``).  The
human-readable lines name every metric with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record of the run is written to
``bench/out/``.
"""

from __future__ import annotations

import os

# pin the BLAS pools before numpy is imported anywhere in this process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("sample-small", "sample-large", "verify")

# per-layer metrics: calls and self time of these spans ...
LAYER_TIMED = (
    "streams.make_rng",
    "spectral.eigenvalues",
    "spectral.feature_matrix",
    "sampler.bernoulli_phase",
    "sampler.sample_positions",
    "sampler.sample_moduli",
    "regions.construct_family",
    "verify.count_pmf",
)
# ... self time only of these ...
LAYER_SELF_ONLY = (
    "verify.mc_count_stats",
    "verify.count_gof",
    "verify.ks_statistic",
    "verify.bound_audit",
    "cli.main",
)
# ... and these counts read off arguments and results (see spans.py)
LAYER_COUNTS = (
    "spectral.feature_matrix.rows",
    "spectral.feature_matrix.entries",
    "sampler.sample_positions.points",
    "verify.count_pmf.terms",
)


def load_package():
    """Import bergman_dpp from this checkout's src/, or exit non-zero."""
    if not (SRC / "bergman_dpp" / "__init__.py").is_file():
        sys.exit(f"bench: no bergman_dpp package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bergman_dpp

    if SRC.resolve() not in Path(bergman_dpp.__file__).resolve().parents:
        sys.exit(f"bench: imported bergman_dpp from {bergman_dpp.__file__}, not {SRC}")
    return bergman_dpp


# ---------------------------------------------------------------------------
# run record


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    """CPU count, model and cache sizes, read-only from /proc and /sys."""
    info = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            info[f"l{level}_cache"] = size
    return info


def run_record(args, size) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size.__dict__,
        "git_revision": git_revision(),
        "machine": machine(),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
        },
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# measurement


def setup_probe(args) -> float:
    """Seconds from spawning a fresh interpreter until it has built the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def mismatches(ref, bad, outputs) -> int:
    """Operations that failed a check on the first pass, or whose output
    differs from the first pass's."""
    return sum(1 for i, out in enumerate(outputs) if i in bad or out != ref[i])


def count_failures(workload, passes) -> int:
    ref = passes[0].outputs
    bad = workload.check(ref)
    return sum(mismatches(ref, bad, p.outputs) for p in passes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_end_to_end(wl, args, size):
    """Repeat the workload's pass for --seconds, with the set-up probes spread
    between passes so that they sample the same stretch of machine time.

    A call's (or segment's) time is its fastest over the passes (best of k):
    every pass repeats identical work, and on a shared machine contention
    only ever adds time, so the fastest repeat of a short call is the
    steadiest estimate of its cost.  Set-up time is likewise the fastest
    probe.  Passes alternate between the CPUs the process may use, because
    contention from outside moves between them.
    """
    name = args.workload
    workload = wl.build(name, args.seed, size)
    cpus = sorted(os.sched_getaffinity(0))
    first = workload.run_pass()
    ref, bad = first.outputs, workload.check(first.outputs)
    failed = len(bad)
    walls, calls, setups = [first.wall_s], [first.call_s], []
    # outputs of later passes are compared and dropped, so memory does not
    # grow with the number of passes; stop before a pass would overrun
    while sum(walls) + walls[-1] <= args.seconds:
        # alternate the CPU between passes: outside contention differs per CPU
        os.sched_setaffinity(0, {cpus[len(walls) % len(cpus)]})
        p = workload.run_pass()
        failed += mismatches(ref, bad, p.outputs)
        walls.append(p.wall_s)
        calls.append(p.call_s)
        due = len(setups) * args.seconds / size.setup_probes
        while len(setups) < size.setup_probes and sum(walls) >= due:
            setups.append(setup_probe(args))
            due = len(setups) * args.seconds / size.setup_probes
    os.sched_setaffinity(0, cpus)
    while len(setups) < size.setup_probes:
        setups.append(setup_probe(args))

    attempted = len(ref) * len(walls)
    points = sum(workload.points(o) for o in ref)
    if len({len(c) for c in calls}) != 1:
        # passes split into different segments: compare whole passes instead
        calls = [[sum(c)] for c in calls]
    best = np.array(calls).min(axis=0)
    batch_s = float(best.sum())
    metrics = {
        "setup_s": (min(setups), "s"),
        "batch_s": (batch_s, "s"),
        "points_per_s": (points / batch_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {"error_rate": (failed / attempted, "ratio")}
    if name == "verify":
        extra["verify_s"] = (batch_s, "s")
    else:
        best_ms = 1e3 * best
        extra["sample_ms.p50"] = (float(np.percentile(best_ms, 50)), "ms")
        extra["sample_ms.p90"] = (float(np.percentile(best_ms, 90)), "ms")
        extra["sample_ms.mean"] = (float(best_ms.mean()), "ms")
        confs = [o for o in ref if workload.points(o)]
        consumed = sum(sum(c.meta.rejections) + len(c.points) for c in confs)
        drawn = sum(c.meta.proposals for c in confs)
        extra["proposals_consumed_per_point"] = (consumed / points, "proposals/point")
        extra["proposals_drawn_per_point"] = (drawn / points, "proposals/point")
    detail = {
        "passes": len(walls),
        "operations_per_pass": len(ref),
        "points_per_pass": points,
        "pass_wall_s": walls,
        "median_pass_s": statistics.median(walls),
        "timed_segments": len(best),
        "best_call_s": best.tolist(),
        "setup_probes_s": setups,
    }
    return metrics, extra, attempted, failed, True, detail


def measure_layers(wl, spans, bd, name, seed, size):
    def one_pass(recorder=None):
        t0 = perf_counter()
        with spans.traced(bd, recorder) if recorder else contextlib.nullcontext():
            workload = wl.build(name, seed, size, marks=False)
            p = workload.run_pass()
        return perf_counter() - t0, workload, p

    origin = perf_counter()
    recorders = [spans.Recorder(), spans.Recorder()]
    plain1, workload, ref = one_pass()
    traced1, _, p1 = one_pass(recorders[0])
    traced2, _, p2 = one_pass(recorders[1])
    plain2, _, p3 = one_pass()
    passes = [ref, p1, p2, p3]
    attempted = sum(len(p.outputs) for p in passes)
    failed = count_failures(workload, passes)

    counts = [r.count_values() for r in recorders]
    counts_repeat = counts[0] == counts[1]
    first, second = recorders
    c = counts[0]

    def self_s(key):
        return (first.self_s.get(key, 0.0) + second.self_s.get(key, 0.0)) / 2.0

    metrics = {}
    for key in LAYER_TIMED:
        metrics[f"{key}.calls"] = (c.get(f"{key}.calls", 0), "count")
        metrics[f"{key}.self_s"] = (self_s(key), "s")
    for key in LAYER_SELF_ONLY:
        metrics[f"{key}.self_s"] = (self_s(key), "s")
    for key in LAYER_COUNTS:
        metrics[key] = (c.get(key, 0), "count")
    points = c.get("sampler.sample_positions.points", 0)
    consumed = c.get("sampler.sample_positions.consumed", 0)
    drawn = c.get("sampler.sample_positions.drawn", 0)
    metrics["sampler.proposals_consumed_per_point"] = (
        consumed / points if points else 0.0, "proposals/point")
    metrics["sampler.proposals_drawn_per_point"] = (
        drawn / points if points else 0.0, "proposals/point")
    metrics["sampler.acceptance"] = (points / consumed if consumed else 0.0, "ratio")
    metrics["sampler.chunk_use"] = (consumed / drawn if drawn else 0.0, "ratio")
    # best of two on each side, as contention only adds time
    metrics["trace.overhead_s"] = (min(traced1, traced2) - min(plain1, plain2), "s")

    OUT.mkdir(exist_ok=True)
    first.write(OUT / f"spans-{name}-seed{seed}.json.gz", origin)
    extra = {"trace.counts_repeat": (int(counts_repeat), "bool")}
    detail = {
        "pass_wall_s": {"untraced": [plain1, plain2], "traced": [traced1, traced2]},
        "counts": counts,
        "total_s": {k: (first.total_s[k] + second.total_s[k]) / 2.0 for k in sorted(first.total_s)},
        "self_s": {k: self_s(k) for k in sorted(first.self_s)},
    }
    return metrics, extra, attempted, failed, counts_repeat, detail


def run(args, bd, wl):
    """Measure one workload; returns the result line and the full record."""
    size = wl.SIZES[args.size]
    if args.trace:
        import spans

        measured = measure_layers(wl, spans, bd, args.workload, args.seed, size)
    else:
        measured = measure_end_to_end(wl, args, size)
    metrics, extra, attempted, failed, trace_ok, detail = measured
    result = {
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(
        run_record(args, size),
        result=result,
        extra={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        detail=detail,
    )
    return result, record


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # tiny sizes serve the benchmark's own smoke test
    p.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def report(result, record) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    for key, m in list(result["metrics"].items()) + list(record["extra"].items()):
        print(f"metric {key} {m['value']!r} {m['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    bd = load_package()
    import workloads as wl

    if args.setup_only:
        wl.build(args.workload, args.seed, wl.SIZES[args.size])
        print("ready", flush=True)
        return 0
    result, record = run(args, bd, wl)
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    report(result, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
