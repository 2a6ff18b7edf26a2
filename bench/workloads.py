"""The benchmark's workloads: inputs built from a seed, one timed pass over
them, and the checks on a pass's outputs.

A pass repeats identical work every time it runs: the replica set of the
sample workloads and the argument list of the verify workload are fixed by
the seed, and the package's streams are counter-keyed, so the same pass
gives byte-identical outputs.  The harness uses that to check later passes
against the first one.

Workloads and why they were chosen:

- ``sample-small``: ``sample`` at beta 5 round-robin over a disc, an
  annulus, three intervals and a boundary-touching family.  Each
  configuration has 0 to 10 points, so time goes to per-call overhead:
  ``make_rng``, repeated ``eigenvalues`` calls, the Bernoulli phase and
  chunked proposals.  It is the only workload whose set-up runs the
  multi-precision family construction.
- ``sample-large``: ``sample`` on ``disc:0.98`` at beta 5 (N=122, about 24
  points per configuration).  Time goes to the positional phase: feature
  matrices, projections and the Gram-Schmidt loop.
- ``verify``: the ``verify`` command in-process, then the exact count law of
  ``disc:0.9995`` at the truncation acceptance test 09 certifies.  Time goes
  to many Bernoulli replicas, many one-point ``sample_positions`` calls,
  moduli draws and the count-law convolution.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import bergman_dpp as bd
import bergman_dpp.cli as bd_cli
import spans

BETA = 5.0
SMALL_REGIONS = (
    "disc:0.9",
    "annulus:0.5:0.9",
    "intervals:0.1-0.3,0.5-0.7,0.85-0.95",
    "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50,rule=midpoint",
)
LARGE_REGIONS = ("disc:0.98",)
# regions whose configurations also pass through the intensity-profile gate
INTENSITY_REGIONS = ("disc:0.9", "disc:0.98")
INTENSITY_BINS = 6
ALPHA = 1e-3
# every tenth configuration of a pass is replayed alone from (seed, replica)
REPLAY_EVERY = 10

VERIFY_RADIUS = 0.9995
VERIFY_TAIL = 1e-9
# exact count law of disc:0.9995, frozen in acceptance test 09
COUNT_MEAN, COUNT_MEAN_TOL = 999.2500625147427, 1e-6
COUNT_SD, COUNT_SD_TOL = 22.3578824181903, 1e-4
# a timing mark at every MARK_EVERY-th call of these, so that the verify
# command's one long call is timed as short segments (see VerifyWorkload)
MARKED = ("streams.make_rng", "sampler.sample_moduli")
MARK_EVERY = 32


@dataclass(frozen=True)
class Size:
    """How much work one pass does, and how many set-up probes a run makes."""

    small_configs: int
    large_configs: int
    verify_reps: int
    setup_probes: int


# large_configs keeps at least ten distinct configurations beyond the p90
FULL = Size(small_configs=400, large_configs=100, verify_reps=5_000, setup_probes=7)
TINY = Size(small_configs=40, large_configs=4, verify_reps=200, setup_probes=1)
SIZES = {"full": FULL, "tiny": TINY}


@dataclass
class Pass:
    """One timed pass: its wall time, the time of each call (each segment on
    verify), and the outputs."""

    wall_s: float
    call_s: list
    outputs: list


def spectrum_for(literal: str):
    parsed = bd.parse_region_literal(literal)
    if isinstance(parsed, bd.FamilySpec):
        parsed = bd.construct_family(parsed).region
    return bd.BergmanSpectrum(parsed)


class SampleWorkload:
    """``sample(spectrum, SamplerConfig(beta=5, seed), replica)`` for replicas
    0 .. n_configs-1, taken round-robin over the given regions."""

    def __init__(self, literals, seed: int, n_configs: int):
        spectra = [spectrum_for(lit) for lit in literals]
        self.config = bd.SamplerConfig(beta=BETA, seed=seed)
        self.jobs = [
            (literals[r % len(literals)], spectra[r % len(literals)], r) for r in range(n_configs)
        ]

    def run_pass(self) -> Pass:
        sample = bd.sample
        config = self.config
        outputs, call_s = [], []
        start = perf_counter()
        for _, spectrum, replica in self.jobs:
            t0 = perf_counter()
            try:
                out = sample(spectrum, config, replica)
            except bd.BergmanDPPError as exc:
                out = exc
            call_s.append(perf_counter() - t0)
            outputs.append(out)
        return Pass(perf_counter() - start, call_s, outputs)

    @staticmethod
    def points(out) -> int:
        return len(out.points) if isinstance(out, bd.PointConfiguration) else 0

    def check(self, outputs) -> set:
        """Indices of the jobs whose output fails a check."""
        bad = set()
        by_region = defaultdict(list)
        for i, ((literal, spectrum, _), out) in enumerate(zip(self.jobs, outputs)):
            by_region[literal].append(i)
            if not isinstance(out, bd.PointConfiguration):
                bad.add(i)
            elif len(out.points) != len(out.meta.active_indices) or not all(
                spectrum.region.contains_point(z) for z in out.points
            ):
                bad.add(i)
            elif i % REPLAY_EVERY == 0:
                config = bd.SamplerConfig(beta=BETA, seed=out.meta.seed)
                if bd.sample(spectrum, config, out.meta.replica).to_dict() != out.to_dict():
                    bad.add(i)
        for literal in INTENSITY_REGIONS:
            members = by_region.get(literal, [])
            good = [i for i in members if i not in bad]
            if not good:
                continue
            spectrum = self.jobs[good[0]][1]
            edges = spectrum.region.outer_radius * np.sqrt(
                np.arange(INTENSITY_BINS + 1) / INTENSITY_BINS
            )
            report = bd.intensity_profile_test(
                [outputs[i] for i in good], spectrum, list(zip(edges[:-1], edges[1:])), ALPHA
            )
            if not report.passed:
                bad.update(members)
        return bad


@dataclass(frozen=True)
class VerifyOutcome:
    exit_code: int
    report: str
    count_mean: float
    count_sd: float


def certified_truncation(radius: float, tail: float) -> int:
    """Smallest N whose neglected eigenvalue mass is below tail, found by the
    same search as acceptance test 09."""
    n = int(math.ceil((math.log(tail * (1.0 - radius * radius)) / math.log(radius) - 2.0) / 2.0))
    while bd.coupling_tail(radius, n - 2) < tail:
        n -= 1
    while bd.coupling_tail(radius, n - 1) >= tail:
        n += 1
    return n


class VerifyWorkload:
    """``verify --reps R --seed S`` in-process, then the exact count law of
    disc:0.9995 at its certified truncation: one checked output per pass.

    With ``marks`` the pass is timed as segments rather than as two calls:
    a segment ends at every MARK_EVERY-th call of the MARKED functions
    (a few milliseconds of work), at the end of the command and at the end
    of the count law.  The command is deterministic, so segment i is the
    same work in every pass, and the harness takes each segment's best time
    over the passes, as it does for each call of the sample workloads.
    """

    def __init__(self, seed: int, reps: int, marks: bool):
        self.argv = ["verify", "--reps", str(reps), "--seed", str(seed)]
        self.spectrum = bd.BergmanSpectrum.disc(VERIFY_RADIUS)
        self.n_eigen = certified_truncation(VERIFY_RADIUS, VERIFY_TAIL)
        self.marks = marks

    def run_pass(self) -> Pass:
        main = bd_cli.main
        count_pmf = bd.count_pmf
        buf = io.StringIO()
        marks = []
        if self.marks:
            marked = spans.marking(bd, MARKED, MARK_EVERY, lambda: marks.append(perf_counter()))
        else:
            marked = contextlib.nullcontext()
        start = perf_counter()
        try:
            with marked, contextlib.redirect_stdout(buf):
                code = main(self.argv)
            marks.append(perf_counter())
            dist = count_pmf(self.spectrum.eigenvalues(self.n_eigen))
            mean, sd = dist.mean(), math.sqrt(dist.variance())
        except bd.BergmanDPPError as exc:
            end = perf_counter()
            return Pass(end - start, [end - start], [exc])
        end = perf_counter()
        out = VerifyOutcome(code, buf.getvalue(), mean, sd)
        return Pass(end - start, np.diff([start, *marks, end]).tolist(), [out])

    @staticmethod
    def points(out) -> int:
        """Points placed by the one-point positional draws of the verify run."""
        if not isinstance(out, VerifyOutcome) or out.exit_code != 0:
            return 0
        results = json.loads(out.report)["results"]
        return sum(
            r["values"]["sample_size"] for r in results if r["name"].startswith("positional-law:")
        )

    def check(self, outputs) -> set:
        bad = set()
        for i, out in enumerate(outputs):
            if not isinstance(out, VerifyOutcome) or out.exit_code != 0:
                bad.add(i)
                continue
            results = json.loads(out.report)["results"]
            if not results or any(r.get("verdict") != "pass" for r in results):
                bad.add(i)
            elif abs(out.count_mean - COUNT_MEAN) > COUNT_MEAN_TOL:
                bad.add(i)
            elif abs(out.count_sd - COUNT_SD) > COUNT_SD_TOL:
                bad.add(i)
        return bad


def build(name: str, seed: int, size: Size, marks: bool = True):
    """Build one workload's inputs; this is the set-up that setup_s times.
    marks=False leaves the verify command unwrapped, for traced runs."""
    if name == "sample-small":
        return SampleWorkload(SMALL_REGIONS, seed, size.small_configs)
    if name == "sample-large":
        return SampleWorkload(LARGE_REGIONS, seed, size.large_configs)
    if name == "verify":
        return VerifyWorkload(seed, size.verify_reps, marks)
    raise ValueError(f"unknown workload {name!r}")
