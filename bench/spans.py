"""Span recorder that wraps bergman_dpp's public functions from outside.

Nothing in the package is edited.  Each public function of the traced
modules is replaced by a wrapper that records one span (name, start, end,
parent) per call and accumulates per-name calls, inclusive time and self
time (inclusive time minus the time of wrapped children).  The package
imports functions by name (``from .sampler import sample_positions``), so a
wrapper is rebound in every ``bergman_dpp`` namespace that holds the
original.  ``BergmanSpectrum.eigenvalues`` and ``feature_matrix`` are
wrapped on the class.

A few wrappers also read counts off their arguments or results, so that
ratios are measured where the work happens:

- ``spectral.feature_matrix``: rows (points evaluated) and entries
  (rows x (max index + 1), the monomial table it computes);
- ``sampler.sample_positions``: points returned, proposals consumed
  (``sum(meta.rejections)`` plus one accepted proposal per point) and
  proposals drawn (``meta.proposals``, whole chunks);
- ``verify.count_pmf``: terms (eigenvalues convolved).

``marking`` uses the same rebinding for untraced runs: a counter on a few
named functions that calls back at every n-th call, so that a workload can
time one long call as short segments.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

TRACED_MODULES = ("streams", "spectral", "regions", "sampler", "verify")


def _feature_matrix_counts(args, kwargs, out, counts):
    rows, cols = out.shape
    if cols:
        indices = args[1] if len(args) > 1 else kwargs["indices"]
        counts["spectral.feature_matrix.rows"] += rows
        counts["spectral.feature_matrix.entries"] += rows * (int(np.max(indices)) + 1)


def _sample_positions_counts(args, kwargs, out, counts):
    points = len(out.points)
    counts["sampler.sample_positions.points"] += points
    counts["sampler.sample_positions.consumed"] += sum(out.meta.rejections) + points
    counts["sampler.sample_positions.drawn"] += out.meta.proposals


def _count_pmf_counts(args, kwargs, out, counts):
    counts["verify.count_pmf.terms"] += len(out) - 1


_OBSERVERS = {
    "spectral.feature_matrix": _feature_matrix_counts,
    "sampler.sample_positions": _sample_positions_counts,
    "verify.count_pmf": _count_pmf_counts,
}


class Recorder:
    """In-memory spans and per-name aggregates of one traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                self.calls[name] += 1
                self.total_s[name] += d
                self.self_s[name] += d - frame[1]
                if parent is not None:
                    parent[1] += d
                self.spans.append((frame[0], parent[0] if parent else -1, name, t0, t1))
            if observe is not None:
                observe(args, kwargs, out, self.counts)
            return out

        return wrapper

    def count_values(self) -> dict:
        """Every count the pass produced; these must repeat exactly."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def write(self, path, origin: float) -> None:
        """Write the spans (times relative to origin) as gzipped JSON."""
        rows = [[i, p, n, t0 - origin, t1 - origin] for i, p, n, t0, t1 in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"], "spans": rows}, fh)


def _targets(pkg):
    """(qualified name, owner, attribute, original) for every traced callable."""
    out = []
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"{pkg.__name__}.{short}")
        for attr, fn in list(vars(mod).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
            ):
                out.append((f"{short}.{attr}", mod, attr, fn))
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    out.append(("cli.main", cli, "main", cli.main))
    cls = pkg.BergmanSpectrum
    for attr in ("eigenvalues", "feature_matrix"):
        out.append((f"spectral.{attr}", cls, attr, cls.__dict__[attr]))
    return out


@contextmanager
def _rebound(pkg, wrap, names=None):
    """Replace every traced callable (or only those in names) by wrap(name, fn)
    for the duration of the block."""
    targets = [t for t in _targets(pkg) if names is None or t[0] in names]
    namespaces = [
        m for n, m in list(sys.modules.items())
        if n == pkg.__name__ or n.startswith(pkg.__name__ + ".")
    ]
    undo = []
    try:
        for name, owner, attr, fn in targets:
            wrapper = wrap(name, fn)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, fn))
                continue
            for ns in namespaces:
                if ns.__dict__.get(attr) is fn:
                    setattr(ns, attr, wrapper)
                    undo.append((ns, attr, fn))
        yield
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)


@contextmanager
def traced(pkg, recorder: Recorder):
    """Install the recorder's wrappers for the duration of the block."""
    with _rebound(pkg, recorder.wrap):
        yield recorder


@contextmanager
def marking(pkg, names, every: int, on_mark):
    """Call on_mark() before every `every`-th call, counted per name, of the
    named callables (names as in the spans, e.g. "streams.make_rng"); a name
    the package no longer has is skipped.

    This is not a trace: one wrapper level with a counter, no spans.  It
    lets a workload cut one long call into short segments whose times the
    harness can compare pass by pass.
    """
    def wrap(name, fn):
        count = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[0] += 1
            if count[0] == every:
                count[0] = 0
                on_mark()
            return fn(*args, **kwargs)

        return wrapper

    with _rebound(pkg, wrap, frozenset(names)):
        yield
