"""Command line interface.

Exit codes: 0 on success, 1 on validation errors and, silently, on a stdout
closed early (`| head -1`), 2 when a verification gate fails.  Reports are
JSON objects {version, config, results}; point and table output can also be
CSV with 17 significant digits.  `verify` writes the rows of
verify.verify_gates; this module imports no private name.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain

from . import __version__
from .bounds import build_bound_report
from .errors import BergmanDPPError, DomainError
from .regions import (
    FamilySpec,
    check_properties,
    construct_family,
    family_trace_closed_form,
    parse_region_literal,
    region_measure,
    region_trace,
)
from .sampler import PointConfiguration, SamplerConfig, sample, sample_moduli
from .spectral import BergmanSpectrum, GinibreSpectrum
from .streams import PHASE_MODULI, make_rng
from .verify import verify_gates

_DELTAS = (0.1, 0.01, 0.001)


def _g17(v: float) -> str:
    return f"{float(v):.17g}"


def _plain(obj):
    # a library object in a report converts only when the report is written
    return obj.to_dict() if hasattr(obj, "to_dict") else obj.tolist()


def _write(args, config: dict, results: list, lines=None) -> None:
    """The one writer: the CSV lines (a lazy iterator, run only here) under
    --format csv, else the JSON report {version, config, results}, then one
    newline, to --out (a file) or to stdout when --out is absent or -."""
    if lines is not None and args.format == "csv":
        text = "\n".join(lines)
    else:
        report = {"version": __version__, "config": config, "results": results}
        text = json.dumps(report, indent=2, default=_plain)
    if args.out in (None, "-"):
        print(text, flush=True)  # a closed pipe fails here, inside main, not at exit
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            print(text, file=fh)


def _bergman_spectrum(literal: str) -> BergmanSpectrum:
    parsed = parse_region_literal(literal)
    if isinstance(parsed, FamilySpec):
        parsed = construct_family(parsed).region
    return BergmanSpectrum(parsed)


def parse_sample_report(text: str) -> PointConfiguration:
    """Rebuild the PointConfiguration from a JSON sample report."""
    try:
        rows = [row["values"] for row in json.loads(text)["results"] if row["name"] == "sample"]
    except (ValueError, LookupError, TypeError) as exc:
        raise DomainError(f"not a sample report: {exc!r}") from None
    if not rows:
        raise DomainError("report contains no sample result")
    return PointConfiguration.from_dict(rows[0])


def _cmd_sample(args) -> int:
    if args.beta is None and args.n_eigen is None:
        args.beta = 5.0
    config = SamplerConfig(beta=args.beta, n_eigen=args.n_eigen, seed=args.seed)
    conf = sample(_bergman_spectrum(args.region), config, replica=args.replica)
    cfg = {
        "region": args.region,
        "beta": args.beta,
        "n_eigen": conf.meta.n_eigen,
        "seed": args.seed,
        "replica": args.replica,
        "sampler": conf.meta.sampler,
    }
    lines = chain(["re,im"], (f"{_g17(z.real)},{_g17(z.imag)}" for z in conf.points))
    _write(args, cfg, [{"name": "sample", "values": conf}], lines)
    return 0


def _cmd_spectrum(args) -> int:
    if args.region is not None:
        spec, label = _bergman_spectrum(args.region), args.region
    else:
        spec, label = GinibreSpectrum(args.ginibre), f"ginibre:{args.ginibre}"
    lam, trace = spec.eigenvalues(args.n_eigen), float(spec.trace())

    def lines():  # the trace line too is formatted only for a CSV run
        yield "n,eigenvalue"
        yield from (f"{n},{_g17(v)}" for n, v in enumerate(lam))
        yield f"# trace={_g17(trace)}"

    results = [{"name": "spectrum", "values": {"eigenvalues": lam, "trace": trace}}]
    _write(args, {"spectrum": label, "n_eigen": args.n_eigen}, results, lines())
    return 0


def _cmd_bounds(args) -> int:
    rep = build_bound_report(args.radius, beta=args.beta, n_eigen=args.n_eigen)
    cfg = {"radius": args.radius, "beta": args.beta, "n_eigen": rep.n_eigen}
    _write(args, cfg, [{"name": "bounds", "values": rep}])
    return 0


def _cmd_region(args) -> int:
    parsed = parse_region_literal(args.spec)
    deltas = args.delta or _DELTAS
    if isinstance(parsed, FamilySpec):
        target = construct_family(parsed)
        region, total = target.region, family_trace_closed_form(parsed)
        name, values = "family", {
            "materialized_trace": target.materialized_trace,
            "residual_weight": target.residual_weight,
            "closed_form_trace": total,
            "max_logit_defect": max(target.logit_defects, default=0.0),
            "dropped_intervals": target.dropped_intervals,
            "dropped_trace": target.dropped_trace,
        }
        diagnostic = (
            "summable annulus weights: full-family trace "
            f"{total!r} = seed term + total weight {parsed.weights.total()!r}"
        )
    else:
        target = region = parsed
        total = region_trace(parsed)
        name, values = "region", {"trace": total}
        diagnostic = "empty region: no intervals, trace 0.0"
        if parsed.intervals:
            diagnostic = (
                f"finitely many intervals with outer radius {parsed.intervals[-1][1]} < 1; "
                f"closed-form trace {total!r}"
            )
    # one row for the region or family, one per delta, one for the trace
    values = {"intervals": region.intervals, **values, "measure": region_measure(region)}
    results = [{"name": name, "values": values}]
    for d in deltas:
        results.append({"name": f"properties:delta={d}", "values": check_properties(target, d)})
    finite = {"finite": True, "trace": total, "diagnostic": diagnostic}
    results.append({"name": "finite-trace", "values": finite})
    _write(args, {"spec": args.spec, "deltas": deltas}, results)
    return 0


def _cmd_moduli(args) -> int:
    values = sample_moduli(args.count, make_rng(args.seed, 0, PHASE_MODULI))
    lines = chain(["k,modulus"], (f"{k},{_g17(v)}" for k, v in enumerate(values, 1)))
    results = [{"name": "moduli", "values": {"moduli": values}}]
    _write(args, {"count": args.count, "seed": args.seed}, results, lines)
    return 0


def _cmd_verify(args) -> int:
    results = verify_gates(args.seed, args.reps)
    _write(args, {"reps": args.reps, "seed": args.seed}, list(results))
    return 0 if all(r["verdict"] == "pass" for r in results) else 2


@cache  # one parser per process, built at the first main() call, not at import
def _build_parser() -> argparse.ArgumentParser:
    # the flags several commands share, each declared once
    out, seed, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    out.add_argument("--out", default=None, help="output file (default: stdout, also for -)")
    seed.add_argument("--seed", type=int, default=0)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")

    p = argparse.ArgumentParser(prog="bergman-dpp", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="draw one configuration", parents=[seed, fmt, out])
    sp.add_argument("--region", required=True, help="disc:R | annulus:r:R | intervals:a-b,... | family:...")
    sp.add_argument("--beta", type=float, default=None, help="truncation multiplier (default 5 if no --n-eigen)")
    sp.add_argument("--n-eigen", type=int, default=None, help="explicit truncation order")
    sp.add_argument("--replica", type=int, default=0)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("spectrum", help="eigenvalue table and trace", parents=[fmt, out])
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--region", default=None)
    source.add_argument("--ginibre", type=float, default=None, help="Ginibre disc radius")
    sp.add_argument("--n-eigen", type=int, required=True)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("bounds", help="truncation bound report", parents=[out])
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--n-eigen", type=int, default=None)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("region", help="region diagnostics", parents=[out])
    sp.add_argument("--spec", required=True)
    sp.add_argument("--delta", type=float, action="append", default=None)
    sp.set_defaults(func=_cmd_region)

    sp = sub.add_parser("moduli", help="one powered-uniform moduli draw", parents=[seed, fmt, out])
    sp.add_argument("--count", type=int, required=True)
    sp.set_defaults(func=_cmd_moduli)

    sp = sub.add_parser("verify", help="run the verification gates", parents=[seed, out])
    sp.add_argument("--reps", type=int, default=20_000)
    sp.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits with 0 (--help, --version) or, after printing the
        # usage and the error, with 2; a usage error is the validation code 1
        return 1 if exc.code else 0
    except BrokenPipeError:  # stdout to devnull, so the flush at exit has nothing to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (BergmanDPPError, OSError) as exc:  # OSError: an --out file that cannot be written
        print(f"bergman-dpp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
