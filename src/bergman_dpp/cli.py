"""Command line interface.

Exit codes: 0 on success, 1 on validation errors, 2 when a verification
gate fails.  Reports are JSON objects {version, config, results}; point
and table output can also be CSV with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import BergmanDPPError, DomainError
from .regions import (
    FamilySpec,
    check_properties,
    construct_family,
    family_trace_closed_form,
    finite_trace_check,
    parse_region_literal,
    region_measure,
    region_trace,
)
from .sampler import (
    ActiveIndexSet,
    PointConfiguration,
    SamplerConfig,
    min_radius_cdf,
    sample,
    sample_moduli,
    sample_positions,
)
from .spectral import BergmanSpectrum, GinibreSpectrum
from .streams import PHASE_MODULI, PHASE_SAMPLE, make_rng
from .verify import (
    GofReport,
    bound_audit,
    count_gof,
    count_pmf,
    ks_critical_value,
    ks_statistic,
    mc_count_stats,
)

_DELTAS = (0.1, 0.01, 0.001)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; map that to the validation code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _g17(v: float) -> str:
    return f"{float(v):.17g}"


def _emit(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _report(config: dict, results: list[dict]) -> str:
    return json.dumps(
        {"version": __version__, "config": config, "results": results}, indent=2
    )


def _bergman_spectrum(literal: str) -> BergmanSpectrum:
    parsed = parse_region_literal(literal)
    if isinstance(parsed, FamilySpec):
        parsed = construct_family(parsed).region
    return BergmanSpectrum(parsed)


def parse_sample_report(text: str) -> PointConfiguration:
    """Rebuild the PointConfiguration from a JSON sample report."""
    data = json.loads(text)
    for row in data["results"]:
        if row["name"] == "sample":
            return PointConfiguration.from_dict(row["values"])
    raise DomainError("report contains no sample result")


def _cmd_sample(args) -> int:
    config = SamplerConfig(beta=args.beta, n_eigen=args.n_eigen, seed=args.seed)
    spectrum = _bergman_spectrum(args.region)
    conf = sample(spectrum, config, replica=args.replica)
    if args.format == "csv":
        lines = ["re,im"]
        lines += [f"{_g17(z.real)},{_g17(z.imag)}" for z in conf.points]
        _emit("\n".join(lines), args.out)
    else:
        cfg = {
            "region": args.region,
            "beta": args.beta,
            "n_eigen": conf.meta.n_eigen,
            "seed": args.seed,
            "replica": args.replica,
            "sampler": conf.meta.sampler,
        }
        _emit(_report(cfg, [{"name": "sample", "values": conf.to_dict()}]), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    if (args.region is None) == (args.ginibre is None):
        raise DomainError("provide exactly one of --region or --ginibre")
    if args.region is not None:
        spec = _bergman_spectrum(args.region)
        label = args.region
    else:
        spec = GinibreSpectrum(args.ginibre)
        label = f"ginibre:{args.ginibre}"
    lam = spec.eigenvalues(args.n_eigen)
    trace = spec.trace()
    if args.format == "csv":
        lines = ["n,eigenvalue"]
        lines += [f"{n},{_g17(v)}" for n, v in enumerate(lam)]
        lines.append(f"# trace={_g17(trace)}")
        _emit("\n".join(lines), args.out)
    else:
        cfg = {"spectrum": label, "n_eigen": args.n_eigen}
        values = {"eigenvalues": [float(v) for v in lam], "trace": float(trace)}
        _emit(_report(cfg, [{"name": "spectrum", "values": values}]), args.out)
    return 0


def _cmd_bounds(args) -> int:
    from .bounds import build_bound_report

    rep = build_bound_report(args.radius, beta=args.beta, n_eigen=args.n_eigen)
    cfg = {"radius": args.radius, "beta": args.beta, "n_eigen": rep.n_eigen}
    _emit(_report(cfg, [{"name": "bounds", "values": rep.to_dict()}]), args.out)
    return 0


def _cmd_region(args) -> int:
    parsed = parse_region_literal(args.spec)
    deltas = args.delta if args.delta else list(_DELTAS)
    results = []
    if isinstance(parsed, FamilySpec):
        build = construct_family(parsed)
        values = {
            "intervals": [[a, b] for a, b in build.region.intervals],
            "materialized_trace": build.materialized_trace,
            "residual_weight": build.residual_weight,
            "closed_form_trace": family_trace_closed_form(parsed),
            "max_logit_defect": max(build.logit_defects, default=0.0),
            "dropped_intervals": build.dropped_intervals,
            "dropped_trace": build.dropped_trace,
            "measure": region_measure(build.region),
        }
        results.append({"name": "family", "values": values})
        target = build
    else:
        values = {
            "intervals": [[a, b] for a, b in parsed.intervals],
            "trace": region_trace(parsed),
            "measure": region_measure(parsed),
        }
        results.append({"name": "region", "values": values})
        target = parsed
    for d in deltas:
        results.append(
            {"name": f"properties:delta={d}", "values": check_properties(target, d).to_dict()}
        )
    results.append({"name": "finite-trace", "values": finite_trace_check(parsed).to_dict()})
    _emit(_report({"spec": args.spec, "deltas": deltas}, results), args.out)
    return 0


def _cmd_moduli(args) -> int:
    rng = make_rng(args.seed, 0, PHASE_MODULI)
    values = sample_moduli(args.count, rng)
    if args.format == "csv":
        lines = ["k,modulus"]
        lines += [f"{k + 1},{_g17(v)}" for k, v in enumerate(values)]
        _emit("\n".join(lines), args.out)
    else:
        cfg = {"count": args.count, "seed": args.seed}
        _emit(
            _report(cfg, [{"name": "moduli", "values": {"moduli": [float(v) for v in values]}}]),
            args.out,
        )
    return 0


def _cmd_verify(args) -> int:
    results = list(bound_audit())

    spectrum = BergmanSpectrum.disc(0.9)
    config = SamplerConfig(n_eigen=22, seed=args.seed)
    stats = mc_count_stats(spectrum, config, args.reps)
    dist = count_pmf(spectrum.eigenvalues(22))
    gof = count_gof(stats.histogram, dist, name="count-law:disc:0.9:N=22")
    results.append(gof.to_dict())

    ks_reps = max(200, args.reps // 4)
    spec08 = BergmanSpectrum.disc(0.8)
    active = ActiveIndexSet(indices=(0,), n_eigen=1)
    radii = []
    for r in range(ks_reps):
        rng = make_rng(args.seed, r, PHASE_SAMPLE)
        conf = sample_positions(spec08, active, rng)
        radii.append(abs(conf.points[0]))
    stat = ks_statistic(radii, lambda x: (x / 0.8) ** 2)
    thr = ks_critical_value(ks_reps)
    results.append(
        GofReport("positional-law:disc:0.8:index=0", stat, thr, ks_reps, stat <= thr).to_dict()
    )

    rng = make_rng(args.seed, 0, PHASE_MODULI)
    minima = [sample_moduli(20, rng).min() for _ in range(args.reps)]
    stat = ks_statistic(minima, lambda x: min_radius_cdf(20, x))
    thr = ks_critical_value(args.reps)
    results.append(GofReport("min-radius-law:n=20", stat, thr, args.reps, stat <= thr).to_dict())

    ok = all(r.get("verdict", "pass") == "pass" for r in results)
    _emit(_report({"reps": args.reps, "seed": args.seed}, results), args.out)
    return 0 if ok else 2


def _build_parser() -> _Parser:
    p = _Parser(prog="bergman-dpp", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="draw one configuration", parents=[], add_help=True)
    sp.add_argument("--region", required=True, help="disc:R | annulus:r:R | intervals:a-b,... | family:...")
    sp.add_argument("--beta", type=float, default=None, help="truncation multiplier (default 5 if no --n-eigen)")
    sp.add_argument("--n-eigen", type=int, default=None, help="explicit truncation order")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--replica", type=int, default=0)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("spectrum", help="eigenvalue table and trace")
    sp.add_argument("--region", default=None)
    sp.add_argument("--ginibre", type=float, default=None, help="Ginibre disc radius")
    sp.add_argument("--n-eigen", type=int, required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("bounds", help="truncation bound report")
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--n-eigen", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("region", help="region diagnostics")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--delta", type=float, action="append", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_region)

    sp = sub.add_parser("moduli", help="one powered-uniform moduli draw")
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_moduli)

    sp = sub.add_parser("verify", help="run the verification gates")
    sp.add_argument("--reps", type=int, default=20_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_verify)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sample" and args.beta is None and args.n_eigen is None:
            args.beta = 5.0
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return int(code) if isinstance(code, int) else 1
    except BergmanDPPError as exc:
        print(f"bergman-dpp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
