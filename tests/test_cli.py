import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bergman_dpp import PHASE_MODULI, DomainError, GinibreSpectrum, SamplerConfig, cli, make_rng, regions
from bergman_dpp import sample, sample_moduli
from bergman_dpp.cli import main, parse_sample_report
from bergman_dpp.spectral import BergmanSpectrum


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# -----------------------------------------------------------------------------
# global behaviour
# -----------------------------------------------------------------------------
def test_version_exits_zero(capsys):
    rc, out, _ = run(capsys, "--version")
    assert rc == 0
    assert out.strip() == "0.1.0"


def test_unknown_flag_is_validation_error(capsys):
    rc, _, err = run(capsys, "sample", "--region", "disc:0.8", "--nope")
    assert rc == 1
    assert "error" in err


def test_missing_subcommand(capsys):
    rc, _, err = run(capsys)
    assert rc == 1


def test_parser_is_built_once_and_kept(capsys):
    # main() builds the parser at its first call and keeps it: a second run
    # writes the same bytes, and --help, --version and a bad flag still exit
    # as they do on a fresh parser
    first = run(capsys, "verify", "--reps", "13", "--seed", "2")
    again = run(capsys, "verify", "--reps", "13", "--seed", "2")
    assert first == again and first[0] in (0, 2)
    rc, out, _ = run(capsys, "--help")
    assert rc == 0 and "verify" in out
    assert run(capsys, "--version")[:2] == (0, "0.1.0\n")
    rc, _, err = run(capsys, "verify", "--nope")
    assert rc == 1 and "unrecognized arguments: --nope" in err
    assert cli._build_parser.cache_info().misses == 1


_TOP_USAGE = (
    "usage: bergman-dpp [-h] [--version]\n"
    "                   {sample,spectrum,bounds,region,moduli,verify} ...\n"
)
# argparse's usage line and error line on stderr, nothing on stdout, exit 1;
# the usage wraps at COLUMNS - 2, so the test fixes COLUMNS at 80
USAGE_ERRORS = [
    (
        ["sample", "--region", "disc:0.5", "--nope"],
        _TOP_USAGE + "bergman-dpp: error: unrecognized arguments: --nope\n",
    ),
    (
        ["sample"],
        "usage: bergman-dpp sample [-h] [--seed SEED] [--format {csv,json}] [--out OUT]\n"
        "                          --region REGION [--beta BETA] [--n-eigen N_EIGEN]\n"
        "                          [--replica REPLICA]\n"
        "bergman-dpp sample: error: the following arguments are required: --region\n",
    ),
    (
        ["bogus"],
        _TOP_USAGE + "bergman-dpp: error: argument command: invalid choice: 'bogus' "
        "(choose from 'sample', 'spectrum', 'bounds', 'region', 'moduli', 'verify')\n",
    ),
    (
        ["spectrum", "--region", "disc:0.5", "--ginibre", "1.0", "--n-eigen", "3"],
        "usage: bergman-dpp spectrum [-h] [--format {csv,json}] [--out OUT]\n"
        "                            (--region REGION | --ginibre GINIBRE) --n-eigen\n"
        "                            N_EIGEN\n"
        "bergman-dpp spectrum: error: argument --ginibre: not allowed with argument --region\n",
    ),
    (
        ["verify", "--reps", "x"],
        "usage: bergman-dpp verify [-h] [--seed SEED] [--out OUT] [--reps REPS]\n"
        "bergman-dpp verify: error: argument --reps: invalid int value: 'x'\n",
    ),
]


@pytest.mark.parametrize("argv, err", USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_errors_exact(argv, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (1, "", err)


# -----------------------------------------------------------------------------
# sample
# -----------------------------------------------------------------------------
def test_sample_csv(capsys):
    rc, out, _ = run(
        capsys, "sample", "--region", "disc:0.8", "--n-eigen", "4", "--seed", "3"
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im"
    for line in lines[1:]:
        re_s, im_s = line.split(",")
        assert abs(complex(float(re_s), float(im_s))) <= 0.8


def test_sample_json_roundtrip(capsys):
    rc, out, _ = run(
        capsys,
        "sample", "--region", "disc:0.9", "--n-eigen", "9",
        "--seed", "21", "--replica", "2", "--format", "json",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["version"] == "0.1.0"
    assert data["config"]["n_eigen"] == 9
    conf = parse_sample_report(out)
    direct = sample(
        BergmanSpectrum.disc(0.9), SamplerConfig(n_eigen=9, seed=21), replica=2
    )
    assert conf.points == direct.points
    assert conf.meta == direct.meta


def test_sample_default_beta(capsys):
    rc, out, _ = run(
        capsys, "sample", "--region", "disc:0.5", "--seed", "1", "--format", "json"
    )
    assert rc == 0
    data = json.loads(out)
    assert data["config"]["beta"] == 5.0


def test_sample_invalid_region(capsys):
    rc, _, err = run(capsys, "sample", "--region", "disc:1.5", "--n-eigen", "3")
    assert rc == 1
    assert "radius" in err


def test_sample_conflicting_truncation(capsys):
    rc, _, err = run(
        capsys, "sample", "--region", "disc:0.5", "--beta", "2", "--n-eigen", "3"
    )
    assert rc == 1


def test_sample_has_no_rejection_budget_flag(capsys):
    # the budget is a fixed safety net inside the sampler, not a setting
    rc, _, err = run(capsys, "sample", "--region", "disc:0.8", "--max-rejections", "5")
    assert rc == 1
    assert "unrecognized arguments: --max-rejections" in err


def test_sample_to_file(tmp_path, capsys):
    target = tmp_path / "points.csv"
    rc, out, _ = run(
        capsys,
        "sample", "--region", "annulus:0.5:0.9", "--n-eigen", "6",
        "--seed", "2", "--out", str(target),
    )
    assert rc == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("re,im\n")


@pytest.mark.parametrize(
    "argv", [("sample", "--region", "disc:0.5", "--n-eigen", "3"), ("verify", "--reps", "300")]
)
def test_unwritable_out_is_a_validation_error(argv, tmp_path, capsys):
    # a directory that does not exist: exit 1 with one error line, no traceback
    target = tmp_path / "missing" / "x.json"
    rc, out, err = run(capsys, *argv, "--out", str(target))
    assert rc == 1 and out == ""
    assert err.startswith("bergman-dpp: error:") and str(target) in err
    assert not target.parent.exists()


def test_sample_report_names_stream_version(capsys):
    rc, out, _ = run(
        capsys, "sample", "--region", "disc:0.9", "--n-eigen", "9", "--format", "json"
    )
    assert rc == 0
    data = json.loads(out)
    assert data["config"]["sampler"] == "mixture-1"
    assert data["results"][0]["values"]["meta"]["sampler"] == "mixture-1"
    # a report written before the field existed still parses
    del data["results"][0]["values"]["meta"]["sampler"]
    assert parse_sample_report(json.dumps(data)).meta.sampler is None


def test_parse_sample_report_rejects_other_reports():
    with pytest.raises(Exception):
        parse_sample_report(json.dumps({"version": "0.1.0", "config": {}, "results": []}))


@pytest.mark.parametrize("text", ["x", "{}", "[]", '{"results": 5}', '{"results": [5]}', None])
def test_parse_sample_report_rejects_non_reports(text):
    with pytest.raises(DomainError):
        parse_sample_report(text)


# -----------------------------------------------------------------------------
# spectrum
# -----------------------------------------------------------------------------
def test_spectrum_csv(capsys):
    rc, out, _ = run(capsys, "spectrum", "--region", "disc:0.5", "--n-eigen", "4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,eigenvalue"
    assert lines[1] == "0,0.25"
    assert lines[-1].startswith("# trace=")
    trace = float(lines[-1].split("=")[1])
    assert trace == pytest.approx(0.25 / 0.75, abs=1e-12)


def test_spectrum_ginibre(capsys):
    rc, out, _ = run(
        capsys, "spectrum", "--ginibre", "1.0", "--n-eigen", "3", "--format", "json"
    )
    assert rc == 0
    data = json.loads(out)
    values = data["results"][0]["values"]
    assert values["trace"] == 1.0
    assert values["eigenvalues"][0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)


def test_spectrum_needs_one_source(capsys):
    rc, _, err = run(capsys, "spectrum", "--n-eigen", "3")
    assert rc == 1
    rc, _, err = run(
        capsys, "spectrum", "--region", "disc:0.5", "--ginibre", "1.0", "--n-eigen", "3"
    )
    assert rc == 1


def test_spectrum_family_literal(capsys):
    rc, out, _ = run(
        capsys,
        "spectrum", "--region", "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=5",
        "--n-eigen", "3", "--format", "json",
    )
    assert rc == 0
    values = json.loads(out)["results"][0]["values"]
    assert len(values["eigenvalues"]) == 3


# -----------------------------------------------------------------------------
# bounds
# -----------------------------------------------------------------------------
def test_bounds_report(capsys):
    rc, out, _ = run(capsys, "bounds", "--radius", "0.9", "--beta", "2")
    assert rc == 0
    values = json.loads(out)["results"][0]["values"]
    assert values["n_eigen"] == 9
    assert values["coupling_tail"] == pytest.approx(0.5183004748, abs=1e-9)
    assert values["wasserstein_bound"] == pytest.approx(0.7747204825, abs=1e-9)
    assert values["coincidence_probability"] <= values["coupling_tail"]


def test_bounds_validation(capsys):
    rc, _, err = run(capsys, "bounds", "--radius", "1.2", "--beta", "2")
    assert rc == 1


def test_bounds_too_near_one_is_validation_error(capsys):
    # the coincidence product would need about 2.3e10 factors
    rc, out, err = run(capsys, "bounds", "--radius", "0.999999999", "--beta", "1")
    assert rc == 1 and out == ""
    assert "radius 0.999999999" in err


def test_bounds_truncation_beyond_int64_is_validation_error(capsys):
    # an index beyond float range raised a bare OverflowError with a traceback
    rc, out, err = run(capsys, "bounds", "--radius", "0.9", "--n-eigen", str(10**400))
    assert rc == 1 and out == ""
    assert "n_eigen must be a positive integer below" in err and "Traceback" not in err


# -----------------------------------------------------------------------------
# region
# -----------------------------------------------------------------------------
def test_region_plain(capsys):
    rc, out, _ = run(capsys, "region", "--spec", "annulus:0.5:0.9")
    assert rc == 0
    data = json.loads(out)
    names = [r["name"] for r in data["results"]]
    assert names[0] == "region"
    assert "finite-trace" in names
    assert "properties:delta=0.1" in names
    region_values = data["results"][0]["values"]
    assert region_values["trace"] == pytest.approx(
        0.81 / 0.19 - 0.25 / 0.75, abs=1e-12
    )


def test_region_family(capsys):
    rc, out, _ = run(
        capsys,
        "region", "--spec", "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50",
        "--delta", "0.01",
    )
    assert rc == 0
    data = json.loads(out)
    fam = data["results"][0]
    assert fam["name"] == "family"
    v = fam["values"]
    assert v["materialized_trace"] + v["residual_weight"] == pytest.approx(
        v["closed_form_trace"], abs=1e-8
    )
    assert v["max_logit_defect"] < 1e-12
    assert v["dropped_intervals"] > 0
    props = next(r for r in data["results"] if r["name"] == "properties:delta=0.01")
    assert props["values"]["witness_found"] is True
    ft = next(r for r in data["results"] if r["name"] == "finite-trace")
    assert ft["values"]["finite"] is True


def test_region_family_witness_below_double_epsilon(capsys):
    # 1 - 1e-20 is 1.0 in a double; the witness is found against the exact threshold
    rc, out, _ = run(
        capsys, "region", "--spec", "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=120", "--delta", "1e-20"
    )
    assert rc == 0
    props = next(r for r in json.loads(out)["results"] if r["name"] == "properties:delta=1e-20")
    assert props["values"]["witness_found"] is True
    assert props["values"]["witness_index"] == props["values"]["predicted_witness_index"] == 66


def test_region_family_built_once(capsys, monkeypatch):
    # check_properties reads the endpoints of the build the command already has
    calls = []

    def counting(spec):
        calls.append(spec)
        return build(spec)

    build = regions.construct_family
    monkeypatch.setattr(regions, "construct_family", counting)
    monkeypatch.setattr(cli, "construct_family", counting)
    rc, out, _ = run(capsys, "region", "--spec", "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50")
    assert rc == 0
    assert len(calls) == 1
    assert sum(r["name"].startswith("properties:") for r in json.loads(out)["results"]) == 3


def test_region_invalid(capsys):
    rc, _, err = run(capsys, "region", "--spec", "intervals:0.5-0.4")
    assert rc == 1


def test_region_family_unknown_field(capsys):
    # a misspelled rule= must not fall back to the midpoint rule
    rc, out, err = run(
        capsys, "region", "--spec", "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50,rul=offset:0.3"
    )
    assert rc == 1
    assert out == ""
    assert "unknown family field 'rul'" in err


def test_region_empty(capsys):
    rc, out, _ = run(capsys, "region", "--spec", "intervals:")
    assert rc == 0
    data = json.loads(out)
    assert data["results"][0]["values"] == {"intervals": [], "trace": 0.0, "measure": 0.0}
    ft = data["results"][-1]
    assert ft["name"] == "finite-trace"
    assert ft["values"]["trace"] == 0.0 and isinstance(ft["values"]["trace"], float)
    assert ft["values"]["diagnostic"].startswith("empty region")
    assert "None" not in out


# -----------------------------------------------------------------------------
# moduli
# -----------------------------------------------------------------------------
def test_moduli_csv(capsys):
    rc, out, _ = run(capsys, "moduli", "--count", "4", "--seed", "9")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,modulus"
    assert len(lines) == 5
    ks = [int(l.split(",")[0]) for l in lines[1:]]
    assert ks == [1, 2, 3, 4]
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(0.0 <= v <= 1.0 for v in vals)
    # replay is identical
    rc2, out2, _ = run(capsys, "moduli", "--count", "4", "--seed", "9")
    assert out2 == out


# -----------------------------------------------------------------------------
# verify
# -----------------------------------------------------------------------------
def test_verify_gates_pass(capsys):
    rc, out, _ = run(capsys, "verify", "--reps", "400", "--seed", "0")
    assert rc == 0
    data = json.loads(out)
    assert data["config"]["reps"] == 400
    names = [r["name"] for r in data["results"]]
    assert "dominance:R=0.9:beta=2.0" in names
    assert "count-law:disc:0.9:N=22" in names
    assert "positional-law:disc:0.8:index=0" in names
    assert "min-radius-law:n=20" in names
    for r in data["results"]:
        assert r["verdict"] == "pass"


def test_verify_fails_on_a_wrong_proposal_table(tmp_path, monkeypatch):
    # a proposal table with the radial exponent doubled draws r**(k/2), not
    # r**k, uniformly: the one-point gate must see it through its block of
    # proposals, and verify exits 2 after writing its report
    rows = BergmanSpectrum._rows

    def wrong_exponent(self, idx):
        table, mass, log_inv = rows(self, idx)
        table[..., 3] *= 2.0
        return table, mass, log_inv

    monkeypatch.setattr(BergmanSpectrum, "_rows", wrong_exponent)
    out = tmp_path / "verify.json"
    assert main(["verify", "--reps", "300", "--seed", "11", "--out", str(out)]) == 2
    verdicts = {r["name"]: r.get("verdict", "pass") for r in json.loads(out.read_text())["results"]}
    assert verdicts.pop("positional-law:disc:0.8:index=0") == "fail"
    assert set(verdicts.values()) == {"pass"}


# -----------------------------------------------------------------------------
# exact output: every table and report byte, rebuilt from the library values
# with the 17-digit format, so no pin depends on the float path
# -----------------------------------------------------------------------------
def _g17(v):
    return f"{float(v):.17g}"


def _report(config, results):
    return json.dumps({"version": "0.1.0", "config": config, "results": results}, indent=2) + "\n"


def test_sample_csv_exact(capsys):
    # the default truncation is beta = 5
    conf = sample(BergmanSpectrum.annulus(0.5, 0.95), SamplerConfig(beta=5.0, seed=4), replica=3)
    assert len(conf.points) > 3
    rc, out, _ = run(capsys, "sample", "--region", "annulus:0.5:0.95", "--seed", "4", "--replica", "3")
    assert rc == 0
    assert out == "re,im\n" + "".join(f"{_g17(z.real)},{_g17(z.imag)}\n" for z in conf.points)


SPECTRA = [
    ("intervals:0.1-0.3,0.5-0.7", "intervals:0.1-0.3,0.5-0.7", lambda: BergmanSpectrum(
        regions.make_region([(0.1, 0.3), (0.5, 0.7)]))),
    ("--ginibre", "ginibre:1.5", lambda: GinibreSpectrum(1.5)),
]


@pytest.mark.parametrize("source, label, build", SPECTRA, ids=[s[1] for s in SPECTRA])
def test_spectrum_csv_and_json_exact(source, label, build, capsys):
    spec, n = build(), 6
    lam, trace = spec.eigenvalues(n), spec.trace()
    argv = ["--region", source] if source != "--ginibre" else ["--ginibre", "1.5"]
    rc, csv_out, _ = run(capsys, "spectrum", *argv, "--n-eigen", str(n))
    assert rc == 0
    rows = "".join(f"{k},{_g17(v)}\n" for k, v in enumerate(lam))
    assert csv_out == f"n,eigenvalue\n{rows}# trace={_g17(trace)}\n"
    rc, json_out, _ = run(capsys, "spectrum", *argv, "--n-eigen", str(n), "--format", "json")
    assert rc == 0
    values = {"eigenvalues": [float(v) for v in lam], "trace": float(trace)}
    assert json_out == _report(
        {"spectrum": label, "n_eigen": n}, [{"name": "spectrum", "values": values}]
    )


def test_moduli_csv_and_json_exact(capsys):
    values = sample_moduli(5, make_rng(12, 0, PHASE_MODULI))
    rc, csv_out, _ = run(capsys, "moduli", "--count", "5", "--seed", "12")
    assert rc == 0
    assert csv_out == "k,modulus\n" + "".join(f"{k},{_g17(v)}\n" for k, v in enumerate(values, 1))
    rc, json_out, _ = run(capsys, "moduli", "--count", "5", "--seed", "12", "--format", "json")
    assert rc == 0
    assert json_out == _report(
        {"count": 5, "seed": 12},
        [{"name": "moduli", "values": {"moduli": [float(v) for v in values]}}],
    )


EVERY_OUTPUT = [
    ("sample", "--region", "disc:0.8", "--n-eigen", "6", "--seed", "5"),
    ("sample", "--region", "disc:0.8", "--n-eigen", "6", "--seed", "5", "--format", "json"),
    ("spectrum", "--ginibre", "2.0", "--n-eigen", "4"),
    ("spectrum", "--region", "disc:0.7", "--n-eigen", "4", "--format", "json"),
    ("bounds", "--radius", "0.8", "--beta", "2"),
    ("bounds", "--radius", "0.9", "--n-eigen", "10"),
    ("region", "--spec", "annulus:0.5:0.9", "--delta", "0.2"),
    ("moduli", "--count", "3", "--seed", "2"),
    ("moduli", "--count", "3", "--seed", "2", "--format", "json"),
    ("verify", "--reps", "300", "--seed", "3"),
]


@pytest.mark.parametrize("argv", EVERY_OUTPUT, ids=[" ".join(a) for a in EVERY_OUTPUT])
def test_out_file_matches_stdout(argv, tmp_path, capsys):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and out.endswith("\n") and not out.endswith("\n\n")
    for target in (tmp_path / "report.txt", "-"):
        rc, again, _ = run(capsys, *argv, "--out", str(target))
        assert rc == 0
        assert (target.read_text(encoding="utf-8") if target != "-" else again) == out
        assert again == ("" if target != "-" else out)


# the outputs above that are JSON reports
JSON_REPORTS = [argv for argv in EVERY_OUTPUT if "json" in argv or argv[0] in ("bounds", "region", "verify")]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_json_reports_cover_every_command():
    commands = next(a.choices for a in cli._build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in JSON_REPORTS} == set(commands)


@pytest.mark.parametrize("argv", JSON_REPORTS, ids=[" ".join(a) for a in JSON_REPORTS])
def test_json_report_is_strict_json(argv, capsys):
    # RFC 8259 has no NaN or Infinity, and strict parsers refuse them
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    report = json.loads(out, parse_constant=_no_constant)
    assert set(report) == {"version", "config", "results"}


# inputs whose report would carry a trace of inf, which is not JSON
OVERFLOWING = [
    ("region", "--spec", "family:a0=0.2,b0=0.3,u0=1e308,q=0.5,K=3"),
    ("spectrum", "--ginibre", "1e200", "--n-eigen", "2", "--format", "json"),
]


@pytest.mark.parametrize("argv", OVERFLOWING, ids=[" ".join(a) for a in OVERFLOWING])
def test_overflowing_trace_is_a_validation_error(argv, capsys):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err.startswith("bergman-dpp: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["sample", "spectrum", "moduli"])
def test_only_the_requested_format_is_built(command, capsys, monkeypatch):
    # a JSON run formats no CSV line, and a CSV run dumps no JSON report
    argv = {
        "sample": ("sample", "--region", "disc:0.9", "--n-eigen", "9", "--seed", "1"),
        "spectrum": ("spectrum", "--region", "disc:0.9", "--n-eigen", "5"),
        "moduli": ("moduli", "--count", "4"),
    }[command]

    def refuse(*args, **kwargs):
        raise AssertionError("the other format was built")

    with monkeypatch.context() as m:
        m.setattr(cli, "_g17", refuse)
        assert run(capsys, *argv, "--format", "json")[0] == 0
    with monkeypatch.context() as m:
        m.setattr(json, "dumps", refuse)
        assert run(capsys, *argv, "--format", "csv")[0] == 0


def _module(*argv, launch=subprocess.run, **kwargs):
    """launch (subprocess.run or Popen) on the CLI module with argv and kwargs."""
    src = str(Path(cli.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return launch([sys.executable, "-m", "bergman_dpp.cli", *argv], env=env, **kwargs)


def test_module_entry_point():
    done = _module("--version", capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "0.1.0\n")
    done = _module("moduli", "--count", "2", "--nope", capture_output=True, text=True)
    assert done.returncode == 1 and done.stdout == ""
    assert "unrecognized arguments: --nope" in done.stderr


def test_closed_pipe_exits_1_quietly():
    # the reader takes one line and closes the pipe, as `| head -1` does; the
    # table is far larger than a pipe buffer, so the writer meets the closed end
    argv = ("spectrum", "--region", "disc:0.9", "--n-eigen", "20000")
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True}
    with _module(*argv, launch=subprocess.Popen, **pipes) as proc:
        assert proc.stdout.readline() == "n,eigenvalue\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == ""
