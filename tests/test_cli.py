import json

import numpy as np
import pytest

from bergman_dpp import SamplerConfig, cli, regions, sample
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
        assert r.get("verdict", "pass") == "pass"
