"""Frozen output bytes: SHA-256 digests of sample() reports, of two verify
reports, of region, bounds and CLI sample reports and of count_pmf laws
above one 64-eigenvalue block of its product tree, under count-law
contract "tree-64-scaled" (merges in units of 2**-511; against "tree-64",
which merged unscaled laws, the digests at N = 5000, 27624 and 299328 and
that of the random spectra moved, only in entries below 2**-1000).

A (seed, replica) replays byte-identically under SAMPLER_VERSION, so a
change that only makes the sampler faster must leave every digest here as
it is.  A digest that moves means the stream moved: bump SAMPLER_VERSION
(or the count-law contract) and record it in CHANGES.md instead of
re-freezing the digest quietly.

Replay is byte-identical per float path, so there is one table per path.
numpy's AVX-512 float64 kernels (exp, log, expm1, log1p and pow) differ
from the platform libm by 1 ulp on some inputs; the digests below the
imports are theirs.  LIBM_DIGESTS holds the 12 of the 22 that differ on
the libm path: numpy limited to its AVX2 kernels by
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", the path of an
x86 host without AVX-512.  They are four of the six sample digests, both
verify digests and the six count-law digests; the other 10 are the same
on both paths.  FLOAT_PATH tells the paths apart by a probe of public
behaviour: on 1001 points of [-5, 5], numpy's exp differs from math.exp
(the libm's) on 41 under AVX-512 and on none on the libm path.  A process
on any other path fails every digest test with a message naming it.
test_digests_on_the_libm_path runs this file again in a subprocess under
that variable, so an AVX-512 host checks both tables, and both paths check
that off the disc an eigenvalue's bits depend on its index alone.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from test_verify import random_spectra

from bergman_dpp import (
    BergmanSpectrum,
    FamilySpec,
    SamplerConfig,
    construct_family,
    count_pmf,
    parse_region_literal,
    sample,
)
from bergman_dpp.cli import main

# sample(spectrum, SamplerConfig(beta=5, seed)) for seeds 0, 1, ...
SAMPLE_DIGESTS = {
    "disc:0.9": (
        "d804d7804fecfe1330725a7fc6d90f29c3832ee3417d75134db0d706332c4803",
        "28e3696d9ef84c77ad237441c0d294896789df64fe9e1b73a375cf3a2666ecb3",
        "8f228ffa3fbea9a0d6a73d5c37ae2b491cfb93e47dc2db2e3e8b84281d21026c",
        "c92f587b76250310ef4e28686f0192123e322e5c720f51d9c5f5936d00d7c6d6",
        "840a2d2a62fec2c04ebc0ec06547243bce830372dc27547cf54ae1483b54c2be",
    ),
    "annulus:0.5:0.9": (
        "ab2c7234d21a7d394968c12e4d56fdc71d26495180069733046503d53d8c0c7a",
        "58196f6c214b65083a5774532e042fb3bafa28090f57beced7b00d3ba57c6351",
        "5a47ab92175b7e2977e85e17009784673fff738e0c8d3811b05d8d783871cc02",
        "6e854356d37fa2f1b4cf6b30c621a85c28cab32618476f0a7c4a803b95c9c8ae",
        "2e5a365c05bdf1d304d0bcfb398298a4c2b3212ef0f46717b59b79a1a2ceeae9",
    ),
    "intervals:0.1-0.3,0.5-0.7,0.85-0.95": (
        "82c26669dc4413597f28e7874d9988d361596e3ebe75d0faac5dc0d2a843e4c9",
        "d33bc716e42cdbd0dd3795e5317fc4dc5b45bec799d646af76e0b2d8756fe761",
        "8bc23870ab2d501b1ee2cee98bb81170d5c35ab877964886a2ea744f095b9e11",
        "04efcac8eca1af18d7a4226de6f333999658d48725e25496edc0d37cb2d17af3",
        "71c58e2037ec8778a8d6ff3780405c0aed72784607c720efee13e31e5de5fd06",
    ),
    "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50,rule=midpoint": (
        "c1ba2abeaf9c59f3103778382301c673a7c9c3cccdce093071433e5f350c56c3",
        "451583c09f8ab3b3952f2e410b1d5e4b452f86ead1037f366493c17f1e51c5dd",
        "7fc996b9dc98580b842c83169562073f3bdda8fe5e581e251b3eee6abc494fc4",
        "8363277c93dbdd0ae0c29098f93345d56a80282dd27646a5bce6bfeab4598d5d",
        "3a9f782814517fae97d8c1db244bd6ca32c56fbf36edebde0d34568a0df9628f",
    ),
    "disc:0.98": (
        "3dae4e7c6194df41e3e5ea6b5a1e083d233b1f5a9137ff7baf04ea59818cb61f",
        "53195b3cdfa29a77e47dad018629faf37c3b0a0a9620974532558dbf6d2a1cc3",
        "4fa1b540c7065d83c8d28b718534752015bf3dce066e616e5af7af5705b93a72",
        "af2a109af4741199b066988ec73d8b6b594efbf56b21f680a6efa55f3a73785d",
        "21dc50ceaca273631f88a79f1f4d2b7c7eda60bed51d11eae19e948c33eb229e",
    ),
    "disc:0.995": ("bbc9ae03e66d42d3516495efb49d86f10a5fafa6efd01b444fc263d795bf9590",),
}
# the report file of `verify --reps 5000 --seed 7`; its count-law row's
# threshold (df 9, alpha 1e-3) is the correctly rounded 27.877164871256575,
# 2 ulp above the 27.877164871256568 that scipy's gammaincinv gave
VERIFY_DIGEST = "cd5e7d9e2fddddfa690639cc2fea64970fb83ba115d76fb4392d3d3b5b6824e5"
# the report file of `verify --reps 300 --seed 11`: its positional gate
# draws the floor of 200 replicas, not reps // 4
VERIFY_FLOOR_DIGEST = "1cd1239e92cdfec6499d3dd1f3082d277f4628eefc23f09dc3a0675ddf0783ff"
# the report file of `region --spec <literal>`; a family's max_logit_defect is
# the rounding residue of its decimal construction (it moved when the
# construction left mpmath's binary arithmetic, alone of the report's values)
REGION_DIGESTS = {
    "disc:0.9": "6e83f2b749bcde7ad0453a81e68b539127a147a812a6710e03a8bb2a2cfed34a",
    "annulus:0.5:0.9": "9e197bc134187e314c564fe6f6d899ef495395899666680db62dbdc609a896a7",
    "intervals:0.1-0.3,0.5-0.7,0.85-0.95": "de558e6218cb217ce5cc60dedac50cf7bf25c952a3881d3ef4ccda3c6aabc3ce",
    "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50,rule=midpoint": (
        "d7199ad56c2d2bce5653e3f12dc4693ca01512ae0345df485e7ae08ea0f200d7"
    ),
    "family:a0=0.2,b0=0.3,u0=0.05,q=0.4,K=12,rule=offset:0.3": (
        "454ffbddad41028b595dd24b2b7b8395f29ff985e16a381addae15e58cb234d1"
    ),
}
# the report file of `bounds ...`, one with beta and one with n_eigen, whose
# wasserstein_bound is null: JSON has no NaN
BOUNDS_DIGESTS = {
    ("--radius", "0.9", "--beta", "2"): (
        "b08c3de3e517fb215d6d4457e01ab051d275a66e155cb5d1f98badaf27284075"
    ),
    ("--radius", "0.99", "--n-eigen", "50"): (
        "a9bae2672c4d44aa37b10b275d496814475ff656c23770a034274a9f04ed0326"
    ),
}
# the report file of `sample --region disc:0.9 --format json`, default beta
CLI_SAMPLE_DIGEST = "42e433574b101f88fc6e826378def7d23c6c9246719f7e646a7c29705d7bf647"

# count_pmf(disc(radius).eigenvalues(n)).pmf.tobytes(), count-law contract
# "tree-64-scaled": 65 is two leaves, 192 carries an odd leaf up a level
COUNT_PMF_DIGESTS = {
    (0.9995, 65): "b0c603cf4b1991106e4dfd9a2ed055a17e563c620774f8201eac7f429f89e177",
    (0.9995, 192): "13f8d47741646ee168cdddf6d7cdb9862aa70ddfb50812270088c5f8dde91033",
    (0.9995, 5000): "b963270e4fe135e45488a1152adb06f1d1e0f474d531aefa32733452f203cdb6",
    (0.9995, 27624): "5ccfa530377665081ef06c00e11f8512cd970f4d716767cfe8fea6cb41503d4d",
    (0.99995, 299_328): "cdc1247b03c051f81011864611cdbbf9c8e4d480e9f39e48ddf9a8d8e5b5b152",
}
# the pmf bytes of each random_spectra() law longer than 64, in order
RANDOM_COUNT_PMF_DIGEST = "315d23773e4a13b3141f26d78e5bb8a7eb7bb16a412bd33d6e1533d4273b93a7"

# the libm path's digests where they differ from the ones above, same keys
LIBM_DIGESTS = {
    ("sample", "annulus:0.5:0.9"): (
        "ab2c7234d21a7d394968c12e4d56fdc71d26495180069733046503d53d8c0c7a",
        "45e0a850dbea70ea95beb5f861e18dfcd9dac0a784eb9ad6d58f93ad60562e5f",
        "5a47ab92175b7e2977e85e17009784673fff738e0c8d3811b05d8d783871cc02",
        "6e854356d37fa2f1b4cf6b30c621a85c28cab32618476f0a7c4a803b95c9c8ae",
        "0a1d3b6e1c6ac4f4f8a33fd08536763d51cf68bcc94b125380cfb329e5b5c50c",
    ),
    ("sample", "intervals:0.1-0.3,0.5-0.7,0.85-0.95"): (
        "82c26669dc4413597f28e7874d9988d361596e3ebe75d0faac5dc0d2a843e4c9",
        "d33bc716e42cdbd0dd3795e5317fc4dc5b45bec799d646af76e0b2d8756fe761",
        "8bc23870ab2d501b1ee2cee98bb81170d5c35ab877964886a2ea744f095b9e11",
        "c2266064f2979e2bca4e625d22c20b682a529727936029d6380d511b580cabfc",
        "71c58e2037ec8778a8d6ff3780405c0aed72784607c720efee13e31e5de5fd06",
    ),
    ("sample", "disc:0.98"): (
        "3dae4e7c6194df41e3e5ea6b5a1e083d233b1f5a9137ff7baf04ea59818cb61f",
        "5a4d97dae8ceaa462672223665955f4e295c6b0fbcb97b2d39c5af8b909891fb",
        "0782538603065c12cf79c8ef323ece2936ff85a934f72567c9e92248966cfad4",
        "9f1cbe64b59289c042b8e07ed37f17fb918ad05370fbb87fd4e123cfe2bfd849",
        "269f90ef8a880c0df37924d7c63a92f92b18506b7af65f57072b953b404d2d5a",
    ),
    ("sample", "disc:0.995"): ("7171d3251a71e72a83f4b9c3bec0016a4a4c8710bbf251283aaa7a0cb295baf3",),
    # the same one threshold line as VERIFY_DIGEST's moved
    "verify": "eb05be11d894aaef30f71ae5ee77338853e43688fe609a6826244579ad65af05",
    "verify-floor": "cba4c4e47e1d6c5ef465c0bd11b62fa66c63c1125ace56ecf6754e12adb75e7e",
    ("count_pmf", 0.9995, 65): "88d6e7dc0bc2858aecda585d9c0175df2c42a9e3ed9098717b94a02f99e6cfbf",
    ("count_pmf", 0.9995, 192): "043f60e3bcd2ff1664738f4bf4d0e3bb909a30406e8053119347a6ddede45ba8",
    ("count_pmf", 0.9995, 5000): "841fcdcee29fae5dec3d89e57a7b61b705dd8e2e534bdf5bdb01ad7bf37e4eea",
    ("count_pmf", 0.9995, 27624): "331accb645c7a9e43118894ece1d49c28ea7f074ba13661e8db8f322a075786a",
    ("count_pmf", 0.99995, 299_328): "d1cd65c2ef3823ecc9b37802ee78b5ee73a0fccd285edfb492b245b0a333bf62",
    "random count_pmf": "2e4d3efa1e9500998a18c969f414ccd620947ebba4aaf4a4520bcdb313cfaac6",
}

# numpy's float64 path in this process: how many of its exp values on 1001
# points of [-5, 5] differ from the libm's
_PROBE = np.linspace(-5.0, 5.0, 1001)
_OFF_LIBM = int(np.count_nonzero(np.exp(_PROBE) != [math.exp(x) for x in _PROBE]))
FLOAT_PATH = {41: "AVX-512", 0: "libm"}.get(_OFF_LIBM, f"unknown ({_OFF_LIBM} of 1001 exp values off libm)")
# the setting that limits numpy to its AVX2 kernels: the libm path on an AVX-512 host
AVX2_ONLY = "X86_V4 AVX512_ICL AVX512_SPR"


def _check(got, key, avx512):
    """got against key's digest on this process's float path; avx512 is its AVX-512 digest."""
    if FLOAT_PATH not in ("AVX-512", "libm"):
        pytest.fail(f"no digest table for numpy's float path: {FLOAT_PATH}")
    want = LIBM_DIGESTS.get(key, avx512) if FLOAT_PATH == "libm" else avx512
    assert got == want, f"{key} moved on numpy's {FLOAT_PATH} float path"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _spectrum(literal: str) -> BergmanSpectrum:
    parsed = parse_region_literal(literal)
    if isinstance(parsed, FamilySpec):
        parsed = construct_family(parsed).region
    return BergmanSpectrum(parsed)


@pytest.mark.parametrize("literal", sorted(SAMPLE_DIGESTS))
def test_sample_digests(literal):
    spectrum = _spectrum(literal)
    digests = tuple(
        _sha256(json.dumps(sample(spectrum, SamplerConfig(beta=5.0, seed=seed)).to_dict()).encode())
        for seed in range(len(SAMPLE_DIGESTS[literal]))
    )
    _check(digests, ("sample", literal), SAMPLE_DIGESTS[literal])


def test_verify_report_digest(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--reps", "5000", "--seed", "7", "--out", str(out)]) == 0
    _check(_sha256(out.read_bytes()), "verify", VERIFY_DIGEST)


def test_verify_report_digest_at_replica_floor(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--reps", "300", "--seed", "11", "--out", str(out)]) == 0
    _check(_sha256(out.read_bytes()), "verify-floor", VERIFY_FLOOR_DIGEST)


@pytest.mark.parametrize("literal", sorted(REGION_DIGESTS))
def test_region_report_digest(literal, tmp_path):
    out = tmp_path / "region.json"
    assert main(["region", "--spec", literal, "--out", str(out)]) == 0
    _check(_sha256(out.read_bytes()), ("region", literal), REGION_DIGESTS[literal])


@pytest.mark.parametrize("args", sorted(BOUNDS_DIGESTS))
def test_bounds_report_digest(args, tmp_path):
    out = tmp_path / "bounds.json"
    assert main(["bounds", *args, "--out", str(out)]) == 0
    _check(_sha256(out.read_bytes()), ("bounds", args), BOUNDS_DIGESTS[args])


def test_cli_sample_report_digest(tmp_path):
    out = tmp_path / "sample.json"
    assert main(["sample", "--region", "disc:0.9", "--format", "json", "--out", str(out)]) == 0
    _check(_sha256(out.read_bytes()), "cli sample", CLI_SAMPLE_DIGEST)


@pytest.mark.parametrize("radius, n", sorted(COUNT_PMF_DIGESTS))
def test_count_pmf_digest(radius, n):
    pmf = count_pmf(BergmanSpectrum.disc(radius).eigenvalues(n)).pmf
    _check(_sha256(pmf.tobytes()), ("count_pmf", radius, n), COUNT_PMF_DIGESTS[radius, n])


def test_count_pmf_digest_of_random_spectra():
    digest = hashlib.sha256()
    long = [lam for lam in random_spectra() if lam.size > 64]
    assert len(long) == 29
    for lam in long:
        digest.update(count_pmf(lam).pmf.tobytes())
    _check(digest.hexdigest(), "random count_pmf", RANDOM_COUNT_PMF_DIGEST)


def test_digests_on_the_libm_path():
    # numpy reads the setting at import, so the file runs in a fresh process;
    # the child checks that it took the libm path before it runs the tests
    if FLOAT_PATH == "libm":
        pytest.skip("this process already runs the libm path")
    child = (
        "import sys, pytest, test_digests\n"
        "assert test_digests.FLOAT_PATH == 'libm', test_digests.FLOAT_PATH\n"
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', test_digests.__file__]))\n"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": AVX2_ONLY}
    env["PYTHONPATH"] = os.pathsep.join([here, src, env.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-c", child], cwd=here, env=env, capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]


@pytest.mark.parametrize(
    "literal",
    [
        "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50,rule=midpoint",
        "intervals:0.1-0.3,0.5-0.7,0.85-0.95",
        "annulus:0.5:0.9",
        "annulus:0.99:0.995",
    ],
)
def test_eigenvalues_entry_by_entry(literal):
    # off the disc every entry is one scalar formula: eigenvalues(N)[n] has
    # the bits of eigenvalue(n) whatever N, and the family's thin annuli next
    # to the unit circle are within 1e-14 of the exact sum
    spectrum = _spectrum(literal)
    single = np.array([spectrum.eigenvalue(n) for n in range(3000)])
    for n_eigen in (1, 2, 3, 8, 3000):
        assert spectrum.eigenvalues(n_eigen).tobytes() == single[:n_eigen].tobytes(), n_eigen
    lam = spectrum.eigenvalues(3001)
    with mp.workdps(60):
        for n in (0, 10, 100, 1000, 2999):
            k = 2 * n + 2
            exact = mp.fsum(mp.mpf(b) ** k - mp.mpf(a) ** k for a, b in spectrum.region.intervals)
            assert abs(lam[n] - exact) <= 1e-14 * exact, n
