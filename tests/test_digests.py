"""Frozen output bytes: SHA-256 digests of sample() reports, of two verify
reports, of region, bounds and CLI sample reports and of count_pmf laws
above one 64-eigenvalue block of its product tree.

A (seed, replica) replays byte-identically under SAMPLER_VERSION, so a
change that only makes the sampler faster must leave every digest here as
it is.  A digest that moves means the stream moved: bump SAMPLER_VERSION
(or the count-law contract) and record it in CHANGES.md instead of
re-freezing the digest quietly.

The digests are of numpy's AVX-512 float64 kernels (exp, log, expm1, log1p
and pow), which differ from the platform libm by 1 ulp on some inputs.
Replay is byte-identical per float path: with numpy limited to its AVX2
kernels (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", the path
of an x86 host without AVX-512), 12 of the 22 digests here fail: four of
the six sample digests, both verify digests and the six count-law digests.
"""

import hashlib
import json

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
# the report file of `verify --reps 5000 --seed 7`
VERIFY_DIGEST = "99c54f93e053e29f5db2922a860e856d5d9515ca403e7536d221ebc0039fa21e"
# the report file of `verify --reps 300 --seed 11`: its positional gate
# draws the floor of 200 replicas, not reps // 4
VERIFY_FLOOR_DIGEST = "1cd1239e92cdfec6499d3dd1f3082d277f4628eefc23f09dc3a0675ddf0783ff"
# the report file of `region --spec <literal>`
REGION_DIGESTS = {
    "disc:0.9": "6e83f2b749bcde7ad0453a81e68b539127a147a812a6710e03a8bb2a2cfed34a",
    "annulus:0.5:0.9": "9e197bc134187e314c564fe6f6d899ef495395899666680db62dbdc609a896a7",
    "intervals:0.1-0.3,0.5-0.7,0.85-0.95": "de558e6218cb217ce5cc60dedac50cf7bf25c952a3881d3ef4ccda3c6aabc3ce",
    "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50,rule=midpoint": (
        "bf403bed0f2e88fac4796e34ccdf0a8b03906d63014730fa6452fba8e8ff8704"
    ),
    "family:a0=0.2,b0=0.3,u0=0.05,q=0.4,K=12,rule=offset:0.3": (
        "c4ebfeaa3c85da7221a5e1b3d48af2d4acd1a55b194e9cc16cb45ff8edb1860f"
    ),
}
# the report file of `bounds ...`, one with beta and one with n_eigen
BOUNDS_DIGESTS = {
    ("--radius", "0.9", "--beta", "2"): (
        "b08c3de3e517fb215d6d4457e01ab051d275a66e155cb5d1f98badaf27284075"
    ),
    ("--radius", "0.99", "--n-eigen", "50"): (
        "59b153684efef3e005136ba8f38869b46c93f40625a4230c10e325700b63f8e8"
    ),
}
# the report file of `sample --region disc:0.9 --format json`, default beta
CLI_SAMPLE_DIGEST = "42e433574b101f88fc6e826378def7d23c6c9246719f7e646a7c29705d7bf647"

# count_pmf(disc(radius).eigenvalues(n)).pmf.tobytes(), count-law contract
# "tree-64": 65 is two leaves, 192 carries an odd leaf up a level
COUNT_PMF_DIGESTS = {
    (0.9995, 65): "b0c603cf4b1991106e4dfd9a2ed055a17e563c620774f8201eac7f429f89e177",
    (0.9995, 192): "13f8d47741646ee168cdddf6d7cdb9862aa70ddfb50812270088c5f8dde91033",
    (0.9995, 5000): "904de769ed891807e9c27edf0a4eb50d76494442ea4fcaad87e596cc2cd5cf9b",
    (0.9995, 27624): "b96e7b5bd68e9d47e5fa6174d940ac9eb46ffc5723e82cad45de01f2859cf9f7",
    (0.99995, 299_328): "0e53afc5dbcc02a4230d78453fd200635b4115ce1f43ba0e3a64f59836083d62",
}
# the pmf bytes of each random_spectra() law longer than 64, in order
RANDOM_COUNT_PMF_DIGEST = "0d6e0127e56f1643216d90fc1913ad1f493dc0e35b784bbd5ef1936fe744145c"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("literal", sorted(SAMPLE_DIGESTS))
def test_sample_digests(literal):
    parsed = parse_region_literal(literal)
    if isinstance(parsed, FamilySpec):
        parsed = construct_family(parsed).region
    spectrum = BergmanSpectrum(parsed)
    digests = tuple(
        _sha256(json.dumps(sample(spectrum, SamplerConfig(beta=5.0, seed=seed)).to_dict()).encode())
        for seed in range(len(SAMPLE_DIGESTS[literal]))
    )
    assert digests == SAMPLE_DIGESTS[literal]


def test_verify_report_digest(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--reps", "5000", "--seed", "7", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == VERIFY_DIGEST


def test_verify_report_digest_at_replica_floor(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--reps", "300", "--seed", "11", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == VERIFY_FLOOR_DIGEST


@pytest.mark.parametrize("literal", sorted(REGION_DIGESTS))
def test_region_report_digest(literal, tmp_path):
    out = tmp_path / "region.json"
    assert main(["region", "--spec", literal, "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == REGION_DIGESTS[literal]


@pytest.mark.parametrize("args", sorted(BOUNDS_DIGESTS))
def test_bounds_report_digest(args, tmp_path):
    out = tmp_path / "bounds.json"
    assert main(["bounds", *args, "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == BOUNDS_DIGESTS[args]


def test_cli_sample_report_digest(tmp_path):
    out = tmp_path / "sample.json"
    assert main(["sample", "--region", "disc:0.9", "--format", "json", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == CLI_SAMPLE_DIGEST


@pytest.mark.parametrize("radius, n", sorted(COUNT_PMF_DIGESTS))
def test_count_pmf_digest(radius, n):
    pmf = count_pmf(BergmanSpectrum.disc(radius).eigenvalues(n)).pmf
    assert _sha256(pmf.tobytes()) == COUNT_PMF_DIGESTS[radius, n]


def test_count_pmf_digest_of_random_spectra():
    digest = hashlib.sha256()
    long = [lam for lam in random_spectra() if lam.size > 64]
    assert len(long) == 29
    for lam in long:
        digest.update(count_pmf(lam).pmf.tobytes())
    assert digest.hexdigest() == RANDOM_COUNT_PMF_DIGEST
