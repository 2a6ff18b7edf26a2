import ast
import importlib
import json
import math
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bergman_dpp
from bergman_dpp import BergmanSpectrum, GinibreSpectrum, count_gof, count_pmf

MODULES = ("bounds", "errors", "regions", "sampler", "spectral", "streams", "verify")


@pytest.mark.parametrize("short", MODULES)
def test_all_names_resolve(short):
    mod = importlib.import_module(f"bergman_dpp.{short}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"{short}.__all__ names missing {name}"


def test_package_republishes_every_all():
    # each module's __all__ is the one list of its public names, and the
    # package star-imports them all: a name in two lists would shadow the
    # earlier module's object silently
    owners = {}
    for short in MODULES:
        mod = importlib.import_module(f"bergman_dpp.{short}")
        for name in mod.__all__:
            assert name not in owners, f"{name} is in {owners.get(name)}.__all__ and {short}.__all__"
            owners[name] = short
            assert getattr(bergman_dpp, name) is getattr(mod, name), f"{short}.{name}"
    submodules = {m.name for m in pkgutil.iter_modules(bergman_dpp.__path__)}
    public = {name for name in vars(bergman_dpp) if not name.startswith("_")}
    assert public - submodules == set(owners)


def test_spectrum_methods_defined_on_class():
    # the benchmark's span tracer looks both up in the class dict
    for attr in ("eigenvalues", "feature_matrix"):
        assert attr in BergmanSpectrum.__dict__


def _lines_matching(pattern: str, home: str) -> list[str]:
    """file:line of every package source line outside home that pattern matches."""
    regex = re.compile(pattern)
    package = Path(bergman_dpp.__file__).parent
    return [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        if path.name != home
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if regex.search(line)
    ]


def test_integer_rule_only_in_errors():
    # errors._as_int is the one integer-argument rule; hand-written copies of
    # `int(x) != x` elsewhere got NaN, inf, None and strings wrong
    copies = _lines_matching(r"\bint\([^()]*\)\s*!=|!=\s*int\(", "errors.py")
    assert not copies, f"integer checks outside errors.py: {copies}"


def test_no_dataclasses_asdict_in_src():
    # asdict deep-copies every field of a report; to_dict follows fields()
    # instead, as SampleMeta.to_dict does
    src = Path(bergman_dpp.__file__).parent.parent
    found = [
        f"{path.relative_to(src)}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.ImportFrom) and any(a.name == "asdict" for a in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "asdict")
    ]
    assert not found, f"dataclasses.asdict used under src/: {found}"


def test_cli_imports_no_private_name():
    # the CLI parses, calls the library and formats; a private helper it
    # needs belongs behind a public function of its module (dunders such as
    # __version__ are public)
    def is_private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse((Path(bergman_dpp.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module or '.'}.{alias.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "bergman_dpp")
        for alias in node.names
        if is_private(alias.name) or any(map(is_private, (node.module or "").split(".")))
    ]
    assert not private, f"cli.py imports private names: {private}"


def test_generators_built_only_in_streams():
    # streams.py is the one place that knows the Philox key layout; a
    # generator built elsewhere would sidestep it
    builders = _lines_matching(r"\b(Philox|Generator|default_rng)\s*\(", "streams.py")
    assert not builders, f"random generators built outside streams.py: {builders}"


def test_generators_rekeyed_only_in_streams():
    # re-keying a kept generator by loading a state is the cell's trick, and
    # streams._cell its one home: a copy elsewhere would share the thread's
    # cell without its reset rule
    rekeyed = _lines_matching(r"\.bit_generator\.state\s*=(?!=)", "streams.py")
    assert not rekeyed, f"generators re-keyed outside streams.py: {rekeyed}"


def test_sampler_and_verify_draw_on_the_cell():
    # every sequential draw of the sampler and the gates reads the thread's
    # cell, for every spectrum type alike: make_rng, which pays for its own
    # OS entropy, is the public constructor only
    package = Path(bergman_dpp.__file__).parent
    found = [
        f"{name}:{number}"
        for name in ("sampler.py", "verify.py")
        for number, line in enumerate((package / name).read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\bmake_rng\b|\btype\([^()]*\)\s+is\b", line)
    ]
    assert not found, f"draws or type branches outside the cell: {found}"


def test_spectrum_caches_read_only_in_spectral():
    # spectral._plan_of is the one checked path to a spectrum's eigenvalues
    # and rows, and the plan's mixture the one path from its rows to the
    # sampler's arrays: a module that read the plan field, or built rows
    # itself, would hold arrays those paths did not check or slice
    package = Path(bergman_dpp.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "spectral.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "_plan")
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_rows"
        )
    ]
    assert not found, f"spectrum caches or rows used outside spectral.py: {found}"


def test_plans_built_only_in_spectral():
    # a _Plan built outside _plan_of would carry eigenvalues no check passed
    builders = _lines_matching(r"\b_Plan\s*\(", "spectral.py")
    assert not builders, f"sampling plans built outside spectral.py: {builders}"


def test_plan_has_one_writer():
    # _plan_of builds the plan whole after its check; every other
    # method of spectral.py only reads it
    tree = ast.parse((Path(bergman_dpp.__file__).parent / "spectral.py").read_text(encoding="utf-8"))
    writers = sorted(
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute) and target.attr == "_plan"
    )
    assert writers == ["__init__", "_plan_of"]


def test_ginibre_named_only_in_spectral_and_cli():
    # a spectrum is anything with eigenvalues(n) (and trace() under beta), a
    # rule spectral.py states once; a module that imported GinibreSpectrum
    # could bring back a class-tuple check that turns duck spectra away
    package = Path(bergman_dpp.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name not in ("spectral.py", "cli.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and any(a.name == "GinibreSpectrum" for a in node.names)
    ]
    assert not found, f"GinibreSpectrum imported outside spectral.py and cli.py: {found}"


def test_mpmath_imported_only_in_verify():
    # mpmath is the chi-square quantile's alone: any other module that
    # imported it would bring its 20 ms import back to sample or region calls
    package = Path(bergman_dpp.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if path.name != "verify.py" and any(n.split(".")[0] == "mpmath" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"mpmath imported outside verify.py: {found}"


_GOF_HISTOGRAM = [2, 30, 160, 420, 300, 88]
_GOF_EIGENVALUES = [0.95, 0.9, 0.7, 0.5, 0.3]


def test_package_imports_numpy_alone():
    # scipy.special and mpmath cost more than half the start-up of every CLI
    # call; mpmath loads at the first chi-square gate (families are built in
    # decimal) and scipy.special at the first Ginibre eigenvalue, and those
    # first calls must still give the values they give once the modules are
    # loaded.  The exact count law needs numpy alone: its merges are direct
    # convolutions
    src = str(Path(bergman_dpp.__file__).parent.parent)
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import bergman_dpp, bergman_dpp.cli; "
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')); "
        "on_import = loaded(); "
        "from bergman_dpp import BergmanSpectrum, GinibreSpectrum, count_gof, count_pmf; "
        "count_pmf(BergmanSpectrum.disc(0.9995).eigenvalues(27624)); "
        "on_count_law = loaded(); "
        f"gof = count_gof({_GOF_HISTOGRAM}, count_pmf({_GOF_EIGENVALUES})); "
        "eig = GinibreSpectrum(1.5).eigenvalues(4).tolist(); "
        "print(json.dumps({'on_import': on_import, 'on_count_law': on_count_law, "
        "'gof': gof.to_dict(), 'eig': eig}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    ).stdout
    fresh = json.loads(out)
    assert fresh["on_import"] == [], f"modules loaded on import: {fresh['on_import'][:5]}"
    assert fresh["on_count_law"] == [], f"modules loaded by count_pmf: {fresh['on_count_law'][:5]}"
    gof = count_gof(_GOF_HISTOGRAM, count_pmf(_GOF_EIGENVALUES))
    assert fresh["gof"] == json.loads(json.dumps(gof.to_dict()))
    assert fresh["eig"] == GinibreSpectrum(1.5).eigenvalues(4).tolist()


_GATE_PATH = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
histogram, eigenvalues = json.loads(sys.argv[2])
from bergman_dpp import BergmanSpectrum, GinibreSpectrum, SamplerConfig, count_gof, count_pmf
from bergman_dpp import intensity_profile_test, sample
from bergman_dpp.cli import main
status = main(["verify", "--reps", "300", "--seed", "11", "--out", os.devnull])
disc = BergmanSpectrum.disc(0.9)
configs = [sample(disc, SamplerConfig(n_eigen=9, seed=19), replica=r) for r in range(40)]
profile = intensity_profile_test(configs, disc, [(0.0, 0.5), (0.5, 0.9)])
gof = count_gof(histogram, count_pmf(eigenvalues))
on_gates = sorted(m for m in sys.modules if m.startswith("scipy"))
GinibreSpectrum(1.5).eigenvalues(4)
print(json.dumps({"status": status, "thresholds": [profile.threshold, gof.threshold],
                  "on_gates": on_gates, "on_ginibre": "scipy.special" in sys.modules}))
"""


def test_gate_path_loads_no_scipy():
    # the chi-square thresholds come from mpmath: scipy.special was a quarter
    # of a verify run's peak memory.  The Ginibre spectrum is the one path
    # that still loads it, the control that the probe sees it
    src = str(Path(bergman_dpp.__file__).parent.parent)
    gof = json.dumps([_GOF_HISTOGRAM, _GOF_EIGENVALUES])
    out = subprocess.run(
        [sys.executable, "-c", _GATE_PATH, src, gof], capture_output=True, text=True, check=True
    ).stdout
    fresh = json.loads(out)
    assert fresh["status"] == 0
    assert all(math.isfinite(t) and t > 0 for t in fresh["thresholds"])
    assert fresh["on_gates"] == [], f"scipy modules loaded by the gates: {fresh['on_gates'][:5]}"
    assert fresh["on_ginibre"], "GinibreSpectrum no longer loads scipy.special: the probe is blind"


_FAMILY_PATH = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
histogram, eigenvalues = json.loads(sys.argv[2])
from bergman_dpp import count_gof, count_pmf
from bergman_dpp.cli import main
family = "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50,rule=midpoint"
status = [main(["sample", "--region", family, "--seed", "3", "--out", os.devnull]),
          main(["region", "--spec", family, "--delta", "1e-20", "--out", os.devnull])]
on_family = sorted(m for m in sys.modules if m.split(".")[0] == "mpmath")
count_gof(histogram, count_pmf(eigenvalues))
print(json.dumps({"status": status, "on_family": on_family, "on_gate": "mpmath" in sys.modules}))
"""


def test_family_path_loads_no_mpmath():
    # families are built in the standard library's decimal, so sampling on
    # one or reporting on it never pays mpmath's import.  The chi-square
    # gate still loads it, the control that the probe sees it
    src = str(Path(bergman_dpp.__file__).parent.parent)
    gof = json.dumps([_GOF_HISTOGRAM, _GOF_EIGENVALUES])
    out = subprocess.run(
        [sys.executable, "-c", _FAMILY_PATH, src, gof], capture_output=True, text=True, check=True
    ).stdout
    fresh = json.loads(out)
    assert fresh["status"] == [0, 0]
    assert fresh["on_family"] == [], f"mpmath modules loaded by a family: {fresh['on_family'][:5]}"
    assert fresh["on_gate"], "count_gof no longer loads mpmath: the probe is blind"
