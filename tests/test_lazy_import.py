"""A cold run imports only the library modules its subcommand uses.

Each subcommand case runs in a fresh interpreter, calls `main(argv)` and
prints the names in `sys.modules`.  Only the floorfull modules its
subcommand runs may load, and neither `dataclasses` nor `inspect` may:
importing them costs a cold run ~10 ms.  A JSON run loads neither `csv`
nor `floorfull.render`, which only `--format table` and `csv` need.  A run
that builds no Fraction loads no `fractions`, nor the `decimal` and
`numbers` it imports: ~4 ms.
Without cached bytecode a run compiles each floorfull module it loads, so
a run loads `rationals` only to parse or print a rational, the sieve and
series code of `enumeration` only for `sieve` and `series`, and only its
own group's command module.
A well-formed run loads no `argparse`, nor the `gettext` and `locale` its
first parser loads: ~6 ms; help and usage errors do.
The package namespace tests check that the lazy
`floorfull/__init__` still exposes every name the package used to import
eagerly, each bound to its home module's object.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import floorfull

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
INPUTS = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"
CERT = str(INPUTS / "cert_ell12.json")
LIBRARY = {"classify", "certificates", "floorseq", "pset", "skipverify"}
NUMERIC = {"fractions", "decimal", "numbers"}
PARSING = {"argparse", "gettext", "locale"}

# The public names `import floorfull` bound eagerly before it turned lazy,
# by home module.
HOMES = {
    "classify": [
        "Factorization", "factorize", "is_prime", "is_r_free", "is_r_full",
        "primes_up_to", "r_free_integers", "r_full_integers", "r_full_up_to",
        "series_digits", "squarefull_via_a2b3",
    ],
    "certificates": [
        "Certificate", "NonRFullReport", "construct_certificate",
        "dirichlet_search", "validate_certificate", "verify_non_rfull",
    ],
    "errors": [
        "FloorfullError", "NotFoundWithinBound", "VerificationFailure",
    ],
    "floorseq": [
        "Explicit", "FloorPower", "RatioReport", "SeqSpec", "Squares",
        "generate_terms", "member_alpha_set", "preimage_interval",
        "ratio_condition_check", "s_alpha",
    ],
    "pset": [
        "PSetBitmap", "SquaresWitnessReport", "brown_criterion", "complete_up_to",
        "compute_pset", "squares_witness_alpha", "verify_squares_witness",
    ],
    "rationals": ["RatInterval", "parse_rational", "rat_str"],
    "skipverify": [
        "SkipReport", "SymbolicCheck", "counterexample_scan", "gamma_exception_search",
        "interval_extrema_of_floor", "symbolic_condition_check", "verify_skip_all_alpha",
    ],
}


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120, text=True)


def fresh_python(code: str) -> str:
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def modules_loaded_by(argv: list[str], exit_code: int = 0) -> set[str]:
    code = (
        "import contextlib, io, json, sys\n"
        "from floorfull.cli import main\n"
        "try:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"        code = main({argv!r})\n"
        "except SystemExit as exc:  # argparse exits on help and usage errors\n"
        "    code = exc.code\n"
        f"assert code == {exit_code}, code\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    return set(json.loads(fresh_python(code)))


# Every floorfull module a cold run loads besides these: its library module and
# what that imports, its group's command module, and the modules of its result.
CORE = {"floorfull", "floorfull.cli", "floorfull.defaults", "floorfull.errors"}


@pytest.mark.parametrize(
    "argv, loads, absent",
    [
        (["classify", "--n", "30"], {"classify", "_cmd_classify"}, NUMERIC),
        (["sieve", "--limit", "100"], {"classify", "enumeration", "_cmd_classify"}, NUMERIC),
        (["series", "--kind", "squarefull", "--terms", "5", "--digits", "10"],
         {"classify", "enumeration", "rationals", "_cmd_classify"}, set()),  # it prints a Fraction
        (["thm2", "symbolic", "--gamma", "3/2", "--j", "3"],
         {"skipverify", "floorseq", "rationals", "view", "_cmd_skipverify"}, set()),
        (["pset", "witness", "--m", "3"], {"pset", "view", "_cmd_pset"}, set()),
        (["pset", "compute", "--terms", str(INPUTS / "terms.txt"), "--bound", "50"],
         {"pset", "view", "_cmd_pset"}, NUMERIC),
        (["theorem1", "verify", "--cert", CERT], {"certificates", "classify", "_cmd_certificates"}, NUMERIC),
    ],
    ids=["classify", "sieve", "series", "thm2_symbolic", "pset_witness", "pset_compute", "theorem1_verify"],
)
def test_subcommand_loads_only_its_modules(argv, loads, absent):
    modules = modules_loaded_by(argv)
    loaded = {name for name in modules if name.split(".")[0] == "floorfull"}
    assert loaded == CORE | {f"floorfull.{name}" for name in loads}
    assert not modules & (absent | {"dataclasses", "inspect", "csv"} | PARSING)


@pytest.mark.parametrize("argv, exit_code", [(["classify", "--help"], 0), (["classify", "--n=x"], 2)])
def test_help_and_usage_errors_load_argparse(argv, exit_code):
    assert "argparse" in modules_loaded_by(argv, exit_code)


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_table_and_csv_runs_load_the_renderer(fmt):
    assert "floorfull.render" in modules_loaded_by(["classify", "--n", "30", "--format", fmt])


def test_entry_point_classify_loads_no_other_library_module():
    proc = run_python("-v", "-m", "floorfull", "classify", "--n", "30")
    assert proc.returncode == 0, proc.stderr
    # -v logs every module the import system loads, importlib.import_module included
    loaded = {line.split("'")[1] for line in proc.stderr.splitlines() if line.startswith("import 'floorfull")}
    assert {"floorfull.cli", "floorfull.classify"} <= loaded
    assert not loaded & {f"floorfull.{name}" for name in LIBRARY - {"classify"}}
    assert not loaded & {"floorfull.rationals", "floorfull.enumeration"}
    assert {name for name in loaded if name.startswith("floorfull._cmd_")} == {"floorfull._cmd_classify"}
    assert "import 'fractions'" not in proc.stderr


def test_bare_package_import_loads_no_submodule():
    code = "import json, sys, floorfull\nprint(json.dumps([m for m in sys.modules if m.startswith('floorfull.')]))"
    assert json.loads(fresh_python(code)) == []


def test_submodule_attribute_resolves_without_prior_import():
    code = (
        "import sys, floorfull\n"
        "assert 'floorfull.classify' not in sys.modules\n"
        "module = floorfull.classify\n"
        "print(module is sys.modules['floorfull.classify'], module.__name__)"
    )
    assert fresh_python(code) == "True floorfull.classify"


@pytest.mark.parametrize("module", sorted(HOMES))
def test_every_former_eager_name_resolves_to_its_home_object(module):
    home = importlib.import_module(f"floorfull.{module}")
    assert getattr(floorfull, module) is home
    for name in HOMES[module]:
        assert getattr(floorfull, name) is getattr(home, name), name


def test_from_import_and_dir_list_every_former_eager_name():
    from floorfull import PSetBitmap, factorize, verify_skip_all_alpha  # noqa: F401

    listed = set(dir(floorfull))
    for module, names in HOMES.items():
        assert module in listed
        assert set(names) <= listed
    assert "__version__" in listed


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        floorfull.no_such_name
    with pytest.raises(ImportError):
        from floorfull import no_such_name  # noqa: F401
