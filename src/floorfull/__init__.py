"""Exact-arithmetic toolkit for shifted-power certificates, floor-scaled
sequences, and subset-sum representation sets.

Everything verification-grade runs on arbitrary-precision integers and
rationals; no floating point appears in any checked statement.

`import floorfull` loads no submodule: each public name below, and each
submodule name, is imported on first access (PEP 562), so a cold CLI run
pays only for the modules its subcommand uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "classify": (
        "Factorization", "factorize", "is_prime", "is_r_free", "is_r_full",
        "primes_up_to", "r_free_integers", "r_full_integers", "r_full_up_to",
        "series_digits", "squarefull_via_a2b3",
    ),
    "certificates": (
        "Certificate", "NonRFullReport", "check_non_rfull", "construct_certificate",
        "dirichlet_search", "validate_certificate", "verify_non_rfull",
    ),
    "errors": (
        "FloorfullError", "NotFoundWithinBound", "VerificationFailure",
    ),
    "floorseq": (
        "Explicit", "FloorPower", "RatioReport", "SeqSpec", "Squares",
        "generate_terms", "member_alpha_set", "preimage_interval",
        "ratio_condition_check", "s_alpha",
    ),
    "pset": (
        "PSetBitmap", "SquaresWitnessReport", "brown_criterion", "complete_up_to",
        "compute_pset", "squares_witness_alpha", "verify_squares_witness",
    ),
    "rationals": ("RatInterval", "parse_rational", "rat_str"),
    "skipverify": (
        "SkipReport", "SymbolicCheck", "counterexample_scan", "gamma_exception_search",
        "interval_extrema_of_floor", "symbolic_condition_check", "verify_skip_all_alpha",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted({*_HOME, *_EXPORTS})


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here as well
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
