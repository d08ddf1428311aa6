"""Exact-arithmetic toolkit for shifted-power certificates, floor-scaled
sequences, and subset-sum representation sets.

Everything verification-grade runs on arbitrary-precision integers and
rationals; no floating point appears in any checked statement.
"""

from .classify import (
    Factorization,
    factorize,
    is_prime,
    is_r_free,
    is_r_full,
    primes_up_to,
    r_free_integers,
    r_full_integers,
    r_full_up_to,
    series_digits,
    squarefull_via_a2b3,
)
from .certificates import (
    Certificate,
    NonRFullReport,
    ValidationResult,
    construct_certificate,
    dirichlet_search,
    validate_certificate,
    verify_non_rfull,
)
from .errors import (
    FloorfullError,
    NotFoundWithinBound,
    SkipViolation,
    VerificationFailure,
    WitnessFailure,
)
from .floorseq import (
    Explicit,
    FloorPower,
    RatioReport,
    SeqSpec,
    Squares,
    generate_terms,
    member_alpha_set,
    preimage_interval,
    ratio_condition_check,
    s_alpha,
)
from .pset import (
    PSetBitmap,
    SquaresWitnessReport,
    brown_criterion,
    complete_up_to,
    compute_pset,
    squares_witness_alpha,
    verify_squares_witness,
)
from .rationals import (
    RatInterval,
    UNIT,
    interval,
    parse_rational,
    rat_str,
)
from .skipverify import (
    SkipReport,
    SymbolicCheck,
    counterexample_scan,
    gamma_exception_search,
    interval_extrema_of_floor,
    symbolic_condition_check,
    verify_skip_all_alpha,
)

__version__ = "0.1.0"
