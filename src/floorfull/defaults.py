"""Default caps, bounds and seeds of the library, in one light module.

The CLI prints every one of them in each report header before it imports
the library module that uses it; each library module re-exports its own.
"""

SIEVE_CAP_DEFAULT = 100_000_000
DEFAULT_RHO_SEED = 0
BITMAP_CAP_DEFAULT = 100_000_000  # bits
DEFAULT_SEQ_CAP = 10_000
DEFAULT_K_MAX = 300
DEFAULT_S_MAX = 10_000
DEFAULT_MAX_M = 60
