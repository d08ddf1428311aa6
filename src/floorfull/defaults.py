"""Default caps, bounds and seeds of the library, in one light module.

The CLI needs them before it imports the library module that uses them:
as flag defaults, as the fallbacks of the FLOORFULL_* caps, and as the
seed a report header names.  Each library module re-exports its own.
"""

SIEVE_CAP_DEFAULT = 100_000_000
DEFAULT_RHO_SEED = 0
BITMAP_CAP_DEFAULT = 100_000_000  # bits
DEFAULT_SEQ_CAP = 10_000
DEFAULT_K_MAX = 300
DEFAULT_S_MAX = 10_000
DEFAULT_MAX_M = 60
