"""Caps, default bounds and seeds of the library, in one light module.

The CLI needs them before it imports the library module that uses them:
as flag defaults, and as the caps, search budget and seed a report header
names.  The caps and S_MAX, the budget of the Case III search for s, are
constants; nothing at run time can raise them.  Each library module
re-exports its own.
"""

SIEVE_CAP = 100_000_000
DEFAULT_RHO_SEED = 0
BITMAP_CAP = 100_000_000  # bits
SEQ_CAP = 10_000
DEFAULT_K_MAX = 300
S_MAX = 10_000
DEFAULT_MAX_M = 60
