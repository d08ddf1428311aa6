"""A fixed amount of cold-interpreter work that uses no floorfull code.

run.py runs this between floorfull invocations as a yardstick. The machines
the benchmark runs on are shared, and how fast a fresh Python process runs
there drifts by tens of percent over minutes; floorfull's times and this
script's time drift together. Dividing by this script's nearby wall time
removes most of the drift (see run.py).

The mix mirrors what a floorfull command does: start an interpreter, import
the standard-library modules floorfull imports, do exact rational and
big-integer arithmetic, touch fresh memory, and serialise JSON.
"""

import argparse  # noqa: F401  (imported for its import cost, like floorfull)
import csv  # noqa: F401
import json
import random  # noqa: F401
from array import array  # noqa: F401
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass  # noqa: F401
from fractions import Fraction


def main() -> None:
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction(k, k * k + 1)
    mixed = 0
    for m in range(1, 120):
        mixed ^= (1789 ** (m * 10) + m) % 1000003
    blob = bytearray(16 * 1024 * 1024)
    for i in range(0, len(blob), 4096):
        blob[i] = 1
    json.dumps([str(total.denominator % 1000), mixed] * 20000)


if __name__ == "__main__":
    main()
