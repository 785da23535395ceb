"""Deterministic seed substreams.

Every randomized procedure in the package takes an explicit 64-bit master
seed and derives independent child streams keyed by structured labels
(level, address, trial index, ...).  Derivation goes through SHA-256 so the
result does not depend on dict iteration order or on how many other streams
were drawn first.
"""

import hashlib
import math
import random


def derive_seed(master: int, *labels) -> int:
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for lab in labels:
        h.update(b"|")
        h.update(repr(lab).encode())
    return int.from_bytes(h.digest()[:8], "big")


def substream(master: int, *labels) -> random.Random:
    return random.Random(derive_seed(master, *labels))


def threshold(p) -> float:
    """The float t with random() < t exactly when random() < p, for p in [0, 1].

    random() returns m/2**53 for an integer m in [0, 2**53), and
    m/2**53 < p  <=>  m < p*2**53  <=>  m < ceil(p*2**53), because m is an
    integer.  So t = ceil(p*2**53)/2**53; its numerator is an integer
    <= 2**53 over a power of two, which a float holds exactly.  p may be a
    Fraction: the product and the ceiling are computed exactly.
    """
    return math.ceil(p * 2**53) / 2**53
