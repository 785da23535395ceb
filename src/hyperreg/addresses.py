"""Integer-vector addresses for polyads and partition classes.

An address over the shape vector a = (a_1, ..., a_{k-1}) consists of a
strictly increasing tuple of vertex-class indices (1-based) plus, for each
level j >= 2, one label per j-subset of those indices, listed in
lexicographic order of the index subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import InputError


@lru_cache(maxsize=None)
def _lam_index(x1: tuple, j: int) -> dict:
    return {lam: i for i, lam in enumerate(itertools.combinations(x1, j))}


@dataclass(frozen=True, order=True)
class AddressVector:
    """Element of the (ell, k')-address space.

    x1: strictly increasing ell-tuple of class indices.
    labels: one tuple per level j = 2 .. level_max, each of length
    C(ell, j), ordered lexicographically by index subset.
    """

    x1: tuple
    labels: tuple = ()

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.x1, self.x1[1:])) or (
            self.x1 and self.x1[0] < 1
        ):
            raise InputError(f"x1 must be strictly increasing and >= 1: {self.x1}")
        for off, lv in enumerate(self.labels):
            want = comb(len(self.x1), off + 2)
            if len(lv) != want:
                raise InputError(
                    f"level {off + 2} needs {want} labels, got {len(lv)}"
                )

    @property
    def ell(self) -> int:
        return len(self.x1)

    @property
    def level_max(self) -> int:
        return 1 + len(self.labels)

    def label(self, j: int, lam) -> int:
        """Label of the j-subset `lam` of x1 (given as class indices)."""
        lam = tuple(sorted(lam))
        if j == 1:
            (c,) = lam
            return c
        return self.labels[j - 2][_lam_index(self.x1, j)[lam]]

    def truncate(self, j: int) -> "AddressVector":
        """Drop levels above j (same ground index set)."""
        return AddressVector(self.x1, self.labels[: max(j - 1, 0)])

    def restrict(self, subset, j: int) -> "AddressVector":
        """Restriction to the given index subset, keeping levels <= j."""
        subset = tuple(sorted(subset))
        if not set(subset) <= set(self.x1):
            raise InputError(f"{subset} not a subset of {self.x1}")
        levels = []
        for lv in range(2, min(j, self.level_max) + 1):
            if lv > len(subset):
                break
            levels.append(
                tuple(self.label(lv, lam) for lam in itertools.combinations(subset, lv))
            )
        return AddressVector(subset, tuple(levels))

    def encode(self) -> str:
        parts = [",".join(str(c) for c in self.x1)]
        for lv in self.labels:
            parts.append(",".join(str(b) for b in lv))
        return ";".join(parts)

    @classmethod
    def decode(cls, text: str) -> "AddressVector":
        try:
            parts = [
                tuple(int(x) for x in chunk.split(",")) for chunk in text.split(";")
            ]
        except ValueError as exc:
            raise InputError(f"bad address encoding {text!r}") from exc
        return cls(parts[0], tuple(parts[1:]))


def leq(y: AddressVector, x: AddressVector) -> bool:
    """Restriction order: y is a restriction of x to a subset of indices."""
    if not set(y.x1) <= set(x.x1):
        return False
    for j in range(2, y.level_max + 1):
        if j > x.level_max:
            return False
        for lam in itertools.combinations(y.x1, j):
            if y.label(j, lam) != x.label(j, lam):
                return False
    return True


def restrictions(x: AddressVector, ell_p: int, k_pp: int) -> list:
    """All C(ell, ell') restrictions of x to ell'-subsets, truncated to
    level k''-1."""
    if ell_p > x.ell:
        raise InputError(f"ell'={ell_p} exceeds ell={x.ell}")
    return [
        x.restrict(S, k_pp - 1) for S in itertools.combinations(x.x1, ell_p)
    ]


def address_space(ell: int, j_max: int, a) -> list:
    """Enumerate the full (ell, j_max+1)-address space over shape a.

    j_max is the top label level kept (k'-1 in the usual notation);
    j_max = 1 means bare index tuples.
    """
    a = tuple(a)
    if ell > a[0]:
        return []
    out = []
    level_sizes = [(j, comb(ell, j)) for j in range(2, j_max + 1)]
    for x1 in itertools.combinations(range(1, a[0] + 1), ell):
        pools = [
            itertools.product(range(1, a[j - 1] + 1), repeat=cnt)
            for j, cnt in level_sizes
        ]
        for labels in itertools.product(*pools):
            out.append(AddressVector(x1, tuple(labels)))
    return out


def in_address_space(x: AddressVector, ell: int, j_max: int, a) -> bool:
    """Whether x lies in address_space(ell, j_max, a), without listing it."""
    return x.ell == ell and x.level_max == j_max and all(
        1 <= c <= a[i] for i, row in enumerate((x.x1, *x.labels)) for c in row
    )


def address_space_size(ell: int, j_max: int, a) -> int:
    a = tuple(a)
    total = comb(a[0], ell)
    for j in range(2, j_max + 1):
        total *= a[j - 1] ** comb(ell, j)
    return total
