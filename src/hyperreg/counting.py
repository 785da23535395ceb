"""Induced-copy prediction formulas and the verification harnesses that
compare them against exact counts.

ic_sigma multiplies, over the top-level restrictions of an address, the
prescribed density (or its complement) according to whether the embedded
pattern has the corresponding edge, discounted by the label probability of
the lower levels; ic averages over embeddings and addresses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod

from .addresses import AddressVector, address_space
from .errors import CapabilityError, InputError
from .hypergraph import (
    KGraph,
    _class_index,
    _induced_hits,
    _require_distinct,
    _triple_census,
    automorphism_count,
    cliques,
    count_induced,
    crossing_sets,
)
from .partitions import PartitionFamily
from .regularity import DensityFunction, RegularityInstance

SIGMA_CLASS_CAP = 12  # per-class ground size for the naive copy counter


@lru_cache(maxsize=None)
def _aut_count(k: int, n: int, edges: frozenset) -> int:
    return automorphism_count(KGraph(k, n, edges))


def cached_automorphism_count(F: KGraph) -> int:
    if F.n > 8:
        raise CapabilityError(f"automorphism search capped at 8 vertices, got {F.n}")
    return _aut_count(F.k, F.n, F.edges)


@dataclass
class ICBreakdown:
    per_sigma: dict  # (address, sigma) -> Fraction
    per_address: dict  # address -> Fraction
    total: Fraction
    automorphism_count: int


def _label_discount(ell: int, a) -> Fraction:
    k = len(a) + 1
    out = Fraction(1)
    for j in range(2, k):
        out /= Fraction(a[j - 1]) ** comb(ell, j)
    return out


def ic_sigma(F: KGraph, d: DensityFunction, x: AddressVector, sigma) -> Fraction:
    """One embedding's predicted weight at one address.

    sigma maps V(F) = [0, ell) onto the entries of x.x1 (a tuple: position
    i holds the class index of pattern vertex i).
    """
    ell = F.n
    k = d.k
    if F.k != k:
        raise InputError(f"pattern k={F.k} differs from density k={k}")
    sigma = tuple(sigma)
    if sorted(sigma) != sorted(x.x1):
        raise InputError(f"sigma {sigma} is not a bijection onto {x.x1}")
    inv = {c: v for v, c in enumerate(sigma)}
    out = _label_discount(ell, d.a)
    for y1 in itertools.combinations(x.x1, k):
        y = x.restrict(y1, k - 1)
        pattern_edge = tuple(sorted(inv[c] for c in y1)) in F.edges
        out *= d(y) if pattern_edge else 1 - d(y)
        if out == 0:
            return out
    return out


def ic(F: KGraph, d: DensityFunction) -> ICBreakdown:
    """Average of ic_sigma over embeddings (divided by the automorphism
    count) and over the C(a1, ell) choices of class sets.

    Each density is read as an integer numerator over D, the lcm of d's
    denominators, so an embedding's weight is an integer product over the
    common denominator D^C(ell, k); each entry divides once.  ic_sigma is
    the Fraction oracle it must match."""
    ell, k = F.n, d.k
    if F.k != k:
        raise InputError(f"pattern k={F.k} differs from density k={k}")
    if ell > d.a[0]:
        raise InputError(f"pattern order {ell} exceeds a1={d.a[0]}: no crossing sets")
    aut = cached_automorphism_count(F)
    D = lcm(*(v.denominator for v in d.values.values()))
    slots = list(itertools.combinations(range(ell), k))  # positions in x.x1
    scale = _label_discount(ell, d.a) / D ** len(slots)
    # per embedding, whether each slot holds a pattern edge; permutations
    # of positions run in the order of itertools.permutations(x.x1)
    embeddings = []
    for perm in itertools.permutations(range(ell)):
        vertex_at = {p: v for v, p in enumerate(perm)}
        edge = [tuple(sorted(vertex_at[p] for p in T)) in F.edges for T in slots]
        embeddings.append((perm, edge))
    per_sigma = {}
    per_address = {}
    grand = 0
    for x in address_space(ell, k - 1, d.a):
        nums = []
        for y1 in itertools.combinations(x.x1, k):
            v = d(x.restrict(y1, k - 1))
            nums.append(v.numerator * (D // v.denominator))
        acc = 0
        for perm, edge in embeddings:
            term = prod(v if hit else D - v for v, hit in zip(nums, edge))
            per_sigma[(x, tuple(x.x1[p] for p in perm))] = scale * term
            acc += term
        per_address[x] = scale * acc / aut
        grand += acc
    total = scale * grand / (aut * comb(d.a[0], ell))
    return ICBreakdown(per_sigma, per_address, total, aut)


def ic_family(family, d: DensityFunction) -> Fraction:
    return sum((ic(F, d).total for F in _require_distinct(family)), Fraction(0))


# ---------------------------------------------------------------------------
# exact sigma-induced counting on partite complexes

def count_sigma_induced(F: KGraph, C, sigma) -> int:
    """Copies of F with pattern vertex i placed in class sigma[i], induced
    in the top layer and supported by the layers below.  Naive product scan,
    capped per class."""
    ell = F.n
    classes = [sorted(C.vertex_classes[i]) for i in sigma]
    if len(set(sigma)) != ell:
        raise InputError(f"sigma {sigma} repeats a class")
    for c in classes:
        if len(c) > SIGMA_CLASS_CAP:
            raise CapabilityError(
                f"class of size {len(c)} exceeds the naive cap {SIGMA_CLASS_CAP}"
            )
    k = C.k
    top = C.layers[k]
    count = 0
    for combo in itertools.product(*classes):
        ok = True
        for j in range(2, k):
            layer = C.layers[j]
            for sub in itertools.combinations(range(ell), j):
                if tuple(sorted(combo[i] for i in sub)) not in layer.edges:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for sub in itertools.combinations(range(ell), k):
            present = tuple(sorted(combo[i] for i in sub)) in top.edges
            if present != (sub in F.edges):
                ok = False
                break
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# verification harnesses

@dataclass
class CheckReport:
    ok: bool
    lines: list = field(default_factory=list)
    ratio: Fraction = None

    def __bool__(self):
        return self.ok


def _report_line(metric, value, bound, ok) -> str:
    return f"{metric} {value} {bound} {'pass' if ok else 'fail'}"


def verify_counting_lemma(C, d_vec, gamma, p_top=None) -> CheckReport:
    """Compare the crossing clique count of the top layer against the
    product prediction (1 ± gamma) · prod p_Lambda · prod d_j^C(ell,j) ·
    prod m_i, where d_vec maps each layer j to its density d_j.  p_top, when
    given, maps each k-subset of class indices to its own top-layer density."""
    gamma = Fraction(gamma)
    k = C.k
    ell = len(C.vertex_classes)
    sizes = [len(c) for c in C.vertex_classes]
    pred = Fraction(1)
    for m in sizes:
        pred *= m
    dmap = {j: Fraction(v) for j, v in d_vec.items()}
    for lam in itertools.combinations(range(ell), k):
        pred *= Fraction(p_top[lam]) if p_top else dmap[k]
    for j in range(2, k):
        pred *= dmap[j] ** comb(ell, j)
    # an ell-clique of a crossing top layer has one vertex in each class
    actual = len(cliques(C.layers[k], ell))
    if pred == 0:
        ok = actual == 0
        return CheckReport(ok, [_report_line("clique_ratio", actual, 0, ok)], None)
    ratio = Fraction(actual) / pred
    ok = abs(ratio - 1) <= gamma
    return CheckReport(
        ok, [_report_line("clique_ratio", float(ratio), f"1±{float(gamma)}", ok)], ratio
    )


CROSSING_SCAN_CAP = 600_000


def _crossing_triple_census(H: KGraph, classes):
    """Induced-triple counts (by edge count 0..3) over crossing triples of a
    2-graph; on three vertices the isomorphism class is the edge count."""
    adj = H.adjacency_masks()
    masks = [sum(1 << v for v in c) for c in classes]
    total = incid = wedges = tri = 0
    for ia, ib, ic_ in itertools.combinations(range(len(classes)), 3):
        A, B, C = (sorted(classes[i]) for i in (ia, ib, ic_))
        ma, mb, mc = masks[ia], masks[ib], masks[ic_]
        for a_v in A:
            m = adj[a_v] & mb
            while m:
                low = m & (-m)
                b_v = low.bit_length() - 1
                m ^= low
                tri += (adj[a_v] & adj[b_v] & mc).bit_count()
        for center, left, right in ((A, mb, mc), (B, ma, mc), (C, ma, mb)):
            for v in center:
                wedges += (adj[v] & left).bit_count() * (adj[v] & right).bit_count()
        for src, dst_mask, wt in (
            (A, mb, len(C)), (A, mc, len(B)), (B, mc, len(A))
        ):
            incid += sum((adj[v] & dst_mask).bit_count() for v in src) * wt
        total += len(A) * len(B) * len(C)
    return _triple_census(total, incid, wedges, tri)


def count_crossing_induced(F: KGraph, H: KGraph, vertex_classes):
    """(crossing-induced copies of F in H, number of crossing ell-sets)."""
    if F.k != H.k:
        raise InputError("pattern and host uniformity differ")
    ell = F.n
    classes = [frozenset(c) for c in vertex_classes]
    total = sum(map(prod, itertools.combinations([len(c) for c in classes], ell)))
    if total == 0:
        return 0, 0
    _class_index(classes, H.n)
    if H.k == 2 and ell == 3:
        census = _crossing_triple_census(H, classes)
        return census[len(F.edges)], total
    if total > CROSSING_SCAN_CAP:
        raise CapabilityError(
            f"{total} crossing sets exceed the scan cap {CROSSING_SCAN_CAP}"
        )
    return _induced_hits(F, H, crossing_sets(classes, ell)), total


def verify_ic_vs_pr(
    H: KGraph,
    R: RegularityInstance,
    F_witness: PartitionFamily,
    F: KGraph,
    gamma,
) -> CheckReport:
    """Crossing-induced copy share of F in H against IC(F, d), within gamma.

    The prediction speaks about copies crossing the witness's vertex
    partition; the non-crossing mass (a constant fraction at small a1) is
    reported separately as slack rather than folded into the gap."""
    gamma = Fraction(gamma)
    if F_witness.a != R.a:
        raise InputError("witness shape differs from instance shape")
    hits, total = count_crossing_induced(F, H, F_witness.vertex_classes)
    share = Fraction(hits, total) if total else Fraction(0)
    predicted = ic(F, R.d).total
    gap = abs(share - predicted)
    ok = gap <= gamma
    raw = count_induced(F, H)
    slack = Fraction(total, comb(H.n, F.n)) if H.n >= F.n else Fraction(0)
    return CheckReport(
        ok,
        [
            _report_line("ic_vs_pr_gap", float(gap), float(gamma), ok),
            _report_line("raw_pr", float(raw), "-", True),
            _report_line("crossing_fraction", float(slack), "-", True),
        ],
        gap,
    )
