"""Output checks that do not reuse the library's own scoring helpers.

A regularity witness is re-scored here from the raw edge sets: for k = 2
the crossing pairs and edges inside a vertex subset, for k = 3 the
triangles of a sub-2-graph and how many of them are edges.  Every check
raises CheckFailed; the caller counts the op as failed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb


class CheckFailed(Exception):
    """An op's output disagrees with an independent recount."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _pairs_and_edges(edges, classes, subset):
    """(crossing pairs, crossing edges) inside subset for a 2-graph."""
    cls_of = {}
    for i, c in enumerate(classes):
        for v in c:
            cls_of[v] = i
    s = set(subset)
    require(s <= cls_of.keys(), "witness leaves the polyad's vertex classes")
    sizes = [len(s & set(c)) for c in classes]
    pairs = sum(x * y for x, y in itertools.combinations(sizes, 2))
    hits = sum(1 for u, v in edges if u in s and v in s and cls_of[u] != cls_of[v])
    return pairs, hits


def triangles(edges2):
    """All vertex triples whose three pairs are in edges2."""
    adj = {}
    for u, v in edges2:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out = set()
    for u, v in edges2:
        lo, hi = min(u, v), max(u, v)
        for w in adj[lo] & adj[hi]:
            if w > hi:
                out.add((lo, hi, w))
    return out


def check_witness(H, polyad, eps, d, verdict):
    """Re-score verdict.worst_witness exactly and check the verdict.

    H has .k and .edges; polyad is a vertex-class polyad (.classes) for
    k = 2 or a 2-graph (.edges) for k = 3.
    """
    eps, d = Fraction(eps), Fraction(d)
    if verdict.worst_witness is None:
        require(verdict.regular, "refuted verdict without a witness")
        return
    witness, dev = verdict.worst_witness
    if H.k == 2:
        classes = [sorted(c) for c in polyad.classes]
        total = sum(len(a) * len(b) for a, b in itertools.combinations(classes, 2))
        size, hits = _pairs_and_edges(H.edges, classes, witness)
    elif H.k == 3:
        total = len(triangles(polyad.edges))
        tri = triangles(witness)
        size = len(tri)
        hits = sum(1 for t in tri if t in H.edges)
    else:
        raise CheckFailed(f"no independent recount for k={H.k}")
    require(size > 0, "witness spans no candidate sets")
    require(Fraction(size) >= eps * total,
            f"witness of size {size} below the floor eps*{total}")
    recount = abs(Fraction(hits) - d * size) / size
    require(recount == dev, f"witness deviation {dev} != recount {recount}")
    require(verdict.regular == (dev <= eps),
            f"verdict regular={verdict.regular} but deviation {dev} vs eps {eps}")


def check_witness_report(H, R, F, report, *, certified):
    """Every per-address verdict of a check_instance_witness report."""
    require(set(report.per_address) == set(R.d.values),
            "report does not cover every top-level address")
    worst = Fraction(0)
    for x, v in report.per_address.items():
        if certified:
            require(v.certified and v.mode == "exhaustive",
                    f"address {x.encode()} not certified ({v.mode})")
        check_witness(H, F.polyad(x), R.epsilon, R.d(x), v)
        if v.worst_witness:
            worst = max(worst, v.worst_witness[1])
    require(report.worst_deviation == worst, "report worst deviation disagrees")
    refuted = sum(1 for v in report.per_address.values() if not v.regular)
    if refuted:
        require(not report.ok, "refuted address but report ok")
    else:
        require(report.ok == (not report.failures), "report ok disagrees with failures")


def triangle_share(text):
    """Induced-triangle share Pr(K3, H) of a 2-graph given in .hg text."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    k, n = (int(t) for t in lines[0].split())
    require(k == 2, f"expected a 2-graph, header says k={k}")
    edges = [tuple(int(t) for t in ln.split()) for ln in lines[1:]]
    return Fraction(len(triangles(edges)), comb(n, 3)), n


def crossing_share(H, classes, pattern_edges, ell):
    """Share of crossing ell-sets (one vertex per class) inducing a copy of
    the pattern, by brute-force relabelling."""
    want = frozenset(pattern_edges)
    perms = list(itertools.permutations(range(ell)))
    k = H.k
    hits = total = 0
    for chosen in itertools.combinations([sorted(c) for c in classes], ell):
        for S in itertools.product(*chosen):
            S = tuple(sorted(S))
            total += 1
            here = frozenset(
                tuple(i for i, v in enumerate(S) if v in e)
                for e in (T for T in itertools.combinations(S, k) if T in H.edges)
            )
            if len(here) != len(want):
                continue
            if any(
                frozenset(tuple(sorted(p[i] for i in e)) for e in here) == want
                for p in perms
            ):
                hits += 1
    return Fraction(hits, total) if total else Fraction(0)
