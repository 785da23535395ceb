"""Constructive partition procedures: planted instances, random slicing,
refinement, vertex-class equalization, exact-refinement reconstruction, and
controlled perturbation.

Every choice that a proof leaves arbitrary is made deterministic here:
lowest-index-first for vertex redistribution and label rerouting, sorted
iteration plus seed substreams for the randomized steps, so identical
inputs give bit-identical outputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .addresses import address_space
from .errors import ConstructionError, InputError
from .hypergraph import KGraph, _lex_crossing_sets
from .partitions import PartitionFamily, family_refines
from .regularity import RegularityInstance, check_regular_sampled
from .rng import substream, threshold


# ---------------------------------------------------------------------------
# planted instances

MEASURE_TRIALS = 20  # sampled trials per top polyad when plant measures epsilon


@dataclass(frozen=True)
class PlantSpec:
    instance: RegularityInstance
    n: int
    seed: int
    measure_epsilon: bool = False

    def __post_init__(self):
        if self.n < self.instance.a[0] * self.instance.k:
            raise InputError(
                f"n={self.n} below a1*k={self.instance.a[0] * self.instance.k}"
            )


def _equipartition(ids, parts: int) -> tuple:
    """Consecutive runs of the sorted ids with sizes floor(len/parts) or +1,
    the larger runs first."""
    base, extra = divmod(len(ids), parts)
    out, start = [], 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append(frozenset(ids[start:start + size]))
        start += size
    return tuple(out)


def _lex_polyad_cliques(F: PartitionFamily, x, ell):
    """An iterable of the ell-cliques of F's polyad at x in lexicographic
    order; those of a vertex-class polyad come straight from the
    crossing-set enumerator, so no set of them is built."""
    if x.level_max == 1:
        return _lex_crossing_sets([sorted(c) for c in F.polyad(x).classes], ell)
    return sorted(F.polyad_cliques(x, ell))


def _build_levels(k, n, a, vcs, label, relaxed=False):
    """The family over the vertex classes vcs whose level classes are built
    bottom-up: each level-j polyad x with cliques, in address order, gets
    its classes from label(j, x, sorted cliques) -> {label: sets}.  Returns
    (family, starved), where starved is the first (x, b) with 1 <= b <= a_j
    that such a polyad leaves empty, else None; a starved family is relaxed."""
    level_classes = {}
    starved = None
    for j in range(2, k):
        partial = PartitionFamily(k, n, a, vcs, level_classes)
        level_classes[j] = {}
        for x in address_space(j, j - 1, a):
            pk = list(_lex_polyad_cliques(partial, x, j))
            if not pk:
                continue
            classes = label(j, x, pk)
            for b, sets in classes.items():
                level_classes[j][(x, b)] = frozenset(sets)
            empty = [b for b in range(1, a[j - 1] + 1) if not classes.get(b)]
            if empty and starved is None:
                starved = (x, empty[0])
    relaxed = relaxed or starved is not None
    return PartitionFamily(k, n, a, vcs, level_classes, relaxed=relaxed), starved


def plant(spec: PlantSpec):
    """Generate (H, F, eps_hat) satisfying the instance by construction:
    uniform class labels per polyad, independent d(x)-biased edges per
    top-level polyad.  With measure_epsilon, eps_hat is the worst deviation
    the sampled refuter found over the top-level polyads: a lower bound on
    the least epsilon at which H is regular, not an achieved epsilon."""
    R = spec.instance
    k, a, n = R.k, R.a, spec.n
    vcs = _equipartition(range(n), a[0])

    def uniform_label(j, x, pk):
        rng = substream(spec.seed, "label", j, x.encode())
        buckets = {b: set() for b in range(1, a[j - 1] + 1)}
        for L in pk:
            buckets[rng.randrange(a[j - 1]) + 1].add(L)
        return buckets

    F, _ = _build_levels(k, n, a, vcs, uniform_label)

    edges = set()
    top_addresses = address_space(k, k - 1, a)
    for x in top_addresses:
        t = threshold(R.d(x))
        draw = substream(spec.seed, "edge", x.encode()).random
        edges.update(L for L in _lex_polyad_cliques(F, x, k) if draw() < t)
    H = KGraph(k, n, frozenset(edges))

    eps_hat = None
    if spec.measure_epsilon:
        eps_hat = Fraction(0)
        for x in top_addresses:
            v = check_regular_sampled(
                H, F.polyad(x), R.epsilon, R.d(x), MEASURE_TRIALS,
                substream(spec.seed, "measure", x.encode()).randrange(2**63),
            )
            if v.worst_witness:
                eps_hat = max(eps_hat, v.worst_witness[1])
    return H, F, eps_hat


# ---------------------------------------------------------------------------
# slicing

SLICE_ATTEMPTS = 5  # fresh substreams slice tries before it gives up


def _assign_classes(items, probs, rng):
    """Independent assignment to classes 1..s with the given probabilities;
    class 0 collects the remainder."""
    cuts = [threshold(c) for c in itertools.accumulate(map(Fraction, probs))]
    buckets = {i: set() for i in range(len(probs) + 1)}
    for it in items:
        u = rng.random()
        for i, c in enumerate(cuts, start=1):
            if u < c:
                buckets[i].add(it)
                break
        else:
            buckets[0].add(it)
    return buckets


def slice(Hk: KGraph, Hk1, d, eps, probs, seed, *,
          recheck=True, trials=40):
    """Random partition of H^(k) into classes of relative densities p_i·d.

    Each class i >= 1 is re-verified (3*eps, p_i*d)-regular by the sampled
    checker; failures retry with fresh substreams, SLICE_ATTEMPTS times in all.
    Returns the list [class_0, class_1, ..., class_s].
    """
    probs = [Fraction(p) for p in probs]
    if any(p < 0 for p in probs) or sum(probs) > 1:
        raise InputError(f"probabilities {probs} are not sub-stochastic")
    d, eps = Fraction(d), Fraction(eps)
    base = sorted(Hk.edges)
    last_fail = None
    for attempt in range(SLICE_ATTEMPTS):
        rng = substream(seed, "slice", attempt)
        buckets = _assign_classes(base, probs, rng)
        classes = [
            KGraph(Hk.k, Hk.n, frozenset(buckets[i]))
            for i in range(len(probs) + 1)
        ]
        if not recheck:
            return classes
        ok = True
        for i, p in enumerate(probs, start=1):
            v = check_regular_sampled(
                classes[i], Hk1, 3 * eps, p * d, trials,
                substream(seed, "recheck", attempt, i).randrange(2**63),
            )
            if not v.regular:
                ok, last_fail = False, i
                break
        if ok:
            return classes
    raise ConstructionError(
        "slicing", f"class {last_fail} failed (3eps, p*d)-regularity "
        f"after {SLICE_ATTEMPTS} attempts"
    )


# ---------------------------------------------------------------------------
# refinement

def refine_family(F: PartitionFamily, b, seed) -> PartitionFamily:
    """Refine F to the finer shape b (componentwise a positive multiple of F.a):
    vertex classes split by ascending id; each level class is split into
    equal-probability parts inside each new polyad, keeping label blocks so
    the output refines F exactly."""
    b = tuple(int(x) for x in b)
    if len(b) != len(F.a) or any(bi < ai or bi % ai for ai, bi in zip(F.a, b)):
        raise InputError(f"shape {b} is not componentwise a positive multiple of {F.a}")
    r1 = b[0] // F.a[0]
    vcs = tuple(part for c in F.vertex_classes for part in _equipartition(sorted(c), r1))

    def split_old_class(j, y, pk):
        # cliques of one new polyad share their crossing status in F:
        # either all sat in old classes (split those, keeping label
        # blocks) or none did (fresh sets: slice over all b_j labels;
        # these classes land in the refinement catch-all).
        rj = b[j - 1] // F.a[j - 1]
        by_old = {}
        for L in pk:
            hit = F.containing_class(L)
            by_old.setdefault(None if hit is None else hit[1], []).append(L)
        if None in by_old and len(by_old) > 1:
            raise InputError(
                f"polyad at {y.encode()} mixes covered and uncovered sets"
            )
        classes = {}
        for c, chunk in by_old.items():
            # shuffled round-robin: uniform marginals, near-equal part
            # sizes, so no label starves on small chunks
            substream(seed, "refine", j, y.encode(), c).shuffle(chunk)
            parts, first = (b[j - 1], 1) if c is None else (rj, (c - 1) * rj + 1)
            for pos, L in enumerate(chunk):
                classes.setdefault(first + pos % parts, set()).add(L)
        return classes

    # a chunk smaller than its part count starves a label; possible only at
    # degenerate scales — reported through the relaxed flag, never masked
    return _build_levels(F.k, F.n, b, vcs, split_old_class, F.relaxed)[0]


# ---------------------------------------------------------------------------
# equalization

def equalize(F: PartitionFamily) -> PartitionFamily:
    """Restore vertex-class sizes to the floor/ceil window, rebuilding the
    level classes against the moved vertices.  Surviving j-sets keep their
    class; j-sets whose address changed fall into the residue label a_j."""
    k, n, a = F.k, F.n, F.a
    targets = [(n + i) // a[0] for i in range(a[0])]
    keep = []
    pool = []
    for i, c in enumerate(F.vertex_classes):
        ids = sorted(c)
        m = min(len(ids), targets[i])
        keep.append(ids[:m])
        pool.extend(ids[m:])
    pool.sort()
    p = 0
    for i in range(a[0]):
        need = targets[i] - len(keep[i])
        if need > 0:
            keep[i].extend(pool[p:p + need])
            p += need
    vcs = tuple(frozenset(c) for c in keep)

    def keep_unmoved(j, x, pk):
        buckets = {bb: set() for bb in range(1, a[j - 1] + 1)}
        for L in pk:
            hit = F.containing_class(L)
            buckets[hit[1] if hit is not None and hit[0] == x else a[j - 1]].add(L)
        return buckets

    out, starved = _build_levels(k, n, a, vcs, keep_unmoved, F.relaxed)
    if starved is not None:
        x, bb = starved
        raise ConstructionError(
            "equalize", f"class ({x.encode()},{bb}) emptied by the rebuild"
        )
    return out


# ---------------------------------------------------------------------------
# reconstruction of exact refinement

def reconstruct(O: PartitionFamily, P: PartitionFamily, nu) -> PartitionFamily:
    """Given P nu-refining O, build O' with P refining O' exactly and every
    class within nu^(1/2)·C(n, j) of its O counterpart.

    Per polyad x, the cliques of x are grouped by the P-class holding them,
    and each group takes the O-label b at x with the largest overlap
    |P-class ∩ O-class(x, b)|, lowest b on ties."""
    nu = Fraction(nu)
    measured = family_refines(P, O)
    if measured["max"] > nu:
        raise InputError(
            f"measured refinement distance {measured['max']} exceeds nu={nu}"
        )
    k, n, a = O.k, O.n, O.a
    vcs = [set() for _ in range(a[0])]
    for c in P.vertex_classes:
        overlaps = [len(c & oc) for oc in O.vertex_classes]
        tgt = max(range(a[0]), key=lambda i: (overlaps[i], -i))
        vcs[tgt] |= c

    def best_overlap(j, x, pk):
        groups = {}
        for L in pk:
            hit = P.containing_class(L)
            if hit is not None:
                groups.setdefault(hit, []).append(L)
        classes = {}
        for hit, group in groups.items():
            q = P.level_classes[j][hit]
            b = max(range(1, a[j - 1] + 1), key=lambda bb: (
                len(q & O.level_classes[j].get((x, bb), frozenset())), -bb
            ))
            classes.setdefault(b, set()).update(group)
        return classes

    return _build_levels(k, n, a, vcs, best_overlap, O.relaxed or P.relaxed)[0]


# ---------------------------------------------------------------------------
# controlled perturbation

def perturb_family(F: PartitionFamily, nu, seed) -> PartitionFamily:
    """Move up to nu·C(n, j) j-sets between classes of the same polyad at
    each level (vertices between classes when k = 2).  After the moves at
    level j the family is rebuilt: every other set keeps its old label (and
    each polyad its old label keys) in the polyad it now lies in, so axiom
    (vii) holds at every k; a set that no old class covers stays uncovered."""
    nu = Fraction(nu)
    k, n, a = F.k, F.n, F.a

    if k == 2:
        budget = int(nu * n)
        classes = [set(c) for c in F.vertex_classes]
        rng = substream(seed, "perturb", 1)
        for _ in range(budget):
            src = rng.randrange(a[0])
            if not classes[src]:
                continue
            dst = rng.randrange(a[0] - 1)
            if dst >= src:
                dst += 1
            v = min(classes[src])
            classes[src].discard(v)
            classes[dst].add(v)
        return PartitionFamily(
            k, n, a, tuple(frozenset(c) for c in classes), {},
            relaxed=F.relaxed or any(not c for c in classes),
        )

    for j in range(2, k):
        budget = int(nu * comb(n, j))
        rng = substream(seed, "perturb", j)
        addresses = sorted(
            {x for (x, bb), e in F.level_classes[j].items() if e},
            key=lambda x: x.encode(),
        )
        if not addresses or a[j - 1] < 2:
            continue
        classes = {key: set(e) for key, e in F.level_classes[j].items()}
        for _ in range(budget):
            x = addresses[rng.randrange(len(addresses))]
            src = rng.randrange(a[j - 1]) + 1
            pool = classes.get((x, src))
            if not pool:
                continue
            dst = rng.randrange(a[j - 1] - 1) + 1
            if dst >= src:
                dst += 1
            L = min(pool)
            pool.discard(L)
            classes.setdefault((x, dst), set()).add(L)

        def keep_label(i, x, pk, old=F, j=j, classes=classes):
            labels = range(1, a[i - 1] + 1)
            if i == j:
                return {bb: classes[(x, bb)] for bb in labels if (x, bb) in classes}
            out = {bb: set() for bb in labels if (x, bb) in old.level_classes[i]}
            for L in pk:
                hit = old.containing_class(L)
                if hit is not None:
                    out.setdefault(hit[1], set()).add(L)
            return out
        F = _build_levels(k, n, a, F.vertex_classes, keep_label, F.relaxed)[0]
    return F
