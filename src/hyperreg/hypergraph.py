"""Uniform hypergraphs: cliques, induced substructures, induced-copy counting.

A k-graph lives on the dense vertex set [0, n).  Edges are stored as
strictly sorted k-tuples; instances are immutable after construction so
they can be shared freely across concurrent workers.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import itemgetter, lt

from .errors import CapabilityError, InputError

Edge = tuple  # strictly sorted tuple of vertex ids

DEFAULT_PATTERN_CAP = 8  # largest pattern order for isomorphism scans
INDUCED_SCAN_CAP = 600_000  # vertex sets per induced-copy scan, 3-6 µs each
# graphs times relabellings that all_iso_classes canonicalises: (5, 2) and
# (5, 3) take about 0.5 s, and (6, 2) would take minutes
ISO_CLASS_WORK_CAP = 2**10 * factorial(5)


def _canon_edge(e) -> Edge:
    t = tuple(sorted(e))
    if len(set(t)) != len(t):
        raise InputError(f"edge {e} has repeated vertices")
    return t


def _is_canonical(edges, k: int, n: int) -> bool:
    """Whether every edge is a strictly increasing k-tuple inside [0, n),
    checked a column at a time."""
    try:
        if {*map(type, edges)} != {tuple} or {*map(len, edges)} != {k}:
            return not edges  # only an empty set passes without tuples
        # itemgetter columns, not zip(*edges): that would allocate one
        # GC-tracked iterator per edge and wake the cyclic collector
        col = list(map(itemgetter(0), edges))
        if min(col) < 0:
            return False
        for i in range(1, k):
            nxt = list(map(itemgetter(i), edges))
            if not all(map(lt, col, nxt)):
                return False
            col = nxt
        return max(col) < n
    except TypeError:  # incomparable vertices: the per-edge loop decides
        return False


@dataclass(frozen=True)
class KGraph:
    """An immutable k-uniform hypergraph on vertex set [0, n)."""

    k: int
    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.k < 1:
            raise InputError(f"uniformity must be >= 1, got {self.k}")
        if self.n < 0:
            raise InputError(f"vertex count must be >= 0, got {self.n}")
        edges = self.edges
        if type(edges) is not frozenset:
            edges = list(edges)  # a generator is read once
        if not _is_canonical(edges, self.k, self.n):
            # a strictly increasing tuple is already canonical
            edges = frozenset(
                e if type(e) is tuple and all(map(lt, e, e[1:])) else _canon_edge(e)
                for e in edges
            )
            for e in edges:
                if len(e) != self.k:
                    raise InputError(f"edge {e} has size {len(e)}, expected {self.k}")
                if e[0] < 0 or e[-1] >= self.n:
                    raise InputError(f"edge {e} out of vertex range [0, {self.n})")
        object.__setattr__(self, "edges", frozenset(edges))

    @classmethod
    def complete(cls, k: int, n: int) -> "KGraph":
        return cls(k, n, frozenset(itertools.combinations(range(n), k)))

    @classmethod
    def empty(cls, k: int, n: int) -> "KGraph":
        return cls(k, n, frozenset())

    def __len__(self):
        return len(self.edges)

    def __contains__(self, e):
        return tuple(sorted(e)) in self.edges

    def vertices(self):
        return range(self.n)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def adjacency_masks(self) -> tuple:
        """For k=2 only: per-vertex neighbour bitmasks (int bitsets), built on
        the first call and cached outside the fields, so eq, hash and repr
        ignore them."""
        if self.k != 2:
            raise InputError("adjacency_masks is a 2-graph helper")
        if "_adj" not in self.__dict__:
            adj = [0] * self.n
            for u, v in self.edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            object.__setattr__(self, "_adj", tuple(adj))
        return self._adj


def _class_index(classes, n=None) -> dict:
    """Map each vertex to the position of its class in the sequence
    `classes`.  With n given, every vertex of every class must lie in
    [0, n); that is checked first, and disjointness after it."""
    if n is not None:
        for v in itertools.chain.from_iterable(classes):
            if not 0 <= v < n:
                raise InputError(f"vertex {v} out of range [0, {n})")
    index = {v: i for i, c in enumerate(classes) for v in c}
    if len(index) != sum(map(len, classes)):
        raise InputError("vertex classes are not disjoint")
    return index


def _lex_crossing_sets(classes, j: int):
    """Yield the crossing j-sets of disjoint vertex classes, each given as an
    ascending list, as ascending tuples in lexicographic order."""
    if j == 1:
        yield from zip(sorted(itertools.chain.from_iterable(classes)))
        return
    for u, i in sorted((v, i) for i, c in enumerate(classes) for v in c):
        others = classes[:i] + classes[i + 1:]
        tails = [t for c in others if (t := c[bisect_right(c, u):])]  # later vertices
        if len(tails) < j - 1:
            continue
        if j > 2:
            yield from map((u,).__add__, _lex_crossing_sets(tails, j - 1))
        elif len(tails) == 1:
            yield from zip(itertools.repeat(u), tails[0])
        else:
            yield from zip(itertools.repeat(u), sorted(itertools.chain.from_iterable(tails)))


def crossing_sets(classes, j: int) -> set:
    """All j-sets meeting each vertex class at most once.

    `classes` is a sequence of disjoint vertex collections.  Returns the
    empty set rather than raising when j exceeds the number of classes.
    """
    if j < 1:
        raise InputError(f"j must be >= 1, got {j}")
    classes = [sorted(c) for c in classes if c]
    _class_index(classes)
    return set(_lex_crossing_sets(classes, j))


def cliques_naive(H: KGraph, ell: int) -> set:
    """Reference oracle: scan every ell-subset of the vertex set."""
    if ell < H.k:
        raise InputError(f"ell={ell} below uniformity {H.k}")
    out = set()
    for S in itertools.combinations(range(H.n), ell):
        if all(sub in H.edges for sub in itertools.combinations(S, H.k)):
            out.add(S)
    return out


def cliques(H: KGraph, ell: int) -> set:
    """All ell-sets whose k-subsets are all edges of H.

    Bit-parallel: candidate extensions are tracked as integer bitsets and
    narrowed by precomputed (k-1)-shadow extension masks.  Must agree with
    cliques_naive on every instance (gated in the test suite).
    """
    k = H.k
    if ell < k:
        raise InputError(f"ell={ell} below uniformity {k}")
    if ell == k:
        return set(H.edges)
    if k == 1:
        verts = sorted(v for (v,) in H.edges)
        return set(itertools.combinations(verts, ell))

    # ext[T] for a (k-1)-tuple T: bitmask of v with T+{v} an edge
    ext: dict = {}
    for e in H.edges:
        for i in range(k):
            T = e[:i] + e[i + 1:]
            ext[T] = ext.get(T, 0) | (1 << e[i])

    full = (1 << H.n) - 1
    out = set()

    def extend(stack, cand):
        c = cand
        while c:
            v = c & (-c)
            u = v.bit_length() - 1
            c ^= v
            new_cand = cand & ~((1 << (u + 1)) - 1)
            if len(stack) + 1 >= k - 1:
                for T in itertools.combinations(stack, k - 2):
                    new_cand &= ext.get(T + (u,), 0)  # stack ascends below u
                    if not new_cand:
                        break
            if len(stack) + 1 == ell:
                out.add(tuple(stack + [u]))
            elif new_cand:
                extend(stack + [u], new_cand)

    extend([], full)
    return out


def induce(H: KGraph, Q) -> KGraph:
    """H[Q] with vertices relabelled to [0, |Q|) by ascending original id."""
    Q = sorted(set(Q))
    for v in Q:
        if v < 0 or v >= H.n:
            raise InputError(f"vertex {v} out of range [0, {H.n})")
    relabel = {v: i for i, v in enumerate(Q)}
    qset = set(Q)
    new_edges = frozenset(
        tuple(relabel[v] for v in e) for e in H.edges if qset.issuperset(e)
    )
    return KGraph(H.k, len(Q), new_edges)


def sym_diff_distance(G: KGraph, H: KGraph) -> int:
    if G.n != H.n or G.k != H.k:
        raise InputError("distance needs equal vertex count and uniformity")
    return len(G.edges ^ H.edges)


# ---------------------------------------------------------------------------
# induced-subgraph isomorphism and Pr(F, H)

def _degree_multiset(H: KGraph):
    return tuple(sorted(H.degree(v) for v in range(H.n)))


def _isomorphisms(F: KGraph, G: KGraph):
    """Yield each bijection perm of [0, n) taking every edge of F to an edge
    of G, pruned by vertex degree; with equal edge counts these are exactly
    the isomorphisms F -> G."""
    fdeg = [F.degree(v) for v in range(F.n)]
    gdeg = [G.degree(v) for v in range(G.n)]
    for perm in itertools.permutations(range(G.n)):
        if any(fdeg[i] != gdeg[perm[i]] for i in range(F.n)):
            continue
        if all(tuple(sorted(perm[v] for v in e)) in G.edges for e in F.edges):
            yield perm


def are_induced_isomorphic(F: KGraph, G: KGraph) -> bool:
    """Exhaustive bijection search with degree-sequence pruning."""
    if F.k != G.k or F.n != G.n or len(F.edges) != len(G.edges):
        return False
    if _degree_multiset(F) != _degree_multiset(G):
        return False
    return next(_isomorphisms(F, G), None) is not None


def automorphism_count(F: KGraph) -> int:
    return sum(1 for _ in _isomorphisms(F, F))


@lru_cache(maxsize=None)
def _canonical_edges(k: int, n: int, edges: frozenset) -> frozenset:
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = frozenset(tuple(sorted(perm[v] for v in e)) for e in edges)
        key = tuple(sorted(mapped))
        if best is None or key < best:
            best = key
    return frozenset(best)


def canonical_form(F: KGraph) -> KGraph:
    """Lexicographically minimal relabelling; usable as an iso-class key."""
    return KGraph(F.k, F.n, _canonical_edges(F.k, F.n, F.edges))


def all_iso_classes(ell: int, k: int) -> list:
    """One representative per isomorphism class of k-graphs on ell vertices."""
    # above DEFAULT_PATTERN_CAP the work cap refuses anyway; testing that
    # first keeps 2^C(ell, k) from growing huge
    if ell > DEFAULT_PATTERN_CAP or 2 ** comb(ell, k) * factorial(ell) > ISO_CLASS_WORK_CAP:
        raise CapabilityError(
            f"iso classes on {ell} vertices for k={k}: 2^{comb(ell, k)} graphs "
            f"times {ell}! relabellings exceed the cap 2^10 times 5!"
        )
    slots = list(itertools.combinations(range(ell), k))
    seen = {}
    for r in range(len(slots) + 1):
        for chosen in itertools.combinations(slots, r):
            G = KGraph(k, ell, frozenset(chosen))
            key = tuple(sorted(canonical_form(G).edges))
            if key not in seen:
                seen[key] = G
    return list(seen.values())


def _triple_census(total, incidences, wedges, triangles):
    """(c0, c1, c2, c3), the triples of a 2-graph spanning exactly i edges,
    from the number of triples, of (edge, third vertex) incidences, of
    wedges and of triangles.  Linear, so sums of inputs give sums of
    censuses."""
    c2 = wedges - 3 * triangles
    c1 = incidences - 2 * c2 - 3 * triangles
    return total - c1 - c2 - triangles, c1, c2, triangles


def _count_induced_triples_2graph(H: KGraph):
    """Exact triple census of a 2-graph via wedge/triangle identities.

    Returns (c0, c1, c2, c3): triples spanning exactly i edges.
    """
    adj = H.adjacency_masks()
    n = H.n
    triangles = 0
    for u, v in H.edges:
        triangles += (adj[u] & adj[v]).bit_count()
    triangles //= 3
    wedges = sum(comb(adj[v].bit_count(), 2) for v in range(n))
    return _triple_census(comb(n, 3), len(H.edges) * (n - 2), wedges, triangles)


def _induced_hits(F: KGraph, H: KGraph, vertex_sets, total: int) -> int:
    """How many of vertex_sets, an iterable of `total` ascending tuples,
    induce a copy of F in H; refuses more than INDUCED_SCAN_CAP sets.

    H[S] is read from the C(ell, k) slots of S, relabelled by ascending
    vertex id as in induce, and matched by canonical form."""
    if total > INDUCED_SCAN_CAP:
        raise CapabilityError(
            f"{total} vertex sets exceed the induced-copy scan cap {INDUCED_SCAN_CAP}"
        )
    k, ell = F.k, F.n
    slots = list(itertools.combinations(range(ell), k))
    target = _canonical_edges(k, ell, F.edges)
    hits = 0
    for S in vertex_sets:
        sub = frozenset(T for T in slots if tuple(S[i] for i in T) in H.edges)
        if len(sub) == len(F.edges) and _canonical_edges(k, ell, sub) == target:
            hits += 1
    return hits


def count_induced(F: KGraph, H: KGraph, allow_large: bool = False) -> Fraction:
    """Pr(F, H): induced copies of F in H divided by C(n, ell)."""
    ell = F.n
    if F.k != H.k:
        raise InputError("pattern and host uniformity differ")
    if ell > H.n:
        raise InputError(f"pattern on {ell} vertices exceeds host on {H.n}")
    if ell > DEFAULT_PATTERN_CAP and not allow_large:
        raise CapabilityError(
            f"pattern order {ell} exceeds the cap {DEFAULT_PATTERN_CAP}; "
            "pass allow_large=True to override"
        )
    total = comb(H.n, ell)
    if total == 0:
        return Fraction(0)

    if H.k == 2 and ell == 3:
        # each edge count 0..3 names exactly one class of 3-vertex 2-graphs
        return Fraction(_count_induced_triples_2graph(H)[len(F.edges)], total)
    hits = _induced_hits(F, H, itertools.combinations(range(H.n), ell), total)
    return Fraction(hits, total)


def _require_distinct(family) -> list:
    """The family as a list; raises if two members are isomorphic."""
    members = list(family)
    for A, B in itertools.combinations(members, 2):
        if are_induced_isomorphic(A, B):
            raise InputError("family contains isomorphic duplicates")
    return members


def count_induced_family(family, H: KGraph, allow_large: bool = False) -> Fraction:
    """Pr(F, H) summed over a family of pairwise non-isomorphic patterns."""
    members = _require_distinct(family)
    return sum(
        (count_induced(F, H, allow_large=allow_large) for F in members),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# complexes

@dataclass(frozen=True)
class Complex:
    """A stack of underlying layers: a vertex partition plus j-graphs.

    `vertex_classes` plays the role of layer 1; `layers[j]` for j >= 2 is a
    j-uniform KGraph whose edges cross the vertex partition and whose
    (j-1)-shadows sit inside the layer below.
    """

    vertex_classes: tuple  # tuple of frozensets
    layers: dict  # j -> KGraph, for j = 2..k

    def __post_init__(self):
        object.__setattr__(
            self, "vertex_classes", tuple(frozenset(c) for c in self.vertex_classes)
        )
        object.__setattr__(self, "layers", dict(self.layers))
        self.validate()

    @property
    def k(self) -> int:
        return max(self.layers) if self.layers else 1

    def layer(self, j: int) -> KGraph:
        return self.layers[j]

    def validate(self):
        cls_of = _class_index(self.vertex_classes)
        for j in sorted(self.layers):
            Hj = self.layers[j]
            if Hj.k != j:
                raise InputError(f"layer {j} has uniformity {Hj.k}")
            for e in Hj.edges:
                hit = {cls_of.get(v) for v in e}
                if len(hit) != j or None in hit:
                    raise InputError(f"layer-{j} edge {e} does not cross the partition")
                if j > 2:
                    below = self.layers[j - 1]
                    for sub in itertools.combinations(e, j - 1):
                        if sub not in below.edges:
                            raise InputError(
                                f"layer-{j} edge {e} not underlain at {sub}"
                            )


# ---------------------------------------------------------------------------
# text serialization: header "k n", one edge per line

def kgraph_to_text(H: KGraph) -> str:
    lines = [f"{H.k} {H.n}"]
    lines.extend(" ".join(map(str, e)) for e in sorted(H.edges))
    return "\n".join(lines) + "\n"


def _numbered_lines(text: str) -> list:
    """(line number, line) for each non-blank line, numbered from 1 by
    position in the file."""
    return [(idx, ln) for idx, ln in enumerate(text.splitlines(), start=1) if ln.strip()]


def kgraph_from_text(text: str) -> KGraph:
    lines = _numbered_lines(text)
    if not lines:
        raise InputError("empty hypergraph file")
    (head_idx, head), *body = lines
    try:
        k, n = (int(x) for x in head.split())
        KGraph(k, n)
    except (ValueError, InputError) as exc:
        raise InputError(f"bad header line {head_idx}: {head!r}") from exc
    edges = []
    for idx, ln in body:
        try:
            edges.append(tuple(map(int, ln.split())))
        except ValueError as exc:
            raise InputError(f"bad edge at line {idx}: {ln!r}") from exc
    try:
        return KGraph(k, n, frozenset(edges))
    except InputError:
        # only a failed parse pays for finding the offending line
        for (idx, ln), e in zip(body, edges):
            try:
                KGraph(k, n, (e,))
            except InputError as exc:
                raise InputError(f"bad edge at line {idx}: {ln!r}: {exc}") from exc
        raise
