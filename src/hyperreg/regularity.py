"""Relative density, (eps, d)-regularity checking, equitable families,
regularity instances, and the density-function metric.

All verdict arithmetic is exact rational; the sampled checker is one-sided
(it can refute regularity with a concrete witness but never certifies it).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .addresses import AddressVector, address_space, address_space_size, in_address_space
from .errors import CapabilityError, InputError
from .hypergraph import KGraph, _class_index, _numbered_lines, cliques
from .partitions import PartitionFamily, VertexClassGraph
from .rng import substream, threshold

DEFAULT_EXHAUSTIVE_CAP = 24
RETENTION_DENSITIES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


@dataclass
class RegularityVerdict:
    regular: bool
    measured_density: Fraction
    worst_witness: object  # (witness, deviation) or None
    mode: str
    certified: bool

    def __bool__(self):
        return self.regular


def relative_density(Hk: KGraph, Hk1) -> Fraction:
    """|H^(k) ∩ K_k(H^(k-1))| / |K_k(H^(k-1))|, 0 on empty clique sets."""
    verdict = _scan(Hk, Hk1, _ground(Hk1), 1, 0, lambda *_: (), "density", True)
    return verdict.measured_density


# ---------------------------------------------------------------------------
# the scan: candidates Q are bitmasks over a sorted ground set, where
# ground[i] sits at bit len(ground) - 1 - i.  A scorer returns score(mask)
# and an exhaustive source of candidates (mask, size, hits) that, given the
# least size over the floor, reaches the worst deviation.

def _ground(Hk1) -> list:
    """Vertices of a vertex-class polyad, else the sub-edges of a (k-1)-graph."""
    if isinstance(Hk1, VertexClassGraph):
        return sorted(Hk1.vertex_set())
    return sorted(Hk1.edges)


def _pair_scorer(Hk: KGraph, classes, ground):
    """k = 2 over two vertex classes A and B: (crossing pairs, edges)
    inside a vertex mask, and the smaller-class source."""
    if Hk.k != 2:
        raise InputError("a vertex-class polyad scores 2-graphs only")
    cls = _class_index(classes)
    if len(classes) != 2:
        raise InputError(f"a vertex-class polyad has two classes, not {len(classes)}")
    top = len(ground) - 1
    pos = {v: top - i for i, v in enumerate(ground)}  # vertex -> bit position
    A, B = (sum(1 << pos[v] for v in c) for c in classes)
    nbrs = [0] * len(ground)  # the other-class neighbours of each bit
    for u, v in Hk.edges:
        if u in cls and v in cls and cls[u] != cls[v]:
            nbrs[pos[u]] |= 1 << pos[v]
            nbrs[pos[v]] |= 1 << pos[u]

    def score(mask):
        edges, rest = 0, mask & A
        while rest:
            low = rest & -rest
            rest ^= low
            edges += (nbrs[low.bit_length() - 1] & mask).bit_count()
        return (mask & A).bit_count() * (mask & B).bit_count(), edges

    def extremes(least):
        # each nonempty S of the smaller class, and the T of t other-class
        # vertices with the most and with the fewest neighbours in S, for
        # the least t with |S|·t >= least, the floor.  With S and t fixed, a
        # top-t or bottom-t degree sum reaches the worst deviation over all
        # masks.  A longer prefix adds no candidate that _scan keeps: the
        # mean degree of a top prefix cannot rise with t, nor that of a
        # bottom prefix fall, so one of the two t prefixes deviates further,
        # or as far and is a subset of it (README, "Regularity checking").
        # The stable sorts keep degree ties in ascending bits, so each prefix
        # is the smallest mask with its sum, which _scan keeps
        small, large = sorted((A, B), key=int.bit_count)
        bits = [1 << b for b in range(len(ground)) if large >> b & 1]
        adjs = [nbrs[b] for b in range(len(ground)) if large >> b & 1]
        S = small
        while S:
            size = S.bit_count()
            t = max(1, -(-least // size))
            if t <= len(bits):
                degree = [(S & adj).bit_count() for adj in adjs].__getitem__
                for reverse in (True, False):
                    prefix = sorted(range(len(bits)), key=degree, reverse=reverse)[:t]
                    yield (S | sum(map(bits.__getitem__, prefix)), size * t,
                           sum(map(degree, prefix)))
            S = (S - 1) & small

    return score, extremes


def _clique_scorer(Hk: KGraph, Hk1: KGraph, ground):
    """k >= 3: (|K_k(Q)|, edges of Hk among them) for the sub-graph Q, and
    a walk over every nonempty mask as the exhaustive source.

    K_k(Hk1) is listed once, each clique one bit of an int bitset; inc[b]
    holds the cliques that contain the sub-edge at bit b.  Q keeps the
    cliques that contain no sub-edge outside Q.  The walk goes in reflected
    Gray-code order (Gray 1953; Knuth, TAOCP 7.2.1.1): step i flips the
    lowest set bit of i.  It counts, for each clique, its sub-edges outside
    Q, so a flip touches only the cliques of the flipped sub-edge."""
    top = len(ground) - 1
    pos = {g: top - i for i, g in enumerate(ground)}  # sub-edge -> bit position
    inc = [0] * len(ground)
    listed = list(cliques(Hk1, Hk.k))
    every = edge_bits = 0
    for c, kset in enumerate(listed):
        bit = 1 << c
        every |= bit
        if kset in Hk.edges:
            edge_bits |= bit
        for sub in itertools.combinations(kset, Hk1.k):
            inc[pos[sub]] |= bit
    full = (1 << len(ground)) - 1

    def score(mask):
        out, rest = 0, full & ~mask
        while rest:
            low = rest & -rest
            rest ^= low
            out |= inc[low.bit_length() - 1]
        inside = every & ~out
        return inside.bit_count(), (inside & edge_bits).bit_count()

    def walk(least):  # every mask, whatever the floor
        flip = {1 << b: [] for b in range(len(ground))}  # the cliques at each bit
        for c, kset in enumerate(listed):
            for sub in itertools.combinations(kset, Hk1.k):
                flip[1 << pos[sub]].append(c)
        is_edge = [kset in Hk.edges for kset in listed]
        missing = [Hk.k] * len(listed)  # a k-clique has k sub-edges
        mask = inside = hits = 0
        for i in range(1, 1 << len(ground)):
            low = i & -i
            mask ^= low
            if mask & low:
                for c in flip[low]:
                    missing[c] -= 1
                    if not missing[c]:
                        inside += 1
                        hits += is_edge[c]
            else:
                for c in flip[low]:
                    if not missing[c]:
                        inside -= 1
                        hits -= is_edge[c]
                    missing[c] += 1
            yield mask, inside, hits

    return score, walk


def _retained(size: int, trials: int, seed: int):
    """Independent retention at each density; p = 1 keeps the full ground
    set, which is scored once however many trials there are."""
    for p in RETENTION_DENSITIES:
        if p == 1:
            yield (1 << size) - 1
            continue
        t = threshold(p)
        for trial in range(trials):
            draw = substream(seed, "retain", str(p), trial).random
            # the i-th draw decides ground[i], the (size-1-i)-th bit; the
            # leading "0" keeps an empty ground set a valid literal
            yield int("0" + "".join("1" if draw() < t else "0" for _ in range(size)), 2)


def _scan(Hk, Hk1, ground, eps, d, source, mode, certified) -> RegularityVerdict:
    """Score the candidates (mask, size, hits) that
    source(score, exhaustive) yields over the floor eps*|K_k(Hk1)|; the
    worst is of maximal deviation |hits - d*size| / size.  Among equal
    deviations a certified scan keeps the smallest mask, in whatever order
    its source yields them; a sampled scan keeps the first it meets.  The
    full ground set is scored once: it gives K_k(Hk1), the measured density
    and the floor."""
    eps, d = Fraction(eps), Fraction(d)
    if isinstance(Hk1, VertexClassGraph):
        score, exhaustive = _pair_scorer(Hk, Hk1.classes, ground)
    else:
        score, exhaustive = _clique_scorer(Hk, Hk1, ground)
    full = (1 << len(ground)) - 1
    full_score = score(full)
    total, total_hits = full_score
    if not total:
        return RegularityVerdict(True, Fraction(0), None, mode, certified)
    dens = Fraction(total_hits, total)
    floor, eps_den = eps.numerator * total, eps.denominator
    d_num, d_den = d.numerator, d.denominator
    worst_num, worst_den, worst_mask = -1, 1, None  # below every deviation

    def scored(mask):
        return full_score if mask == full else score(mask)

    # the exhaustive source is told the least size over the floor
    for mask, size, hits in source(scored, lambda: exhaustive(-(-floor // eps_den))):
        if not size or size * eps_den < floor:
            continue
        num = abs(hits * d_den - d_num * size)
        den = size * d_den
        ahead, behind = num * worst_den, worst_num * den
        if ahead > behind or ahead == behind and certified and mask < worst_mask:
            worst_num, worst_den, worst_mask = num, den, mask
    if worst_mask is None:
        return RegularityVerdict(True, dens, None, mode, certified)
    top = len(ground) - 1
    picked = [g for i, g in enumerate(ground) if worst_mask >> (top - i) & 1]
    witness = tuple(picked) if isinstance(Hk1, VertexClassGraph) else frozenset(picked)
    dev = Fraction(worst_num, worst_den)
    return RegularityVerdict(dev <= eps, dens, (witness, dev), mode, certified)


def check_regular_exhaustive(
    Hk: KGraph, Hk1, eps, d, exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> RegularityVerdict:
    """Scan every sub-(k-1)-graph Q; exact and certified.

    For k = 2 the quantifier runs over vertex subsets of the class
    structure, with K_2(Q) the crossing pairs inside the subset.
    """
    ground = _ground(Hk1)
    if len(ground) > exhaustive_cap:
        what = "ground vertices" if isinstance(Hk1, VertexClassGraph) else "sub-edges"
        raise CapabilityError(
            f"{len(ground)} {what} exceed the exhaustive cap {exhaustive_cap}; "
            "use check_regular_sampled"
        )
    return _scan(
        Hk, Hk1, ground, eps, d, lambda _, exhaustive: exhaustive(), "exhaustive", True
    )


def check_regular_sampled(
    Hk: KGraph, Hk1, eps, d, trials: int, seed: int
) -> RegularityVerdict:
    """Randomized refuter: draws Q by independent retention at several
    densities; a returned witness is always a genuine violation, but a
    regular verdict is uncertified."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    ground = _ground(Hk1)
    masks = _retained(len(ground), trials, seed)
    return _scan(
        Hk, Hk1, ground, eps, d, lambda score, _: ((m, *score(m)) for m in masks),
        f"sampled({trials},{seed})", False,
    )


def check_regular(Hk, Hk1, eps, d, *, trials=40, seed=0, exhaustive_cap=DEFAULT_EXHAUSTIVE_CAP):
    """Exhaustive when the quantifier fits under the cap, sampled otherwise;
    trials must be >= 1 on both routes."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    size = len(Hk1.vertex_set() if isinstance(Hk1, VertexClassGraph) else Hk1.edges)
    if size <= exhaustive_cap:
        return check_regular_exhaustive(Hk, Hk1, eps, d, exhaustive_cap)
    return check_regular_sampled(Hk, Hk1, eps, d, trials, seed)


# ---------------------------------------------------------------------------
# complexes and equitable families

def _layer_pair(C, j: int, lam):
    """The (layer j, layer j-1) pair of the complex restricted to the class
    index subset lam (0-based indices into C.vertex_classes)."""
    classes = [C.vertex_classes[i] for i in lam]
    allowed = frozenset().union(*classes)
    top = KGraph(
        j,
        C.layers[j].n,
        frozenset(e for e in C.layers[j].edges if allowed.issuperset(e)),
    )
    if j == 2:
        below = VertexClassGraph(tuple(classes))
    else:
        below = KGraph(
            j - 1,
            C.layers[j - 1].n,
            frozenset(e for e in C.layers[j - 1].edges if allowed.issuperset(e)),
        )
    return top, below


def check_complex_regular(
    C, eps, d_vec, *, trials=40, seed=0, exhaustive_cap=DEFAULT_EXHAUSTIVE_CAP
):
    """Layer-by-layer regularity, per j-subset of classes for multipartite
    layers, against d_vec: one density per layer, in ascending layer order.
    Returns {(j, lam): verdict} plus the overall verdict under 'ok'."""
    eps = Fraction(eps)
    ell = len(C.vertex_classes)
    out = {}
    for pos, j in enumerate(sorted(C.layers)):
        if j < 2:
            continue
        d = Fraction(d_vec[pos])
        for lam in itertools.combinations(range(ell), j):
            top, below = _layer_pair(C, j, lam)
            v = check_regular(
                top, below, eps, d,
                trials=trials, seed=substream(seed, "layer", j, lam).randrange(2**63),
                exhaustive_cap=exhaustive_cap,
            )
            out[(j, lam)] = v
    out["ok"] = all(v.regular for k2, v in out.items() if k2 != "ok")
    return out


@dataclass
class EquitabilityReport:
    ok: bool
    failures: list = field(default_factory=list)
    measured_lambda: Fraction = Fraction(0)

    def __bool__(self):
        return self.ok


def check_equitable_family(
    F: PartitionFamily, eta, eps, lam, *, trials=40, seed=0,
    exhaustive_cap=DEFAULT_EXHAUSTIVE_CAP,
) -> EquitabilityReport:
    """(eta, eps, lambda)-equitability: class-count floor, size window, and
    per-address polyad-complex regularity at densities (1/a_2, ..)."""
    eta, eps, lam = Fraction(eta), Fraction(eps), Fraction(lam)
    fails = []
    if Fraction(F.a[0]) < 1 / eta:
        fails.append(f"(i): a1={F.a[0]} below 1/eta={1 / eta}")
    target = Fraction(F.n, F.a[0])
    measured = F.class_sizes_balanced()
    for i, c in enumerate(F.vertex_classes, start=1):
        if abs(Fraction(len(c)) - target) > lam * target:
            fails.append(f"(ii): |V_{i}|={len(c)} outside (1±{lam})·n/a1")
    if F.k >= 3:
        d_vec = [Fraction(1, F.a[j - 1]) for j in range(2, F.k)]
        for x in address_space(F.k, F.k - 1, F.a):
            C = F.polyad_complex(x)
            res = check_complex_regular(
                C, eps, d_vec, trials=trials,
                seed=substream(seed, "addr", x.encode()).randrange(2**63),
                exhaustive_cap=exhaustive_cap,
            )
            if not res["ok"]:
                fails.append(f"(iii): complex at {x.encode()} not regular")
    return EquitabilityReport(not fails, fails, measured)


# ---------------------------------------------------------------------------
# density functions and regularity instances

class DensityFunction:
    """Total map from the (k, k-1)-address space over a to [0,1] rationals."""

    def __init__(self, a, values):
        self.a = tuple(int(x) for x in a)
        self.k = len(self.a) + 1
        space = address_space(self.k, self.k - 1, self.a)
        vals = {}
        for x in space:
            if x not in values:
                raise InputError(f"density function misses address {x.encode()}")
            v = Fraction(values[x])
            if not 0 <= v <= 1:
                raise InputError(f"density {v} at {x.encode()} outside [0,1]")
            vals[x] = v
        if len(values) != len(space):
            extra = set(values) - set(space)
            raise InputError(f"density function has foreign addresses: {extra}")
        self.values = vals

    @classmethod
    def constant(cls, a, value) -> "DensityFunction":
        a = tuple(a)
        k = len(a) + 1
        return cls(a, {x: Fraction(value) for x in address_space(k, k - 1, a)})

    def __call__(self, x: AddressVector) -> Fraction:
        try:
            return self.values[x]
        except KeyError:
            raise InputError(f"address {x.encode()} outside the domain") from None

    def __eq__(self, other):
        return (
            isinstance(other, DensityFunction)
            and self.a == other.a
            and self.values == other.values
        )

    def items(self):
        return sorted(self.values.items())


def density_distance(d1: DensityFunction, d2: DensityFunction) -> Fraction:
    """k! · prod a_i^{-C(k,i)} · sum |d1 - d2|; always <= 1."""
    if d1.a != d2.a:
        raise InputError("density functions live over different shapes")
    k = d1.k
    scale = Fraction(factorial(k))
    for i in range(1, k):
        scale /= Fraction(d1.a[i - 1]) ** comb(k, i)
    return scale * sum(
        abs(v - d2.values[x]) for x, v in d1.values.items()
    )


class RegularityInstance:
    """A target shape a with per-address densities and a tolerance epsilon."""

    def __init__(self, epsilon, a, d: DensityFunction):
        self.epsilon = Fraction(epsilon)
        self.a = tuple(int(x) for x in a)
        self.k = len(self.a) + 1
        self.d = d
        if not 0 < self.epsilon <= 1:
            raise InputError(f"epsilon {self.epsilon} outside (0, 1]")
        if self.a[0] < self.k:
            raise InputError(f"a1={self.a[0]} below k={self.k}")
        if d.a != self.a:
            raise InputError("density function shape differs from instance shape")

    def __eq__(self, other):
        return (
            isinstance(other, RegularityInstance)
            and (self.epsilon, self.a) == (other.epsilon, other.a)
            and self.d == other.d
        )


# ---------------------------------------------------------------------------
# instance witnesses

@dataclass
class WitnessReport:
    ok: bool
    failures: list = field(default_factory=list)
    worst_deviation: Fraction = Fraction(0)
    per_address: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok


def _size_window_ok(F: PartitionFamily):
    lo = F.n // F.a[0]
    return all(len(c) in (lo, lo + 1) for c in F.vertex_classes)


def check_instance_witness(
    H: KGraph, R: RegularityInstance, F: PartitionFamily, *,
    trials=40, seed=0, exhaustive_cap=DEFAULT_EXHAUSTIVE_CAP,
) -> WitnessReport:
    """Does F witness that H satisfies R?  Equitability at eta = 1/a1 with
    the floor/ceil size window, plus (epsilon, d(x))-regularity of H with
    respect to every top-level polyad."""
    if F.a != R.a:
        raise InputError(f"family shape {F.a} differs from instance shape {R.a}")
    if H.k != R.k:
        raise InputError(f"hypergraph k={H.k} differs from instance k={R.k}")
    if H.n != F.n:
        raise InputError(f"hypergraph n={H.n} differs from family n={F.n}")
    fails = []
    if not _size_window_ok(F):
        sizes = sorted(len(c) for c in F.vertex_classes)
        fails.append(f"equitability: class sizes {sizes} leave the floor/ceil window")
    if F.k >= 3:
        eq = check_equitable_family(
            F, Fraction(1, F.a[0]), R.epsilon, Fraction(1),
            trials=trials, seed=substream(seed, "equit").randrange(2**63),
            exhaustive_cap=exhaustive_cap,
        )
        fails.extend(f for f in eq.failures if not f.startswith("(ii)"))
    per_address = {}
    worst = Fraction(0)
    for x in address_space(F.k, F.k - 1, F.a):
        v = check_regular(
            H, F.polyad(x), R.epsilon, R.d(x),
            trials=trials, seed=substream(seed, "poly", x.encode()).randrange(2**63),
            exhaustive_cap=exhaustive_cap,
        )
        per_address[x] = v
        if v.worst_witness:
            worst = max(worst, v.worst_witness[1])
        if not v.regular:
            fails.append(f"regularity: address {x.encode()} refuted at d={R.d(x)}")
    return WitnessReport(not fails, fails, worst, per_address)


# ---------------------------------------------------------------------------
# serialization

def instance_to_text(R: RegularityInstance) -> str:
    head = f"{R.epsilon} " + " ".join(str(x) for x in R.a)
    lines = [head]
    for x, v in R.d.items():
        lines.append(f"{x.encode()} {v}")
    return "\n".join(lines) + "\n"


def instance_from_text(text: str) -> RegularityInstance:
    lines = _numbered_lines(text)
    if not lines:
        raise InputError("empty instance file")
    (head_idx, head_ln), *body = lines
    head = head_ln.split()
    try:
        epsilon = Fraction(head[0])
        a = tuple(int(x) for x in head[1:])
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        raise InputError(f"bad header line {head_idx}: {head_ln!r}") from exc
    k = len(a) + 1
    if not a or min(a) < 1 or a[0] < k or not 0 < epsilon <= 1:
        raise InputError(
            f"bad header line {head_idx}: {head_ln!r} needs epsilon in (0, 1] "
            "and a shape a >= 1 with a1 >= k"
        )
    values = {}
    for idx, ln in body:
        try:
            enc, val = ln.split()
            x, v = AddressVector.decode(enc), Fraction(val)
        except (ValueError, InputError, ZeroDivisionError) as exc:
            raise InputError(f"bad density line {idx}: {ln!r}") from exc
        if not in_address_space(x, k, k - 1, a) or not 0 <= v <= 1:
            raise InputError(
                f"bad density line {idx}: {ln!r} needs an address of shape {a} "
                "and a density in [0, 1]"
            )
        if x in values:
            raise InputError(f"bad density line {idx}: repeats address {enc}")
        values[x] = v
    size = address_space_size(k, k - 1, a)
    if size != len(values):
        raise InputError(
            f"bad header line {head_idx}: shape {a} has {size} addresses, "
            f"the file gives {len(values)} densities"
        )
    return RegularityInstance(epsilon, a, DensityFunction(a, values))
