"""Families of partitions: layered classes keyed by address, polyad and
class operators, refinement relations, axiom checking and the checked
builder.

A family over shape a = (a_1, ..., a_{k-1}) consists of a_1 vertex classes
plus, for each level j in [2, k-1], one j-uniform class per
(address, label) pair.  Classes are keyed directly by (address, label),
which fixes the labelling canonically; addresses whose polyad spans no
clique simply map to the empty class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .addresses import AddressVector, address_space, address_space_size, in_address_space
from .errors import ConstructionError, InputError
from .hypergraph import Complex, KGraph, _class_index, _numbered_lines, cliques, crossing_sets


@dataclass(frozen=True)
class VertexClassGraph:
    """Level-1 polyad: a tuple of vertex classes with crossing-set semantics."""

    classes: tuple

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(frozenset(c) for c in self.classes))

    def vertex_set(self) -> frozenset:
        return frozenset().union(*self.classes) if self.classes else frozenset()

    def cliques(self, j: int) -> set:
        return crossing_sets(self.classes, j)


class PartitionFamily:
    """The layered partition object; immutable after construction."""

    def __init__(self, k, n, a, vertex_classes, level_classes=None, relaxed=False):
        self.k = int(k)
        self.n = int(n)
        self.a = tuple(int(x) for x in a)
        if len(self.a) != self.k - 1:
            raise InputError(f"shape {self.a} does not match k={self.k}")
        self.vertex_classes = tuple(frozenset(c) for c in vertex_classes)
        if len(self.vertex_classes) != self.a[0]:
            raise InputError(
                f"{len(self.vertex_classes)} vertex classes, expected a1={self.a[0]}"
            )
        lc = {}
        for j in range(2, self.k):
            given = (level_classes or {}).get(j, {})
            lc[j] = {
                (x, b): frozenset(tuple(sorted(e)) for e in edges)
                for (x, b), edges in given.items()
            }
        self.level_classes = lc
        self.relaxed = bool(relaxed)

        index = _class_index(self.vertex_classes, self.n)
        self._cls_of = {v: i + 1 for v, i in index.items()}  # 1-based, as addresses
        self._member_index = None
        self._crossing_cache = {}
        self._polyad_clique_cache = {}

    # -- identity -----------------------------------------------------------
    def _key(self):
        return (
            self.k,
            self.n,
            self.a,
            self.vertex_classes,
            tuple(sorted((j, tuple(sorted(d.items()))) for j, d in self.level_classes.items())),
            self.relaxed,
        )

    def __eq__(self, other):
        return isinstance(other, PartitionFamily) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- basic lookups ------------------------------------------------------
    def class_index_of(self, v: int):
        return self._cls_of.get(v)

    def crossing(self, j: int) -> set:
        if j not in self._crossing_cache:
            self._crossing_cache[j] = crossing_sets(self.vertex_classes, j)
        return self._crossing_cache[j]

    def class_addresses(self, j: int) -> list:
        """The full address space keying level-j classes."""
        return address_space(j, j - 1, self.a)

    def polyad_addresses(self, j: int) -> list:
        """The full address space naming level-j polyads."""
        return address_space(j + 1, j, self.a)

    def _index_members(self):
        if self._member_index is None:
            idx = {j: {} for j in range(2, self.k)}
            for j in range(2, self.k):
                for (x, b), edges in self.level_classes[j].items():
                    for e in edges:
                        idx[j][e] = (x, b)
            self._member_index = idx
        return self._member_index

    def containing_class(self, J):
        """(address, label) of the level-|J| class containing the j-set J."""
        J = tuple(sorted(J))
        return self._index_members()[len(J)].get(J)

    # -- the operators ------------------------------------------------------
    def address_of(self, L) -> AddressVector:
        """The address of a crossing ell-set, with labels up to
        min(k-1, ell-1)."""
        L = tuple(sorted(L))
        idx = sorted({self._cls_of.get(v) for v in L})
        if None in idx or len(idx) != len(L):
            raise InputError(f"{L} does not cross the vertex partition")
        x1 = tuple(idx)
        vert_of = {self._cls_of[v]: v for v in L}
        j_top = min(self.k - 1, len(L) - 1)
        levels = []
        for i in range(2, j_top + 1):
            row = []
            for lam in itertools.combinations(x1, i):
                I = tuple(sorted(vert_of[c] for c in lam))
                hit = self.containing_class(I)
                if hit is None:
                    raise InputError(
                        f"{I} is not covered by the level-{i} classes"
                    )
                row.append(hit[1])
            levels.append(tuple(row))
        return AddressVector(x1, tuple(levels))

    def class_lookup(self, x: AddressVector, b: int) -> KGraph:
        """The level-j class at (x, b); empty for clique-empty addresses."""
        j = x.ell
        if j == 1:
            raise InputError("use vertex_class / class_lookup_p1 for level 1")
        if not 1 <= b <= self.a[j - 1]:
            raise InputError(f"label {b} out of range [1, {self.a[j - 1]}]")
        edges = self.level_classes[j].get((x, b), frozenset())
        return KGraph(j, self.n, edges)

    def class_lookup_p1(self, a: int, b: int) -> frozenset:
        """Level-1 convention: (b, b) names V_b, mixed pairs are empty."""
        if a == b:
            return self.vertex_classes[b - 1]
        return frozenset()

    def polyad(self, x: AddressVector):
        """The level-j polyad named by x (j = x.level_max, ell >= j+1)."""
        j = x.level_max
        if x.ell < j + 1:
            raise InputError(f"address {x} does not name a level-{j} polyad")
        if j > self.k - 1:
            raise InputError(f"address {x.encode()} has labels above level {self.k - 1}")
        if x.x1[-1] > self.a[0]:
            raise InputError(
                f"address {x.encode()}: class index {x.x1[-1]} exceeds a1={self.a[0]}"
            )
        for i, row in enumerate(x.labels, start=2):
            bad = [b for b in row if not 1 <= b <= self.a[i - 1]]
            if bad:
                raise InputError(
                    f"address {x.encode()}: level-{i} label {bad[0]} outside "
                    f"[1, a{i}={self.a[i - 1]}]"
                )
        if j == 1:
            return VertexClassGraph(tuple(self.vertex_classes[c - 1] for c in x.x1))
        edges = set()
        for S in itertools.combinations(x.x1, j):
            z = x.restrict(S, j - 1)
            b = x.label(j, S)
            edges |= self.level_classes[j].get((z, b), frozenset())
        return KGraph(j, self.n, frozenset(edges))

    def polyad_cliques(self, x: AddressVector, ell: int) -> set:
        key = (x, ell)
        if key not in self._polyad_clique_cache:
            p = self.polyad(x)
            if isinstance(p, VertexClassGraph):
                out = p.cliques(ell)
            else:
                out = cliques(p, ell)
            self._polyad_clique_cache[key] = out
        return self._polyad_clique_cache[key]

    def unique_polyad_address(self, L, j: int) -> AddressVector:
        """The unique level-j polyad address whose clique set contains L."""
        if j > self.k - 1:
            raise InputError(f"level {j} exceeds k-1={self.k - 1}")
        if len(L) < j + 1:
            raise InputError("polyad addresses need ell >= j+1")
        return self.address_of(L).truncate(j)

    def polyad_complex(self, x: AddressVector):
        """The complex of polyads below x; see the Complex invariants.  Layer
        i is the level-i polyad of x's truncation: the classes x names on
        the i-subsets of x1."""
        classes = tuple(self.vertex_classes[c - 1] for c in x.x1)
        layers = {i: self.polyad(x.truncate(i)) for i in range(2, x.level_max + 1)}
        return Complex(classes, layers)

    def class_sizes_balanced(self):
        """Measured lambda: max deviation of |V_i| from n/a1, as a Fraction."""
        target = Fraction(self.n, self.a[0])
        if target == 0:
            return Fraction(0)
        return max(
            abs(Fraction(len(c)) - target) / target for c in self.vertex_classes
        )


# ---------------------------------------------------------------------------
# refinement relations

@dataclass
class RefinementReport:
    refines_exactly: bool
    nu: Fraction
    witness_map: dict

    def __bool__(self):
        return self.refines_exactly


def nu_refines(parts_a, ground_a, parts_b, ground_b) -> RefinementReport:
    """Minimal nu with parts_a nu-refining parts_b.

    The target of each part can be chosen independently (the witness f is
    unconstrained), so greedily picking the maximum-overlap target among
    parts_b plus the catch-all A \\ B is optimal.
    """
    ground_a = frozenset(ground_a)
    ground_b = frozenset(ground_b)
    if not ground_b <= ground_a:
        raise InputError("nu-refinement needs ground B inside ground A")
    catch_all = ground_a - ground_b
    targets = [frozenset(p) for p in parts_b]
    moved = 0
    witness = {}
    for i, part in enumerate(parts_a):
        part = frozenset(part)
        best_idx, best_hit = None, len(part & catch_all)
        for t_i, t in enumerate(targets):
            hit = len(part & t)
            if hit > best_hit:
                best_idx, best_hit = t_i, hit
        witness[i] = best_idx  # None encodes the catch-all A \ B
        moved += len(part) - best_hit
    nu = Fraction(moved, len(ground_a)) if ground_a else Fraction(0)
    return RefinementReport(nu == 0, nu, witness)


def family_refines(F: PartitionFamily, G: PartitionFamily) -> dict:
    """Level-wise nu-refinement of F against G; key 'max' holds the worst."""
    if F.k != G.k:
        raise InputError("families have different uniformity")
    reports = {}
    ground_a1 = frozenset(range(F.n))
    reports[1] = nu_refines(
        F.vertex_classes, ground_a1, G.vertex_classes, frozenset(range(G.n))
    )
    for j in range(2, F.k):
        parts_a = [e for e in F.level_classes[j].values() if e]
        parts_b = [e for e in G.level_classes[j].values() if e]
        reports[j] = nu_refines(parts_a, F.crossing(j), parts_b, G.crossing(j))
    reports["max"] = max(reports[j].nu for j in reports)
    return reports


# ---------------------------------------------------------------------------
# axiom checking

@dataclass
class AxiomReport:
    ok: bool
    failures: list = field(default_factory=list)

    @property
    def first_violation(self):
        return self.failures[0] if self.failures else None


def _polyad_faults(F: PartitionFamily, j: int, x: AddressVector, strict: bool):
    """(builder code, label, axiom message) for each fault of the level-j
    classes at polyad x: a class leaving x's cliques, an empty class on a
    nonempty polyad when strict, then cliques no class covers (label None)."""
    pk = F.polyad_cliques(x, j)
    covered = set()
    for b in range(1, F.a[j - 1] + 1):
        cls = F.level_classes[j].get((x, b), frozenset())
        if not cls <= pk:
            yield "FP2", b, f"(vii): class ({x.encode()},{b}) leaves its polyad cliques"
        covered |= cls
        if strict and pk and not cls:
            yield "FP1", b, f"(i): empty class ({x.encode()},{b}) on a nonempty polyad"
    if covered != pk:
        yield "FP2", None, f"(vii): classes at {x.encode()} do not cover the polyad cliques"


def check_family_axioms(F: PartitionFamily) -> AxiomReport:
    """Verify the defining axioms; returns every violation found."""
    fails = []
    strict = not F.relaxed

    if strict and F.a[0] < F.k:
        fails.append(f"(i): a1={F.a[0]} below k={F.k}")
    if strict and any(not c for c in F.vertex_classes):
        fails.append("(i): empty vertex class")
    if sum(len(c) for c in F.vertex_classes) != F.n:
        fails.append("(i): vertex classes do not cover V")

    T = max(F.a)
    for j in range(2, F.k):
        space = F.class_addresses(j)
        if address_space_size(j + 1, j, F.a) > T ** (2 ** (j + 1) - 1):
            fails.append(f"(viii): address-space bound violated at level {j}")
        nonempty = sum(1 for e in F.level_classes[j].values() if e)
        if nonempty > T ** (2**j):
            fails.append(f"(viii): class-count bound violated at level {j}")

        # (v): the level-j classes partition the crossing j-sets
        crossing = F.crossing(j)
        union, total = set(), 0
        for (x, b), edges in F.level_classes[j].items():
            union |= edges
            total += len(edges)
            if not 1 <= b <= F.a[j - 1]:
                fails.append(f"(v): label {b} out of range at level {j}")
        if union != crossing or total != len(crossing):
            fails.append(f"(v): level-{j} classes do not partition the crossing sets")

        # (i)+(vii): each polyad's classes are nonempty, inside and cover its cliques
        for x in space:
            fails.extend(message for _, _, message in _polyad_faults(F, j, x, strict))

    # (iv)+(vi): address-based polyads decompose the crossing (j+1)-sets
    for j in range(1, F.k - 1):
        crossing = F.crossing(j + 1)
        seen = {}
        for x in F.polyad_addresses(j):
            for L in F.polyad_cliques(x, j + 1):
                if L in seen and seen[L] != x:
                    fails.append(
                        f"(vi): {L} covered by two level-{j} polyad addresses"
                    )
                seen[L] = x
        if set(seen) != crossing:
            fails.append(f"(vi): level-{j} polyad cliques miss some crossing sets")
        for L in crossing:
            if L in seen and seen[L] != F.address_of(L).truncate(j):
                fails.append(f"(iv): polyad of {L} disagrees with its address")
                break

    return AxiomReport(not fails, fails)


# ---------------------------------------------------------------------------
# the checked builder

def build_family(
    vertex_classes,
    candidate_classes,
    candidate_polyads=None,
    *,
    a=None,
    n=None,
    relaxed=False,
) -> PartitionFamily:
    """Assemble a family from candidate classes, verifying the builder
    conditions (FP1)-(FP3) rather than assuming them.

    candidate_classes: {j: {(address, b): edge set}} for j in [2, k-1].
    candidate_polyads, when given, is {j: {address: edge set}} for the
    level-j polyads (addresses in the (j+1, j)-space); omitted levels are
    derived by the union identity, which makes (FP3) hold by construction.
    """
    vertex_classes = tuple(frozenset(c) for c in vertex_classes)
    if a is None:
        raise InputError("shape vector a is required")
    a = tuple(a)
    k = len(a) + 1
    if n is None:
        n = sum(len(c) for c in vertex_classes)
    if not relaxed:
        for i, c in enumerate(vertex_classes, start=1):
            if not c:
                raise ConstructionError("FP1", f"vertex class {i} is empty")

    F = PartitionFamily(k, n, a, vertex_classes, candidate_classes, relaxed=relaxed)

    for j in range(2, k):
        for x in F.class_addresses(j):
            if candidate_polyads and j - 1 in candidate_polyads:
                want = frozenset(
                    tuple(sorted(e)) for e in candidate_polyads[j - 1].get(x, ())
                )
                have = F.polyad(x)
                have_edges = (
                    frozenset((v,) for v in have.vertex_set())
                    if isinstance(have, VertexClassGraph)
                    else have.edges
                )
                if want != have_edges:
                    raise ConstructionError(
                        "FP3", f"polyad at {x.encode()} differs from the union identity"
                    )
            for code, _, message in _polyad_faults(F, j, x, not relaxed):
                raise ConstructionError(code, message)
            # the classes cover the cliques, so a larger size sum means overlap
            sizes = sum(len(F.level_classes[j].get((x, b), ())) for b in range(1, a[j - 1] + 1))
            if sizes != len(F.polyad_cliques(x, j)):
                raise ConstructionError("FP2", f"classes at {x.encode()} overlap")
    return F


# ---------------------------------------------------------------------------
# serialization

def family_to_text(F: PartitionFamily) -> str:
    header = f"{F.k} {F.n} " + " ".join(str(x) for x in F.a)
    if F.relaxed:
        header += " relaxed"
    lines = [header]
    for i, c in enumerate(F.vertex_classes, start=1):
        lines.append(f"1 {i} : " + " ".join(str(v) for v in sorted(c)))
    for j in range(2, F.k):
        for (x, b), edges in sorted(
            F.level_classes[j].items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            enc = " ".join(",".join(str(v) for v in e) for e in sorted(edges))
            lines.append(f"{j} {x.encode()} {b} : {enc}")
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> PartitionFamily:
    lines = _numbered_lines(text)
    if not lines:
        raise InputError("empty family file")
    (head_idx, head_ln), *body = lines
    head = head_ln.split()
    relaxed = head and head[-1] == "relaxed"
    if relaxed:
        head = head[:-1]
    try:
        k, n = int(head[0]), int(head[1])
        a = tuple(int(x) for x in head[2:])
    except (ValueError, IndexError) as exc:
        raise InputError(f"bad header line {head_idx}: {head_ln!r}") from exc
    if k < 2 or n < 0 or len(a) != k - 1 or min(a) < 1:
        raise InputError(
            f"bad header line {head_idx}: {head_ln!r} needs k >= 2, n >= 0 "
            "and k - 1 shape entries >= 1"
        )
    vertex_classes = {}
    level_classes = {j: {} for j in range(2, k)}
    line_of = {}
    for idx, ln in body:
        left, _, right = ln.partition(" : ")
        try:
            toks = left.split()
            j = int(toks[0])
            if j == 1:
                into, key = vertex_classes, int(toks[1])
                value = frozenset(int(v) for v in right.split())
            else:
                into = level_classes.get(j)
                key = (AddressVector.decode(toks[1]), int(toks[2]))
                value = frozenset(
                    tuple(int(v) for v in chunk.split(",")) for chunk in right.split()
                )
        except (ValueError, IndexError, InputError) as exc:
            raise InputError(f"bad family line {idx}: {ln!r}") from exc
        if into is None:
            raise InputError(f"bad family line {idx}: level {j} outside 1..{k - 1}")
        if j == 1 and not 1 <= key <= a[0]:
            raise InputError(f"bad family line {idx}: class {key} outside 1..{a[0]}")
        if j > 1:
            x, b = key
            # x1 holds j class indices; labels fill levels 2..j-1, each in 1..a_i
            if not in_address_space(x, j, j - 1, a):
                raise InputError(f"bad family line {idx}: {toks[1]} names no level-{j} class")
            if not 1 <= b <= a[j - 1]:
                raise InputError(f"bad family line {idx}: label {b} outside 1..{a[j - 1]}")
            for e in sorted(value):
                if len(set(e)) != j or min(e) < 0 or max(e) >= n:
                    raise InputError(f"bad family line {idx}: {e} is no {j}-set of [0, {n})")
        if key in into:
            raise InputError(f"bad family line {idx}: repeats class {left.strip()!r}")
        if j == 1:
            for v in sorted(value):
                if not 0 <= v < n:
                    raise InputError(f"bad family line {idx}: vertex {v} out of range [0, {n})")
                if any(v in c for c in vertex_classes.values()):
                    raise InputError(f"bad family line {idx}: vertex {v} is in another class")
        into[key] = value
        line_of[j, key] = idx
    vertex_classes = [vertex_classes.get(i, frozenset()) for i in range(1, a[0] + 1)]
    F = PartitionFamily(k, n, a, vertex_classes, level_classes, relaxed=relaxed)
    # a set outside its polyad's cliques is a fault of its own line; cliques
    # that no class covers name no line and are left to check_family_axioms
    bad = [
        (line_of[j, (x, b)], message)
        for j in range(2, k)
        for x in {x for x, _ in level_classes[j]}
        for _, b, message in _polyad_faults(F, j, x, strict=False)
        if b is not None
    ]
    if bad:
        raise InputError("bad family line {}: {}".format(*min(bad)))
    return F
