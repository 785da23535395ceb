import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperreg import (
    DensityFunction,
    InputError,
    KGraph,
    RegularityInstance,
    check_complex_regular,
    check_equitable_family,
    check_instance_witness,
    check_regular_exhaustive,
    check_regular_sampled,
    cliques,
    density_distance,
    instance_from_text,
    instance_to_text,
    relative_density,
)
from hyperreg.addresses import AddressVector, address_space
from hyperreg.errors import CapabilityError
from hyperreg.partitions import PartitionFamily, VertexClassGraph
from hyperreg.regularity import RegularityVerdict
from hyperreg.rng import substream

from conftest import planted, random_kgraph


def half_graph(m=4):
    """Bipartite half-graph: i ~ j iff i < j - m; a canonical irregular pair."""
    A = frozenset(range(m))
    B = frozenset(range(m, 2 * m))
    edges = frozenset((i, j) for i in range(m) for j in range(m, 2 * m) if i < j - m)
    return KGraph(2, 2 * m, edges), VertexClassGraph((A, B))


class TestRelativeDensity:
    def test_full_is_one(self):
        _, below = half_graph(3)
        full = KGraph(2, 6, frozenset((i, j) for i in range(3) for j in range(3, 6)))
        assert relative_density(full, below) == 1

    def test_empty_clique_set_is_zero(self):
        below = KGraph(2, 5, frozenset())  # no triangles below
        assert relative_density(KGraph(3, 5), below) == 0

    def test_half_of_four(self):
        below = VertexClassGraph((frozenset({0, 1}), frozenset({2, 3})))
        H = KGraph(2, 4, {(0, 2), (1, 3)})
        assert relative_density(H, below) == Fraction(1, 2)

    def test_k3_over_vertex_classes_rejected(self):
        # K_3 over three vertex classes is not a pair count; the scan refuses it
        below = VertexClassGraph((frozenset({0}), frozenset({1}), frozenset({2})))
        with pytest.raises(InputError, match="scores 2-graphs only"):
            relative_density(KGraph(3, 3, {(0, 1, 2)}), below)


class TestExhaustive:
    def test_full_graph_regular(self):
        _, below = half_graph(3)
        full = KGraph(2, 6, frozenset((i, j) for i in range(3) for j in range(3, 6)))
        v = check_regular_exhaustive(full, below, Fraction(1, 10), 1)
        assert v.regular and v.certified

    def test_empty_clique_set_vacuous(self):
        below = KGraph(2, 6, frozenset())
        v = check_regular_exhaustive(KGraph(3, 6), below, Fraction(1, 100), 1)
        assert v.regular and v.worst_witness is None

    def test_half_graph_refuted_with_witness(self):
        H, below = half_graph(4)
        v = check_regular_exhaustive(H, below, Fraction(1, 10), Fraction(1, 2))
        assert not v.regular
        assert v.worst_witness[1] > Fraction(1, 10)

    def test_cap_enforced(self):
        H, below = half_graph(14)
        with pytest.raises(CapabilityError):
            check_regular_exhaustive(H, below, Fraction(1, 10), Fraction(1, 2))

    def test_k3_complete_regular(self):
        below = KGraph(2, 6, frozenset(itertools.combinations(range(6), 2)))
        top = KGraph(3, 6, frozenset(itertools.combinations(range(6), 3)))
        v = check_regular_exhaustive(
            top, KGraph(2, 6, frozenset(list(below.edges)[:8])), Fraction(1, 4), 1
        )
        assert v.regular


def test_overlapping_classes_rejected():
    H = KGraph(2, 4, frozenset({(0, 2), (1, 3)}))
    below = VertexClassGraph((frozenset({0, 1}), frozenset({1, 2, 3})))
    eps, d = Fraction(1, 4), Fraction(1, 2)
    with pytest.raises(InputError, match="vertex classes are not disjoint"):
        check_regular_exhaustive(H, below, eps, d)
    with pytest.raises(InputError, match="vertex classes are not disjoint"):
        check_regular_sampled(H, below, eps, d, 3, 0)


def test_three_class_polyad_rejected():
    # a level-1 address of three classes names a polyad PartitionFamily
    # builds, but a vertex-class polyad is a pair
    H, F, _ = planted((4,), 24, 0)
    below = F.polyad(AddressVector.decode("1,2,3"))
    eps, d = Fraction(1, 4), Fraction(1, 2)
    for check in (
        lambda: check_regular_exhaustive(H, below, eps, d),
        lambda: check_regular_sampled(H, below, eps, d, 3, 0),
        lambda: relative_density(H, below),
    ):
        with pytest.raises(InputError, match="has two classes, not 3"):
            check()


class TestSampled:
    def test_density_mismatch_refuted_by_full_ground(self):
        _, below = half_graph(3)
        full = KGraph(2, 6, frozenset((i, j) for i in range(3) for j in range(3, 6)))
        v = check_regular_sampled(full, below, Fraction(1, 10), Fraction(1, 2), 4, 1)
        assert not v.regular and not v.certified

    def test_never_certifies(self):
        _, below = half_graph(3)
        full = KGraph(2, 6, frozenset((i, j) for i in range(3) for j in range(3, 6)))
        v = check_regular_sampled(full, below, Fraction(1, 10), 1, 4, 1)
        assert v.regular and not v.certified

    def test_witness_reverifies_exhaustively(self):
        # one-sided soundness: a sampled refutation is a genuine violation
        H, below = half_graph(4)
        eps, d = Fraction(1, 10), Fraction(1, 2)
        v = check_regular_sampled(H, below, eps, d, 50, 3)
        assert not v.regular
        kept, dev = v.worst_witness
        ex = check_regular_exhaustive(H, below, eps, d)
        assert dev > eps
        assert dev <= ex.worst_witness[1]

    def test_determinism(self):
        H, below = half_graph(4)
        a = check_regular_sampled(H, below, Fraction(1, 10), Fraction(1, 2), 20, 9)
        b = check_regular_sampled(H, below, Fraction(1, 10), Fraction(1, 2), 20, 9)
        assert a.worst_witness == b.worst_witness


class TestRegularityLaws:
    """Complement, restriction, difference, and union laws on exhaustively
    checkable instances."""

    def _corpus(self, count=40):
        out = []
        for seed in range(count):
            m = 3 + seed % 2
            A = frozenset(range(m))
            B = frozenset(range(m, 2 * m))
            below = VertexClassGraph((A, B))
            H = KGraph(
                2, 2 * m,
                frozenset(
                    e for e in itertools.product(range(m), range(m, 2 * m))
                    if random_kgraph(2, 2, 0.5, seed * 97 + e[0] * 31 + e[1]).edges
                    or (seed + e[0] + e[1]) % 2 == 0
                ),
            )
            out.append((H, below))
        return out

    def test_complement_law(self):
        eps = Fraction(1, 3)
        for H, below in self._corpus():
            d = relative_density(H, below)
            if check_regular_exhaustive(H, below, eps, d).regular:
                comp = KGraph(
                    2, H.n,
                    frozenset(below.cliques(2)) - H.edges,
                )
                assert check_regular_exhaustive(comp, below, eps, 1 - d).regular

    def test_union_law(self):
        eps = Fraction(1, 4)
        for H, below in self._corpus(20):
            d = relative_density(H, below)
            if not check_regular_exhaustive(H, below, eps, d).regular:
                continue
            comp = KGraph(2, H.n, frozenset(below.cliques(2)) - H.edges)
            dc = relative_density(comp, below)
            if not check_regular_exhaustive(comp, below, eps, dc).regular:
                continue
            union = KGraph(2, H.n, H.edges | comp.edges)
            assert check_regular_exhaustive(union, below, 2 * eps, d + dc).regular


class TestDensityDistance:
    def test_identity(self):
        d = DensityFunction.constant((3,), Fraction(1, 2))
        assert density_distance(d, d) == 0

    def test_hand_value(self):
        d1 = DensityFunction.constant((3,), 1)
        d0 = DensityFunction.constant((3,), 0)
        assert density_distance(d1, d0) == Fraction(2, 3)

    def test_bounded_by_one(self):
        import random
        rng = random.Random(8)
        from hyperreg.addresses import address_space
        for a in [(3,), (4, 2), (3, 3)]:
            k = len(a) + 1
            space = address_space(k, k - 1, a)
            d1 = DensityFunction(a, {x: Fraction(rng.randrange(11), 10) for x in space})
            d2 = DensityFunction(a, {x: Fraction(rng.randrange(11), 10) for x in space})
            assert density_distance(d1, d2) <= 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            density_distance(
                DensityFunction.constant((3,), 0), DensityFunction.constant((4,), 0)
            )

    @given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, x, y, z):
        ds = [DensityFunction.constant((3,), Fraction(v, 10)) for v in (x, y, z)]
        assert density_distance(ds[0], ds[2]) <= (
            density_distance(ds[0], ds[1]) + density_distance(ds[1], ds[2])
        )


class TestEquitableAndWitness:
    def test_planted_witness_passes(self):
        H, F, R = planted((4,), 120, 3)
        relaxed = RegularityInstance(Fraction(1, 5), R.a, R.d)
        rep = check_instance_witness(H, relaxed, F, trials=10, seed=4)
        assert rep.ok, rep.failures

    def test_complement_fails_unless_density_adjusted(self):
        # asymmetric density so the complement's 0.7 misses d = 0.3 by 2*eps
        H, F, R = planted((4,), 120, 3, density=Fraction(3, 10))
        comp_edges = set()
        from hyperreg.addresses import address_space
        for x in address_space(2, 1, (4,)):
            comp_edges |= F.polyad_cliques(x, 2) - H.edges
        comp = KGraph(2, H.n, frozenset(comp_edges))
        relaxed = RegularityInstance(Fraction(1, 5), R.a, R.d)
        rep = check_instance_witness(comp, relaxed, F, trials=10, seed=4)
        assert not rep.ok
        flipped = RegularityInstance(
            Fraction(1, 5), R.a,
            DensityFunction(R.a, {x: 1 - v for x, v in R.d.values.items()}),
        )
        rep2 = check_instance_witness(comp, flipped, F, trials=10, seed=4)
        assert rep2.ok, rep2.failures

    def test_size_window_enforced(self):
        H, F, R = planted((4,), 121, 3)
        from hyperreg.sampling import induce_family
        from hyperreg.hypergraph import induce as induce_graph
        Q = list(range(118))  # lopsided truncation: last class loses 3
        FQ = induce_family(F, Q)
        relaxed = RegularityInstance(Fraction(1, 5), R.a, R.d)
        rep = check_instance_witness(induce_graph(H, Q), relaxed, FQ, trials=5, seed=1)
        assert any("equitability" in f for f in rep.failures)

    def test_shape_mismatch_rejected(self):
        H, F, R = planted((4,), 40, 3)
        d = DensityFunction.constant((3,), Fraction(1, 2))
        with pytest.raises(InputError):
            check_instance_witness(H, RegularityInstance(Fraction(1, 5), (3,), d), F)

    @pytest.mark.parametrize("a_h, n_h, message", [
        ((4,), 24, "hypergraph k=2 differs from instance k=3"),
        ((4, 2), 30, "hypergraph n=30 differs from family n=24"),
    ], ids=["k", "n"])
    def test_hypergraph_mismatch_rejected(self, a_h, n_h, message):
        # checked against a family it does not belong to, every polyad of
        # H would read as refuted; the inputs are refused instead
        H, _, _ = planted(a_h, n_h, 3)
        _, F, R = planted((4, 2), 24, 3)
        with pytest.raises(InputError, match=message):
            check_instance_witness(H, R, F, trials=2, seed=1)

    def test_equitable_a1_floor(self):
        _, F, _ = planted((4,), 40, 2)
        rep = check_equitable_family(F, Fraction(1, 5), Fraction(1, 2), Fraction(0))
        assert not rep.ok and any("(i)" in f for f in rep.failures)

    def test_equitable_size_window(self):
        # n/a1 = 2 with lambda = 1/4 admits only classes of size 2
        lopsided = PartitionFamily(2, 6, (3,), [{0, 1, 2, 3}, {4}, {5}])
        rep = check_equitable_family(lopsided, Fraction(1, 3), Fraction(1, 10), Fraction(1, 4))
        assert rep.failures == [
            f"(ii): |V_{i}|={size} outside (1±1/4)·n/a1"
            for i, size in ((1, 4), (2, 1), (3, 1))
        ]
        even = PartitionFamily(2, 6, (3,), [{0, 1}, {2, 3}, {4, 5}])
        assert check_equitable_family(even, Fraction(1, 3), Fraction(1, 10), 0).ok

    def test_equitable_k3_planted(self):
        _, F, _ = planted((4, 2), 24, 7)
        rep = check_equitable_family(
            F, Fraction(1, 4), Fraction(1, 2), Fraction(0), trials=5, seed=3
        )
        assert rep.ok, rep.failures

    def test_equitable_flags_irregular_complex(self):
        # V1={0,1}, V2={2,3}, V3={4,5}; on the pair (1,2) each level-2 class
        # joins one vertex of V1 to all of V2, so every complex is refuted
        splits = {
            (1, 2): [{(0, 2), (0, 3)}, {(1, 2), (1, 3)}],
            (1, 3): [{(0, 4), (1, 5)}, {(0, 5), (1, 4)}],
            (2, 3): [{(2, 4), (3, 5)}, {(2, 5), (3, 4)}],
        }
        level = {(AddressVector(x1), b): cls
                 for x1, pair in splits.items() for b, cls in enumerate(pair, start=1)}
        F = PartitionFamily(3, 6, (3, 2), [{0, 1}, {2, 3}, {4, 5}], {2: level})
        rep = check_equitable_family(F, Fraction(1, 3), Fraction(1, 10), Fraction(0))
        assert rep.failures == [
            f"(iii): complex at {x.encode()} not regular"
            for x in address_space(3, 2, (3, 2))
        ]

    def test_k3_witness_report_pinned(self):
        # every line of a k=3 witness report: failures, the worst deviation
        # and each address's verdict, as computed before any refactor
        H, F, R = planted((4, 2), 24, 7)
        rep = check_instance_witness(H, R, F, trials=2, seed=5)
        lines = [*rep.failures, f"worst_deviation {rep.worst_deviation}"]
        for x, v in sorted(rep.per_address.items()):
            w = v.worst_witness and (sorted(v.worst_witness[0]), v.worst_witness[1])
            lines.append(f"{x.encode()} {v.regular} {v.mode} {v.measured_density} {w}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "9eb83144946e885205a08a0ab153591f6c7c179a14159b53e210fb8d362e622d"


class TestComplexRegular:
    def test_complete_complex_regular(self):
        classes = (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}))
        from hyperreg import Complex, crossing_sets
        top = KGraph(2, 6, frozenset(crossing_sets(classes, 2)))
        C = Complex(classes, {2: top})
        out = check_complex_regular(C, Fraction(1, 4), [1])
        assert out["ok"]

    def test_half_graph_layer_flagged(self):
        H, below = half_graph(4)
        from hyperreg import Complex
        C = Complex((below.classes[0], below.classes[1]), {2: H})
        out = check_complex_regular(C, Fraction(1, 10), [Fraction(1, 2)])
        assert not out["ok"]

    def test_three_layer_checked_over_its_pair_layer(self):
        # complete pair layer on three classes of two; the triangles through
        # vertex 0 are half of all triangles but all of those over vertex
        # 0's pairs, so only the 3-layer is refuted
        from hyperreg import Complex, crossing_sets
        classes = (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}))
        pairs = KGraph(2, 6, frozenset(crossing_sets(classes, 2)))
        triangles = frozenset(cliques(pairs, 3))
        full = Complex(classes, {2: pairs, 3: KGraph(3, 6, triangles)})
        out = check_complex_regular(full, Fraction(1, 10), [1, 1])
        assert out["ok"] and out[(3, (0, 1, 2))].mode == "exhaustive"
        half = Complex(classes, {2: pairs, 3: KGraph(3, 6, frozenset(
            t for t in triangles if 0 in t))})
        out = check_complex_regular(half, Fraction(1, 10), [1, Fraction(1, 2)])
        assert [key for key, v in out.items() if key != "ok" and not v.regular] \
            == [(3, (0, 1, 2))]
        assert out[(3, (0, 1, 2))].measured_density == Fraction(1, 2)


class TestInstanceSerialization:
    def test_round_trip(self):
        import random
        rng = random.Random(3)
        from hyperreg.addresses import address_space
        a = (4, 2)
        space = address_space(3, 2, a)
        d = DensityFunction(a, {x: Fraction(rng.randrange(11), 10) for x in space})
        R = RegularityInstance(Fraction(1, 20), a, d)
        assert instance_from_text(instance_to_text(R)) == R

    def test_bad_line_numbered(self):
        with pytest.raises(InputError, match="line 3"):
            instance_from_text("1/10 3\n1,2 1/2\n1,x 1/2\n")

    def test_density_totality_enforced(self):
        with pytest.raises(InputError):
            instance_from_text("1/10 3\n1,2 1/2\n")


# ---------------------------------------------------------------------------
# oracle for the scan: subsets of the sorted ground set in binary-counting
# order (last element fastest), rescored with Fractions from raw edge sets

def _oracle_terms(H, below, chosen):
    """(|K_k(Q)|, edges of H in K_k(Q)) for the candidate chosen from the ground."""
    if isinstance(below, VertexClassGraph):
        cls_of = {v: i for i, c in enumerate(below.classes) for v in c}
        kq = [p for p in itertools.combinations(sorted(chosen), 2)
              if cls_of[p[0]] != cls_of[p[1]]]
    else:
        verts = sorted({v for e in chosen for v in e})
        kq = [t for t in itertools.combinations(verts, 3)
              if all(p in chosen for p in itertools.combinations(t, 2))]
    return len(kq), sum(1 for e in kq if e in H.edges)


def _oracle_ground(below):
    if isinstance(below, VertexClassGraph):
        return sorted(below.vertex_set())
    return sorted(below.edges)


def _oracle_deviation(H, below, chosen, eps, d):
    """Deviation of a candidate, or None when it misses the floor."""
    total, _ = _oracle_terms(H, below, _oracle_ground(below))
    size, hits = _oracle_terms(H, below, chosen)
    if size == 0 or Fraction(size) < eps * total:
        return None
    return abs(Fraction(hits) - d * size) / size


def _oracle_exhaustive(H, below, eps, d):
    ground = _oracle_ground(below)
    total, all_hits = _oracle_terms(H, below, ground)
    density = Fraction(all_hits, total) if total else Fraction(0)
    worst = None
    for bits in itertools.product((0, 1), repeat=len(ground)):
        chosen = [g for g, keep in zip(ground, bits) if keep]
        dev = _oracle_deviation(H, below, chosen, eps, d)
        if dev is not None and (worst is None or dev > worst[1]):
            worst = (chosen, dev)
    return worst is None or worst[1] <= eps, density, worst


def _oracle_sampled(H, below, eps, d, trials, seed):
    """The sampled checker's worst candidate, with retention drawn as
    random() < Fraction: each density's trials in order, the full ground last."""
    ground = _oracle_ground(below)
    candidates = []
    for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        for t in range(trials):
            rng = substream(seed, "retain", str(p), t)
            candidates.append([g for g in ground if rng.random() < p])
    worst = None
    for chosen in candidates + [ground]:
        dev = _oracle_deviation(H, below, chosen, eps, d)
        if dev is not None and (worst is None or dev > worst[1]):
            worst = (chosen, dev)
    return worst


def _random_pair_instance(rng):
    sizes = [rng.randint(1, 3) for _ in range(2)]
    verts = list(range(sum(sizes)))
    rng.shuffle(verts)
    classes, at = [], 0
    for s in sizes:
        classes.append(frozenset(verts[at:at + s]))
        at += s
    p = rng.random()
    H = KGraph(2, len(verts), frozenset(
        e for e in itertools.combinations(range(len(verts)), 2) if rng.random() < p
    ))
    return H, VertexClassGraph(tuple(classes))


def _random_triple_instance(rng):
    n = rng.randint(4, 6)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    below = KGraph(2, n, frozenset(pairs[:rng.randint(3, 8)]))
    p = rng.random()
    H = KGraph(3, n, frozenset(
        t for t in itertools.combinations(range(n), 3) if rng.random() < p
    ))
    return H, below


class TestScanOracle:
    @pytest.mark.parametrize("make", [_random_pair_instance, _random_triple_instance])
    def test_exhaustive_matches_oracle(self, make):
        import random
        for seed in range(100):
            rng = random.Random(seed)
            H, below = make(rng)
            eps = Fraction(rng.randint(1, 6), 12)
            d = Fraction(rng.randint(0, 8), 8)
            regular, density, worst = _oracle_exhaustive(H, below, eps, d)
            v = check_regular_exhaustive(H, below, eps, d)
            assert (v.regular, v.measured_density, v.certified) == (regular, density, True)
            if worst is None:
                assert v.worst_witness is None
            else:
                witness, dev = v.worst_witness
                assert sorted(witness) == worst[0] and dev == worst[1], seed

    @pytest.mark.parametrize("make", [_random_pair_instance, _random_triple_instance])
    def test_sampled_witness_rescores(self, make):
        import random
        for seed in range(100):
            rng = random.Random(seed)
            H, below = make(rng)
            eps = Fraction(rng.randint(1, 6), 12)
            d = Fraction(rng.randint(0, 8), 8)
            v = check_regular_sampled(H, below, eps, d, rng.randint(1, 5), seed)
            assert not v.certified
            if v.worst_witness is None:
                assert v.regular
                continue
            witness, dev = v.worst_witness
            assert _oracle_deviation(H, below, sorted(witness), eps, d) == dev
            assert v.regular == (dev <= eps)
            assert dev <= check_regular_exhaustive(H, below, eps, d).worst_witness[1]

    def test_sampled_witness_matches_fraction_draws(self):
        import random
        instances = []
        for seed in range(6):
            H, F, _ = planted((3,), 24, seed, density=Fraction(2, 7))
            instances.append((H, F.polyad(F.class_addresses(2)[0])))
        instances += [_random_triple_instance(random.Random(seed)) for seed in range(20)]
        for seed, (H, below) in enumerate(instances):
            for d in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 9)):
                v = check_regular_sampled(H, below, Fraction(1, 6), d, 2, seed)
                w = v.worst_witness
                got = w and (sorted(w[0]), w[1])
                assert got == _oracle_sampled(H, below, Fraction(1, 6), d, 2, seed)

    def test_first_maximal_candidate_wins_ties(self):
        # two disjoint triangles below, both edges above: every nonempty
        # candidate deviates by 1 at d = 0, so the smallest mask wins, the
        # first in counting order
        below = KGraph(2, 6, {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)})
        H = KGraph(3, 6, {(0, 1, 2), (3, 4, 5)})
        v = check_regular_exhaustive(H, below, Fraction(1, 2), 0)
        assert v.worst_witness == (frozenset({(3, 4), (3, 5), (4, 5)}), 1)


def _rescored(Hk, Hk1, ground, mask):
    """(|K_k(Q)|, edges of Hk in K_k(Q)) with Q re-read from the mask and
    its cliques re-enumerated; ground[i] sits at bit len(ground) - 1 - i."""
    top = len(ground) - 1
    chosen = frozenset(g for i, g in enumerate(ground) if mask >> (top - i) & 1)
    kq = cliques(KGraph(Hk1.k, Hk1.n, chosen), Hk.k)
    return len(kq), sum(1 for e in kq if e in Hk.edges)


def _scorer_instances():
    for seed in range(2):
        H, F, _ = planted((4, 2), 24, seed)
        for x in F.polyad_addresses(2):
            yield H, F.polyad(x)
    for seed in range(4):
        yield random_kgraph(4, 7, 0.5, seed), random_kgraph(3, 7, 0.6, seed)
    # a pendant edge (7, 8) lies in no triangle, and every triple is an
    # edge above, so most edges of Hk lie outside K_3(Hk1)
    for seed in range(4):
        below = random_kgraph(2, 9, 0.4, seed)
        yield KGraph.complete(3, 9), KGraph(2, 9, below.edges | {(7, 8)})


class TestCliqueScorer:
    def test_matches_reenumeration(self):
        import random
        from hyperreg.regularity import _clique_scorer
        rng = random.Random(0)
        outside = unused = False
        for Hk, Hk1 in _scorer_instances():
            ground = sorted(Hk1.edges)
            kk = cliques(Hk1, Hk.k)
            outside |= bool(Hk.edges - kk)
            unused |= any(not any(set(g) <= set(c) for c in kk) for g in ground)
            score, _ = _clique_scorer(Hk, Hk1, ground)
            full = (1 << len(ground)) - 1
            masks = [0, full] + [rng.getrandbits(len(ground)) for _ in range(10)]
            for mask in masks:
                assert score(mask) == _rescored(Hk, Hk1, ground, mask), mask
        assert outside and unused


# ---------------------------------------------------------------------------
# the Gray walk against binary counting: _scan fed every mask in counting
# order, each scored from scratch, where the first mask of maximal deviation
# is also the smallest

def _tie_rich_pairs():
    """Two near-equal classes over 10, 13 and 16 shuffled vertices; empty,
    half and complete graphs, with edges inside the classes too."""
    import random
    rng = random.Random(11)
    for n in (10, 13, 16):
        verts = rng.sample(range(n), n)
        below = VertexClassGraph((frozenset(verts[:n // 2]), frozenset(verts[n // 2:])))
        for p in (0, Fraction(1, 2), 1):
            yield KGraph(2, n, frozenset(
                e for e in itertools.combinations(range(n), 2) if rng.random() < p
            )), below


def _tie_rich_triples():
    """k = 3 over at most 14 sub-edges; the pendant sub-edge (6, 7) lies in
    no triangle, and the complete and random 3-graphs have edges outside
    K_3(Hk1)."""
    import random
    rng = random.Random(12)
    pairs = list(itertools.combinations(range(7), 2))
    for size in (9, 11, 13):
        below = KGraph(2, 8, frozenset(rng.sample(pairs, size)) | {(6, 7)})
        for p in (0, Fraction(1, 2), 1):
            yield KGraph(3, 8, frozenset(
                t for t in itertools.combinations(range(8), 3) if rng.random() < p
            )), below


class TestGrayWalk:
    # the k = 2 case has no walk: its source is the smaller-class scan, and
    # only its verdicts are held to _scan fed every mask in counting order
    @pytest.mark.parametrize("make", [_tie_rich_pairs, _tie_rich_triples])
    def test_matches_binary_counting(self, make):
        from hyperreg.regularity import _clique_scorer, _ground, _pair_scorer, _scan
        eps_cycle = itertools.cycle((Fraction(1, 20), Fraction(1, 8), Fraction(1, 3)))
        outside = unused = False
        for H, below in make():
            ground = _ground(below)
            if isinstance(below, VertexClassGraph):
                score, _ = _pair_scorer(H, below.classes, ground)
                binary = [(m, *score(m)) for m in range(1 << len(ground))]
            else:
                assert len(ground) <= 14
                score, walk = _clique_scorer(H, below, ground)
                kk = cliques(below, 3)
                outside |= bool(H.edges - kk)
                unused |= any(not any(set(g) <= set(c) for c in kk) for g in ground)
                binary = [(m, *score(m)) for m in range(1 << len(ground))]
                visited = set()
                for mask, size, hits in walk(0):
                    assert binary[mask] == (mask, size, hits)
                    visited.add(mask)
                assert len(visited) == len(binary) - 1 and 0 not in visited
            for d in (0, Fraction(1, 2), 1):
                eps = next(eps_cycle)
                want = _scan(H, below, ground, eps, d, lambda *_: binary, "exhaustive", True)
                assert check_regular_exhaustive(H, below, eps, d) == want, (len(ground), d, eps)
        assert isinstance(below, VertexClassGraph) or (outside and unused)


# ---------------------------------------------------------------------------
# the two-class source against binary counting: the exhaustive scan of a
# two-class polyad enumerates only the smaller class, and must still return
# the verdict, density and witness of _scan fed every mask in counting order

def _two_class_instances():
    """Unequal classes of 1-8 vertices, the smaller one before, after or
    interleaved with the larger in vertex order, listed first or second;
    the graphs have edges inside the classes too."""
    import random
    rng = random.Random(18)
    for layout, p, _ in itertools.product(
        ("before", "after", "interleaved"), (0, Fraction(1, 2), 1, None), range(5)
    ):
        small, large = sorted(rng.sample(range(1, 9), 2))
        n = small + large
        if layout == "before":
            verts = list(range(n))
        elif layout == "after":
            verts = list(range(large, n)) + list(range(large))
        else:
            verts = rng.sample(range(n), n)
        classes = [frozenset(verts[:small]), frozenset(verts[small:])]
        if rng.random() < 0.5:
            classes.reverse()
        q = rng.random() if p is None else p
        yield KGraph(2, n, frozenset(
            e for e in itertools.combinations(range(n), 2) if rng.random() < q
        )), VertexClassGraph(tuple(classes))


class TestTwoClassSource:
    def test_matches_binary_counting(self):
        import random
        from hyperreg.regularity import _ground, _pair_scorer, _scan
        rng = random.Random(19)
        inside = 0
        for H, below in _two_class_instances():
            ground = _ground(below)
            A, B = below.classes
            inside += any(set(e) <= A or set(e) <= B for e in H.edges)
            score, _ = _pair_scorer(H, below.classes, ground)
            binary = [(m, *score(m)) for m in range(1 << len(ground))]
            for _ in range(8):
                eps = Fraction(rng.randint(1, 20), 20)
                d = Fraction(rng.randint(0, 6), 6)
                want = _scan(H, below, ground, eps, d, lambda *_: binary, "exhaustive", True)
                got = check_regular_exhaustive(H, below, eps, d)
                assert got == want, (sorted(A), sorted(B), sorted(H.edges), eps, d)
        assert inside >= 30

    @pytest.mark.parametrize("small, large, p, eps", [
        (3, 5, Fraction(1, 2), Fraction(1)),  # only S = the smaller class, t = |B|
        (3, 5, Fraction(1, 2), Fraction(1, 15)),  # least = 1: t = 1 for every S
        (3, 5, Fraction(1, 2), Fraction(1, 100)),  # least = 1 from a ceiling
        (3, 5, Fraction(1, 2), Fraction(0)),  # least = 0: still t = 1
        (1, 6, Fraction(1, 2), Fraction(1, 4)),  # a one-vertex class
        (1, 6, Fraction(1, 2), Fraction(1)),
        (4, 4, 0, Fraction(1, 8)),  # empty: all degrees tie
        (4, 4, 1, Fraction(1, 3)),  # complete: all degrees tie
        (4, 4, Fraction(1, 2), Fraction(1, 2)),  # |S| = 1 gives 4 < least = 8
        (5, 6, Fraction(1, 2), Fraction(7, 10)),  # t0 = |B| for |S| = 4
    ])
    def test_floor_boundaries_match_binary_counting(self, small, large, p, eps):
        import random
        from hyperreg.regularity import _ground, _pair_scorer, _scan
        rng = random.Random(25)
        n = small + large
        verts = rng.sample(range(n), n)
        below = VertexClassGraph((frozenset(verts[small:]), frozenset(verts[:small])))
        H = KGraph(2, n, frozenset(
            e for e in itertools.combinations(range(n), 2) if rng.random() < p
        ))
        ground = _ground(below)
        score, _ = _pair_scorer(H, below.classes, ground)
        binary = [(m, *score(m)) for m in range(1 << n)]
        for d in (0, Fraction(1, 3), Fraction(1, 2), 1):
            want = _scan(H, below, ground, eps, d, lambda *_: binary, "exhaustive", True)
            assert check_regular_exhaustive(H, below, eps, d) == want, d

    def test_two_candidates_per_set_at_the_least_size(self):
        # each nonempty S of the smaller class yields two candidates of
        # size |S|·t0, t0 = ceil(least/|S|), or none when t0 > |B|
        from math import ceil
        from hyperreg.regularity import _ground, _pair_scorer
        for H, below in _two_class_instances():
            ground = _ground(below)
            top = len(ground) - 1
            small, large = sorted(
                (sum(1 << (top - ground.index(v)) for v in c) for c in below.classes),
                key=int.bit_count,
            )
            score, source = _pair_scorer(H, below.classes, ground)
            total = score((1 << len(ground)) - 1)[0]
            for least in (0, 1, total // 3, total):
                per_set = {}
                for mask, size, hits in source(least):
                    assert (mask & large).bit_count() * (mask & small).bit_count() == size
                    assert score(mask) == (size, hits)
                    per_set.setdefault(mask & small, []).append(size)
                S = small
                while S:
                    t0 = max(1, ceil(least / S.bit_count()))
                    want = [S.bit_count() * t0] * 2 if t0 <= large.bit_count() else []
                    assert per_set.pop(S, []) == want, (least, bin(S))
                    S = (S - 1) & small
                assert not per_set

    def test_smallest_mask_over_the_floor_wins(self):
        # empty 2-graph on 4 + 4 vertices at d = 0: every candidate deviates
        # by 0, and eps = 1/8 asks for 2 of the 16 crossing pairs.  The
        # smallest such mask is {3, 6, 7}
        below = VertexClassGraph((frozenset(range(4)), frozenset(range(4, 8))))
        v = check_regular_exhaustive(KGraph(2, 8), below, Fraction(1, 8), 0)
        assert v == RegularityVerdict(True, 0, ((3, 6, 7), 0), "exhaustive", True)


class TestRouting:
    @pytest.mark.parametrize("make", [_random_pair_instance, _random_triple_instance])
    def test_routes_on_ground_size(self, make, monkeypatch):
        import random
        from hyperreg import regularity
        from hyperreg.regularity import check_regular

        def refused(*args, **kwargs):
            raise AssertionError("check_regular_exhaustive entered above the cap")

        for seed in range(20):
            rng = random.Random(seed)
            H, below = make(rng)
            eps = Fraction(rng.randint(1, 6), 12)
            d = Fraction(rng.randint(0, 8), 8)
            size = len(regularity._ground(below))
            exact = check_regular(H, below, eps, d, trials=3, seed=seed, exhaustive_cap=size)
            assert exact == check_regular_exhaustive(H, below, eps, d, size)
            with monkeypatch.context() as m:
                m.setattr(regularity, "check_regular_exhaustive", refused)
                v = check_regular(H, below, eps, d, trials=3, seed=seed,
                                  exhaustive_cap=size - 1)
            assert v == check_regular_sampled(H, below, eps, d, 3, seed)
