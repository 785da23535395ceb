import itertools
import random
import re
from fractions import Fraction

import pytest

from hyperreg import (
    AddressVector,
    ConstructionError,
    InputError,
    KGraph,
    build_family,
    check_family_axioms,
    family_from_text,
    family_refines,
    family_to_text,
    leq,
    nu_refines,
)
from hyperreg.partitions import PartitionFamily, VertexClassGraph

from conftest import planted


class TestAddressOf:
    def test_k2_bare_indices(self, small_planted_k2):
        _, F, _ = small_planted_k2
        v = min(F.vertex_classes[1])
        w = min(F.vertex_classes[3])
        x = F.address_of((v, w))
        assert x == AddressVector((2, 4))

    def test_k3_pair_address_matches_class(self, small_planted_k3):
        _, F, _ = small_planted_k3
        for L in sorted(F.crossing(2))[:20]:
            x = F.address_of(L)  # a bare pair address: labels start at 3-sets
            (xc, b) = F.containing_class(L)
            assert xc == x
            assert tuple(sorted(L)) in F.class_lookup(xc, b).edges

    def test_k3_triple_labels_match_per_pair(self, small_planted_k3):
        _, F, _ = small_planted_k3
        for L in sorted(F.crossing(3))[:20]:
            x = F.address_of(L)
            for I in itertools.combinations(L, 2):
                xc, b = F.containing_class(I)
                lam = tuple(sorted(F.class_index_of(v) for v in I))
                assert x.label(2, lam) == b

    def test_non_crossing_rejected(self, small_planted_k2):
        _, F, _ = small_planted_k2
        u, v = sorted(F.vertex_classes[0])[:2]
        with pytest.raises(InputError):
            F.address_of((u, v))


class TestClassLookup:
    def test_level1_convention(self, small_planted_k2):
        _, F, _ = small_planted_k2
        assert F.class_lookup_p1(2, 2) == F.vertex_classes[1]
        assert F.class_lookup_p1(1, 2) == frozenset()

    def test_union_over_labels_is_polyad_cliques(self, small_planted_k3):
        _, F, _ = small_planted_k3
        for x in F.class_addresses(2)[:10]:
            union = set()
            for b in range(1, F.a[1] + 1):
                union |= F.class_lookup(x, b).edges
            assert union == F.polyad_cliques(x, 2)

    def test_label_out_of_range(self, small_planted_k3):
        _, F, _ = small_planted_k3
        x = F.class_addresses(2)[0]
        with pytest.raises(InputError):
            F.class_lookup(x, F.a[1] + 1)

    def test_empty_address_is_empty(self):
        # a relaxed family with an empty vertex class: addresses touching it
        # have empty clique sets and empty classes
        F = PartitionFamily(
            2, 4, (3,), [frozenset({0, 1}), frozenset({2, 3}), frozenset()],
            relaxed=True,
        )
        assert F.polyad(AddressVector((1, 3))).vertex_set() == frozenset({0, 1})


class TestPolyad:
    def test_k2_polyad_is_class_pair(self, small_planted_k2):
        _, F, _ = small_planted_k2
        p = F.polyad(AddressVector((1, 3)))
        assert isinstance(p, VertexClassGraph)
        assert p.classes == (F.vertex_classes[0], F.vertex_classes[2])

    def test_polyad_contains_subset_classes(self, small_planted_k3):
        _, F, _ = small_planted_k3
        for L in sorted(F.crossing(3))[:10]:
            x = F.address_of(L).truncate(2)
            polyad = F.polyad(x)
            for I in itertools.combinations(L, 2):
                assert tuple(sorted(I)) in polyad.edges

    def test_larger_polyad_is_union_of_sub_polyads(self, small_planted_k3):
        _, F, _ = small_planted_k3
        L = sorted(F.crossing(4))[0] if F.crossing(4) else None
        if L is None:
            pytest.skip("no crossing 4-sets at this scale")
        x = F.address_of(L).truncate(2)  # in the (4, 2)-space
        direct = F.polyad(x).edges
        union = set()
        for S in itertools.combinations(x.x1, 3):
            union |= F.polyad(x.restrict(S, 2)).edges
        assert direct == union

    def test_class_index_above_a1_rejected(self, small_planted_k2):
        _, F, _ = small_planted_k2
        with pytest.raises(InputError, match=r"^address 1,9: class index 9 exceeds a1=4$"):
            F.polyad(AddressVector.decode("1,9"))

    def test_label_above_aj_rejected(self, small_planted_k3):
        # label 3 above a2 = 2 once returned a partial 39-edge polyad
        _, F, _ = small_planted_k3
        with pytest.raises(InputError, match=r"^address 1,2,3;1,1,3: level-2 label 3 outside \[1, a2=2\]$"):
            F.polyad(AddressVector.decode("1,2,3;1,1,3"))


class TestUniquePolyadAddress:
    def test_consistency_with_address_of(self, small_planted_k3):
        _, F, _ = small_planted_k3
        for L in sorted(F.crossing(3))[:15]:
            x = F.unique_polyad_address(L, 2)
            assert x == F.address_of(L).truncate(2)
            assert tuple(sorted(L)) in F.polyad_cliques(x, 3)

    def test_coverage_and_disjointness(self):
        _, F, _ = planted((3, 2), 12, 3)
        seen = {}
        for x in F.polyad_addresses(2):
            for L in F.polyad_cliques(x, 3):
                assert L not in seen, "two polyads cover the same crossing set"
                seen[L] = x
        assert set(seen) == F.crossing(3)


class TestRestrictionOrderOnFamilies:
    def test_subset_addresses_are_below(self):
        _, F, _ = planted((4, 2), 14, 9)
        for J in sorted(F.crossing(3))[:25]:
            xJ = F.address_of(J)
            for size in (2, 3):
                for I in itertools.combinations(J, size):
                    assert leq(F.address_of(I), xJ)


class TestNuRefines:
    def test_exact_refinement_nu_zero(self):
        parts_b = [frozenset({0, 1, 2}), frozenset({3, 4})]
        parts_a = [frozenset({0, 1}), frozenset({2}), frozenset({3, 4})]
        rep = nu_refines(parts_a, range(5), parts_b, range(5))
        assert rep.refines_exactly and rep.nu == 0

    def test_hand_value(self):
        rep = nu_refines(
            [frozenset({1, 2}), frozenset({3, 4})],
            {1, 2, 3, 4},
            [frozenset({1, 3}), frozenset({2, 4})],
            {1, 2, 3, 4},
        )
        assert rep.nu == Fraction(2, 4)

    def test_catch_all_target(self):
        # B is a strict subset of A; a part fully outside B costs nothing
        rep = nu_refines(
            [frozenset({0, 1}), frozenset({2, 3})],
            {0, 1, 2, 3},
            [frozenset({0, 1})],
            {0, 1},
        )
        assert rep.nu == 0
        assert rep.witness_map[1] is None

    def test_triangle_bound(self):
        import random
        rng = random.Random(4)
        ground = list(range(12))
        for _ in range(25):
            def rand_partition():
                labels = [rng.randrange(3) for _ in ground]
                return [
                    frozenset(g for g, lab in zip(ground, labels) if lab == i)
                    for i in range(3)
                ]
            A, B, C = rand_partition(), rand_partition(), rand_partition()
            nab = nu_refines(A, ground, B, ground).nu
            nbc = nu_refines(B, ground, C, ground).nu
            nac = nu_refines(A, ground, C, ground).nu
            assert nac <= nab + nbc

    def test_ground_mismatch_rejected(self):
        with pytest.raises(InputError):
            nu_refines([frozenset({0})], {0}, [frozenset({1})], {1})


class TestFamilyRefines:
    def test_identity(self, small_planted_k3):
        _, F, _ = small_planted_k3
        rep = family_refines(F, F)
        assert rep["max"] == 0

    def test_k_mismatch_rejected(self, small_planted_k2, small_planted_k3):
        _, F2, _ = small_planted_k2
        _, F3, _ = small_planted_k3
        with pytest.raises(InputError):
            family_refines(F2, F3)


class TestAxioms:
    def test_planted_passes(self, small_planted_k3):
        _, F, _ = small_planted_k3
        rep = check_family_axioms(F)
        assert rep.ok, rep.failures

    def test_moved_set_across_polyads_fails(self, small_planted_k3):
        _, F, _ = small_planted_k3
        lc = {2: dict(F.level_classes[2])}
        xa = ba = xb = bb = None
        for key, edges in sorted(lc[2].items()):
            if edges and xa is None:
                xa, ba = key
            elif edges and key[0] != xa:
                xb, bb = key
                break
        moved = min(lc[2][(xa, ba)])
        lc[2][(xa, ba)] = lc[2][(xa, ba)] - {moved}
        lc[2][(xb, bb)] = lc[2][(xb, bb)] | {moved}
        broken = PartitionFamily(F.k, F.n, F.a, F.vertex_classes, lc)
        rep = check_family_axioms(broken)
        assert not rep.ok
        assert any("(vii)" in f for f in rep.failures)

    def test_relaxed_reports_emptiness_without_strict_failure(self, small_planted_k3):
        _, F, _ = small_planted_k3
        lc = {2: dict(F.level_classes[2])}
        key = next(k for k, e in sorted(lc[2].items()) if e)
        other = (key[0], key[1] % F.a[1] + 1)
        lc[2][other] = lc[2].get(other, frozenset()) | lc[2][key]
        lc[2][key] = frozenset()
        relaxed = PartitionFamily(
            F.k, F.n, F.a, F.vertex_classes, lc, relaxed=True
        )
        rep = check_family_axioms(relaxed)
        assert not any(f.startswith("(i)") for f in rep.failures)
        strict = PartitionFamily(F.k, F.n, F.a, F.vertex_classes, lc)
        rep2 = check_family_axioms(strict)
        assert any(f.startswith("(i)") for f in rep2.failures)

    @pytest.mark.parametrize("n, a, classes, failure", [
        (4, (3,), [{0, 1}, {2, 3}, set()], "(i): empty vertex class"),
        (5, (2,), [{0, 1}, {2, 3}], "(i): vertex classes do not cover V"),
    ], ids=["empty", "uncovered"])
    def test_vertex_class_faults_flagged(self, n, a, classes, failure):
        assert check_family_axioms(PartitionFamily(2, n, a, classes)).failures == [failure]

    def test_label_out_of_range_flagged(self, small_planted_k3):
        _, F, _ = small_planted_k3
        lc = {2: dict(F.level_classes[2])}
        x, b = next(key for key, e in sorted(lc[2].items()) if e)
        lc[2][(x, F.a[1] + 1)] = lc[2].pop((x, b))
        rep = check_family_axioms(PartitionFamily(F.k, F.n, F.a, F.vertex_classes, lc))
        assert f"(v): label {F.a[1] + 1} out of range at level 2" in rep.failures

    def test_a1_below_k_flagged(self):
        F = PartitionFamily(3, 4, (2, 2), [frozenset({0, 1}), frozenset({2, 3})])
        rep = check_family_axioms(F)
        assert any("(i)" in f for f in rep.failures)


class TestBuildFamily:
    def test_round_trip_of_planted(self, small_planted_k3):
        _, F, _ = small_planted_k3
        rebuilt = build_family(
            F.vertex_classes, F.level_classes, a=F.a, n=F.n
        )
        assert rebuilt == F

    def test_fp2_violation_detected(self, small_planted_k3):
        _, F, _ = small_planted_k3
        lc = {2: dict(F.level_classes[2])}
        key = next(k for k, e in sorted(lc[2].items()) if len(e) >= 2)
        split = min(lc[2][key])
        lc[2][key] = lc[2][key] - {split}  # a clique vanishes from the cover
        with pytest.raises(ConstructionError) as exc:
            build_family(F.vertex_classes, lc, a=F.a, n=F.n)
        assert exc.value.condition == "FP2"

    def test_fp1_empty_vertex_class(self):
        with pytest.raises(ConstructionError) as exc:
            build_family([frozenset({0, 1}), frozenset()], {}, a=(2,), n=2)
        assert exc.value.condition == "FP1"

    def test_k2_vertex_classes_only(self):
        F = build_family(
            [frozenset({0, 1}), frozenset({2, 3})], {}, a=(2,), n=4
        )
        assert check_family_axioms(F).ok

    def test_fp3_polyad_identity_checked(self, small_planted_k3):
        _, F, _ = small_planted_k3
        good = {1: {}}
        for x in F.class_addresses(2):
            good[1][x] = frozenset((v,) for v in F.polyad(x).vertex_set())
        rebuilt = build_family(
            F.vertex_classes, F.level_classes, good, a=F.a, n=F.n
        )
        assert rebuilt == F
        bad = dict(good[1])
        key = sorted(bad, key=lambda x: x.encode())[0]
        bad[key] = frozenset(list(bad[key])[:-1])
        with pytest.raises(ConstructionError) as exc:
            build_family(F.vertex_classes, F.level_classes, {1: bad}, a=F.a, n=F.n)
        assert exc.value.condition == "FP3"


def _mutate(F, name, rng, relaxed):
    """F with one level class edited at a random level."""
    j = rng.randrange(2, F.k)
    lc = {i: dict(F.level_classes[i]) for i in range(2, F.k)}
    level = lc[j]
    key = rng.choice(sorted(k for k, sets in level.items() if sets))
    (x, b), sets = key, level[key]
    L = rng.choice(sorted(sets))
    sibling = (x, b % F.a[j - 1] + 1)
    if name == "relabel":
        level[key], level[sibling] = sets - {L}, level.get(sibling, frozenset()) | {L}
    elif name == "readdress":
        y = rng.choice([y for y in F.class_addresses(j) if y != x])
        target = (y, rng.randint(1, F.a[j - 1]))
        level[key], level[target] = sets - {L}, level.get(target, frozenset()) | {L}
    elif name == "non-crossing":
        V = sorted(F.vertex_classes[rng.randrange(F.a[0])])
        rest = [v for v in range(F.n) if v not in V]
        level[key] = sets | {tuple(sorted(rng.sample(V, 2) + rng.sample(rest, j - 2)))}
    elif name == "drop":
        level[key] = sets - {L}
    elif name == "empty":
        level[key] = frozenset()
    elif name == "duplicate":
        level[sibling] = level.get(sibling, frozenset()) | {L}
    return PartitionFamily(F.k, F.n, F.a, F.vertex_classes, lc, relaxed=relaxed)


MUTATIONS = ("relabel", "readdress", "non-crossing", "drop", "empty", "duplicate")


@pytest.fixture(scope="module")
def mutated_corpus():
    """Small k=3 and k=4 plantings, each with one mutation."""
    corpus = []
    for (a, n), seed in itertools.product([((3, 2), 9), ((4, 2), 12), ((4, 2, 2), 16)], range(3)):
        _, F, _ = planted(a, n, seed)
        relaxed = not check_family_axioms(F).ok  # small k=4 plantings leave labels empty
        for name in MUTATIONS:
            rng = random.Random(f"{a} {seed} {name}")
            corpus.append((f"{a} seed {seed} {name}", _mutate(F, name, rng, relaxed)))
    return corpus


class TestSharedPolyadCheck:
    """The axioms, the builder and the complexes agree per polyad."""

    def test_complex_faults_are_vii_faults(self, mutated_corpus):
        raised = 0
        for case, G in mutated_corpus:
            try:
                for j in range(2, G.k):
                    for x in G.polyad_addresses(j):
                        G.polyad_complex(x)
            except InputError:
                raised += 1
                assert any(f.startswith("(vii)") for f in check_family_axioms(G).failures), case
        assert raised >= 9

    def test_complex_layers_are_unions_of_restricted_polyads(self):
        for a, n in [((4, 2), 12), ((4, 2, 2), 20)]:
            _, F, _ = planted(a, n, 1)
            for j in range(2, F.k):
                for x in F.polyad_addresses(j)[::7]:
                    C = F.polyad_complex(x)
                    for i in range(2, j + 1):
                        union = set()
                        for S in itertools.combinations(x.x1, i + 1):
                            union |= F.polyad(x.restrict(S, i)).edges
                        assert C.layer(i).edges == union

    def test_builder_raises_on_first_polyad_fault(self, mutated_corpus):
        """build_family raises exactly when the axioms report an (i)/(vii)
        polyad line or a polyad's classes overlap, on the first of these in
        (level, address) order."""
        raised = overlaps = 0
        for case, G in mutated_corpus:
            order = {
                x.encode(): (j, pos)
                for j in range(2, G.k) for pos, x in enumerate(G.class_addresses(j))
            }
            first = []
            for i, line in enumerate(check_family_axioms(G).failures):
                if line.startswith(("(i)", "(vii)")):
                    m = re.search(r"class \(([\d,;]+),\d+\)|classes at (\S+) do", line)
                    assert m, (case, line)
                    first.append((order[m.group(1) or m.group(2)], 0, i, line))
            for j in range(2, G.k):
                for x in G.class_addresses(j):
                    classes = [G.level_classes[j].get((x, b), ()) for b in range(1, G.a[j - 1] + 1)]
                    if sum(map(len, classes)) != len(set().union(*classes)):
                        overlaps += 1
                        first.append((order[x.encode()], 1, 0, f"classes at {x.encode()} overlap"))
            if not first:
                assert build_family(G.vertex_classes, G.level_classes, a=G.a, n=G.n,
                                    relaxed=G.relaxed) == G, case
                continue
            raised += 1
            expected = min(first)[-1]
            with pytest.raises(ConstructionError) as exc:
                build_family(G.vertex_classes, G.level_classes, a=G.a, n=G.n, relaxed=G.relaxed)
            assert exc.value.detail == expected, case
            assert exc.value.condition == ("FP1" if expected.startswith("(i)") else "FP2"), case
        assert raised >= 27 and overlaps >= 3 and raised < len(mutated_corpus)


class TestSerialization:
    def test_round_trip(self, small_planted_k3):
        _, F, _ = small_planted_k3
        assert family_from_text(family_to_text(F)) == F

    def test_relaxed_flag_round_trip(self):
        F = PartitionFamily(
            2, 4, (3,), [frozenset({0, 1}), frozenset({2, 3}), frozenset()],
            relaxed=True,
        )
        G = family_from_text(family_to_text(F))
        assert G.relaxed and G == F

    def test_bad_line_numbered(self):
        text = "3 6 2 2\n1 1 : 0 1 2\n1 2 : 3 4 5\n2 oops 1 : \n"
        with pytest.raises(InputError, match="line 4"):
            family_from_text(text)

    def test_bad_header(self):
        with pytest.raises(InputError, match="line 1"):
            family_from_text("x y z\n")

    def test_k4_set_under_other_label_vector_rejected(self):
        _, F, _ = planted((4, 2, 2), 16, 1)
        lines = family_to_text(F).splitlines()
        assert family_from_text("\n".join(lines)) == F
        level3 = [i for i, ln in enumerate(lines) if ln.startswith("3 ")]
        i = next(i for i in level3 if lines[i].partition(" : ")[2])
        x = lines[i].split()[1]
        t = next(t for t in level3 if lines[t].split()[1] != x
                 and lines[t].split()[1].split(";")[0] == x.split(";")[0])
        head, _, sets = lines[i].partition(" : ")
        moved, *kept = sets.split()
        lines[i] = head + " : " + " ".join(kept)
        lines[t] = lines[t].rstrip() + " " + moved
        with pytest.raises(InputError, match=rf"line {t + 1}: \(vii\)"):
            family_from_text("\n".join(lines) + "\n")
