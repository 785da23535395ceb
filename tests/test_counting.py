import itertools
from fractions import Fraction
from math import comb

import pytest

from hyperreg import (
    AddressVector,
    Complex,
    DensityFunction,
    InputError,
    KGraph,
    RegularityInstance,
    cliques,
    count_induced,
    crossing_sets,
    ic,
    ic_family,
    ic_sigma,
    count_sigma_induced,
)
from hyperreg.counting import (
    cached_automorphism_count,
    count_crossing_induced,
    verify_counting_lemma,
    verify_ic_vs_pr,
)
from hyperreg.hypergraph import (
    all_iso_classes,
    are_induced_isomorphic,
    canonical_form,
    induce,
)
from hyperreg.rng import substream

from conftest import planted


def _addr(a, ell):
    from hyperreg.addresses import address_space
    return address_space(ell, len(a), a)


class TestICSigma:
    def test_complete_pattern_all_ones(self):
        a = (4, 2)
        d = DensityFunction.constant(a, 1)
        F = KGraph(3, 3, {(0, 1, 2)})
        x = _addr(a, 3)[0]
        expected = Fraction(1, 2 ** comb(3, 2))
        assert ic_sigma(F, d, x, x.x1) == expected

    def test_missing_edge_gives_zero(self):
        a = (4, 2)
        d = DensityFunction.constant(a, 1)
        F = KGraph(3, 3, frozenset())
        x = _addr(a, 3)[0]
        assert ic_sigma(F, d, x, x.x1) == 0

    def test_single_pair_half(self):
        a = (2,)
        d = DensityFunction.constant(a, Fraction(1, 2))
        F = KGraph(2, 2, {(0, 1)})
        x = AddressVector((1, 2))
        assert ic_sigma(F, d, x, (1, 2)) == Fraction(1, 2)
        assert ic(F, d).total == Fraction(1, 2)

    def test_bounds(self):
        import random
        rng = random.Random(2)
        a = (4, 2)
        from hyperreg.addresses import address_space
        space = address_space(3, 2, a)
        d = DensityFunction(a, {x: Fraction(rng.randrange(11), 10) for x in space})
        cap = Fraction(1, 2 ** comb(3, 2))
        for F in all_iso_classes(3, 3):
            for x in space[:6]:
                for sigma in itertools.permutations(x.x1):
                    v = ic_sigma(F, d, x, sigma)
                    assert 0 <= v <= cap

    def test_non_bijection_rejected(self):
        a = (4,)
        d = DensityFunction.constant(a, 1)
        with pytest.raises(InputError):
            ic_sigma(KGraph(2, 2, {(0, 1)}), d, AddressVector((1, 2)), (1, 1))

    def test_monotone_in_edge_density(self):
        # raising d at one address raises ic for a pattern containing that
        # slot and lowers it for the complementary pattern
        a = (3,)
        from hyperreg.addresses import address_space
        space = address_space(2, 1, a)
        base = {x: Fraction(1, 2) for x in space}
        bumped = dict(base)
        bumped[space[0]] = Fraction(3, 4)
        d0, d1 = DensityFunction(a, base), DensityFunction(a, bumped)
        tri = KGraph(2, 3, {(0, 1), (0, 2), (1, 2)})
        emp = KGraph(2, 3, frozenset())
        assert ic(tri, d1).total > ic(tri, d0).total
        assert ic(emp, d1).total < ic(emp, d0).total


class TestICBreakdown:
    def test_internal_consistency(self):
        a = (4,)
        d = DensityFunction.constant(a, Fraction(2, 5))
        F = KGraph(2, 3, {(0, 1), (1, 2)})
        br = ic(F, d)
        aut = cached_automorphism_count(F)
        for x, val in br.per_address.items():
            acc = sum(
                v for (xx, s), v in br.per_sigma.items() if xx == x
            )
            assert val == acc / aut
        assert br.total == sum(br.per_address.values()) / comb(4, 3)

    # ell = a1 in the first of each k; densities cycle through 0, 1 and
    # the mixed denominators 3, 7 and 9
    @pytest.mark.parametrize(
        "a,ell", [((4,), 4), ((4,), 3), ((4, 2), 4), ((4, 2), 3), ((4, 1, 2), 4)]
    )
    def test_integer_sums_match_fraction_oracle(self, a, ell):
        from hyperreg.addresses import address_space
        k = len(a) + 1
        cycle = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(5, 9)]
        space = address_space(k, k - 1, a)
        d = DensityFunction(a, {x: cycle[i % 5] for i, x in enumerate(space)})
        for F in all_iso_classes(ell, k):
            br = ic(F, d)
            assert list(br.per_sigma) == [
                (x, s) for x in address_space(ell, k - 1, a)
                for s in itertools.permutations(x.x1)
            ]
            for (x, s), v in br.per_sigma.items():
                assert v == ic_sigma(F, d, x, s), (x, s)
            sums = dict.fromkeys(br.per_address, Fraction(0))
            for (x, _), v in br.per_sigma.items():
                sums[x] += v
            assert br.per_address == {
                x: acc / br.automorphism_count for x, acc in sums.items()
            }
            assert br.total == sum(br.per_address.values(), Fraction(0)) / comb(a[0], ell)

    def test_pattern_too_large_rejected(self):
        d = DensityFunction.constant((3,), Fraction(1, 2))
        with pytest.raises(InputError):
            ic(KGraph(2, 4), d)

    def test_pattern_uniformity_mismatch_rejected(self):
        # a 2-graph pattern read against k = 3 densities would get the
        # value of the empty 3-graph
        d = DensityFunction.constant((4, 2), Fraction(1, 2))
        tri = KGraph(2, 3, {(0, 1), (0, 2), (1, 2)})
        x = _addr((4, 2), 3)[0]
        with pytest.raises(InputError, match="pattern k=2 differs from density k=3"):
            ic(tri, d)
        with pytest.raises(InputError, match="pattern k=2 differs from density k=3"):
            ic_sigma(tri, d, x, x.x1)


class TestNormalization:
    @pytest.mark.parametrize(
        "k,ell,a",
        [(2, 3, (4,)), (2, 4, (5,)), (3, 3, (4, 2)), (2, 3, (5,)), (3, 4, (4, 3))],
    )
    def test_family_over_all_classes_is_one(self, k, ell, a):
        import random
        rng = random.Random(k * 100 + ell)
        from hyperreg.addresses import address_space
        space = address_space(k, k - 1, a)
        d = DensityFunction(a, {x: Fraction(rng.randrange(11), 10) for x in space})
        assert ic_family(all_iso_classes(ell, k), d) == 1

    def test_empty_family_zero(self):
        d = DensityFunction.constant((4,), Fraction(1, 2))
        assert ic_family([], d) == 0

    def test_duplicate_rejected(self):
        d = DensityFunction.constant((4,), Fraction(1, 2))
        tri = KGraph(2, 3, {(0, 1), (0, 2), (1, 2)})
        tri2 = KGraph(2, 3, {(0, 1), (0, 2), (1, 2)})
        with pytest.raises(InputError):
            ic_family([tri, tri2], d)


def tripartite_complex(m, d, seed):
    classes = tuple(
        frozenset(range(i * m, (i + 1) * m)) for i in range(3)
    )
    rng = substream(seed, "complex", m)
    edges = frozenset(
        e for e in crossing_sets(classes, 2) if rng.random() < d
    )
    return Complex(classes, {2: KGraph(2, 3 * m, edges)})


class TestSigmaInduced:
    def test_complete_complex_counts_cliques(self):
        C = tripartite_complex(4, 1.1, 0)  # all crossing pairs present
        F = KGraph(2, 3, {(0, 1), (0, 2), (1, 2)})
        assert count_sigma_induced(F, C, (0, 1, 2)) == 64

    def test_absent_edge_zero(self):
        C = tripartite_complex(3, -0.1, 0)  # no edges at all
        F = KGraph(2, 3, {(0, 1), (0, 2), (1, 2)})
        assert count_sigma_induced(F, C, (0, 1, 2)) == 0
        empty = KGraph(2, 3, frozenset())
        assert count_sigma_induced(empty, C, (0, 1, 2)) == 27

    def test_sigma_sum_is_aut_times_copies(self):
        C = tripartite_complex(4, 0.6, 5)
        for F in all_iso_classes(3, 2):
            total = sum(
                count_sigma_induced(F, C, sigma)
                for sigma in itertools.permutations(range(3))
            )
            # direct crossing-induced count
            target = tuple(sorted(canonical_form(F).edges))
            direct = 0
            for S in crossing_sets(C.vertex_classes, 3):
                sub = induce(C.layers[2], S)
                if len(sub.edges) == len(F.edges) and tuple(
                    sorted(canonical_form(sub).edges)
                ) == target:
                    direct += 1
            assert total == cached_automorphism_count(F) * direct


class TestCountingLemma:
    def test_complete_ratio_one(self):
        C = tripartite_complex(4, 1.1, 0)
        rep = verify_counting_lemma(C, {2: 1}, Fraction(0))
        assert rep.ok and rep.ratio == 1

    def test_emptied_layer_zero(self):
        C = tripartite_complex(4, -0.1, 0)
        rep = verify_counting_lemma(C, {2: Fraction(1, 2)}, Fraction(1, 10))
        assert not rep.ok

    def test_planted_within_tolerance(self):
        hits = 0
        for seed in range(1, 11):
            C = tripartite_complex(40, 0.5, seed)
            rep = verify_counting_lemma(C, {2: Fraction(1, 2)}, Fraction(15, 100))
            hits += rep.ok
        assert hits >= 9

    def test_per_lambda_densities(self):
        C = tripartite_complex(4, 1.1, 0)
        p = {(0, 1): 1, (0, 2): 1, (1, 2): 1}
        rep = verify_counting_lemma(C, {2: 0}, Fraction(0), p_top=p)
        assert rep.ok and rep.ratio == 1

    @pytest.mark.parametrize("ell,seed", [(3, 1), (4, 2), (4, 3), (5, 4)])
    def test_k3_matches_product_count(self, ell, seed):
        C = random_k3_complex(ell, 3, 0.8, seed)
        top = C.layers[3]
        direct = sum(
            all(sub in top.edges for sub in itertools.combinations(sorted(combo), 3))
            for combo in itertools.product(*C.vertex_classes)
        )
        half = Fraction(1, 2)
        rep = verify_counting_lemma(C, {2: half, 3: half}, Fraction(1))
        pred = 3 ** ell * half ** (comb(ell, 3) + comb(ell, 2))
        assert direct > 0
        assert rep.ratio == direct / pred

    def test_fewer_classes_than_uniformity_rejected(self):
        C = Complex(({0, 1}, {2, 3}), {2: KGraph(2, 4), 3: KGraph(3, 4)})
        half = Fraction(1, 2)
        with pytest.raises(InputError, match="below uniformity"):
            verify_counting_lemma(C, {2: half, 3: half}, Fraction(1, 10))


def random_k3_complex(ell, m, p, seed):
    classes = tuple(frozenset(range(i * m, (i + 1) * m)) for i in range(ell))
    rng = substream(seed, "k3-complex", ell, m)
    pairs = KGraph(2, ell * m, frozenset(
        e for e in sorted(crossing_sets(classes, 2)) if rng.random() < p
    ))
    triples = frozenset(e for e in sorted(cliques(pairs, 3)) if rng.random() < p)
    return Complex(classes, {2: pairs, 3: KGraph(3, ell * m, triples)})


def naive_induced(F, H, vertex_sets):
    return sum(are_induced_isomorphic(F, induce(H, S)) for S in vertex_sets)


@pytest.mark.parametrize("seed", range(3))
def test_k3_induced_counts_match_naive(seed):
    H, Fw, _ = planted((4, 2), 16, seed)
    all_sets = list(itertools.combinations(range(H.n), 4))
    crossing = crossing_sets(Fw.vertex_classes, 4)
    for P in all_iso_classes(4, 3):
        assert count_induced(P, H) == Fraction(naive_induced(P, H, all_sets), len(all_sets))
        hits, total = count_crossing_induced(P, H, Fw.vertex_classes)
        assert (hits, total) == (naive_induced(P, H, crossing), len(crossing))


class TestICvsPr:
    def test_crossing_census_matches_naive(self):
        H, F, R = planted((4,), 28, 3)
        for P in all_iso_classes(3, 2):
            fast, total = count_crossing_induced(P, H, F.vertex_classes)
            target = tuple(sorted(canonical_form(P).edges))
            naive = 0
            for S in crossing_sets(F.vertex_classes, 3):
                sub = induce(H, S)
                if len(sub.edges) == len(P.edges) and tuple(
                    sorted(canonical_form(sub).edges)
                ) == target:
                    naive += 1
            assert fast == naive
            assert total == len(crossing_sets(F.vertex_classes, 3))

    def test_family_share_sums(self):
        H, Fw, R = planted((4,), 40, 4)
        shares = []
        for P in all_iso_classes(3, 2):
            hits, total = count_crossing_induced(P, H, Fw.vertex_classes)
            shares.append(Fraction(hits, total))
        assert sum(shares) == 1

    def test_uniformity_mismatch_rejected(self):
        H = KGraph(3, 6, {(0, 2, 4)})
        with pytest.raises(InputError, match="uniformity differ"):
            count_crossing_induced(KGraph(2, 3), H, [{0, 1}, {2, 3}, {4, 5}])

    @pytest.mark.parametrize("P", [KGraph(2, 3), KGraph(2, 4)])
    def test_class_vertex_out_of_range_rejected(self, P):
        H = KGraph(2, 6, {(0, 2)})
        with pytest.raises(InputError, match="out of range"):
            count_crossing_induced(P, H, [{0, 1}, {2, 3}, {4, 5}, {9}])

    @pytest.mark.parametrize("P", [KGraph(2, 3), KGraph(2, 4)])
    def test_overlapping_classes_rejected(self, P):
        # P on 3 vertices takes the triple-census path, on 4 the generic one
        H = KGraph(2, 4, {(0, 1), (1, 2)})
        with pytest.raises(InputError, match="not disjoint"):
            count_crossing_induced(P, H, [{0, 1}, {1, 2}, {3}, {0}])

    def test_report_lines_format(self):
        H, Fw, R = planted((4,), 60, 4)
        tri = KGraph(2, 3, {(0, 1), (0, 2), (1, 2)})
        rep = verify_ic_vs_pr(H, R, Fw, tri, Fraction(1, 4))
        for line in rep.lines:
            parts = line.split()
            assert parts[-1] in ("pass", "fail")
