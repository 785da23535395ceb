import hashlib
import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from hyperreg import (
    ConstructionError,
    DensityFunction,
    InputError,
    KGraph,
    RegularityInstance,
    check_family_axioms,
    family_refines,
    family_to_text,
    kgraph_to_text,
    sym_diff_distance,
)
from hyperreg.addresses import address_space
from hyperreg.partitions import PartitionFamily
from hyperreg.rng import substream
from hyperreg.transforms import (
    PlantSpec,
    equalize,
    perturb_family,
    plant,
    reconstruct,
    refine_family,
    slice,
)

from conftest import planted


class TestPlant:
    def test_deterministic_bit_identical(self):
        a = (4, 2)
        R = RegularityInstance(
            Fraction(1, 10), a, DensityFunction.constant(a, Fraction(1, 2))
        )
        H1, F1, _ = plant(PlantSpec(R, 24, 99))
        H2, F2, _ = plant(PlantSpec(R, 24, 99))
        assert H1 == H2 and F1 == F2

    def test_different_seeds_differ(self):
        H1, _, _ = planted((4,), 40, 1)
        H2, _, _ = planted((4,), 40, 2)
        assert H1 != H2

    def test_density_one_fills_crossing_cliques(self):
        a = (4, 2)
        R = RegularityInstance(Fraction(1, 10), a, DensityFunction.constant(a, 1))
        H, F, _ = plant(PlantSpec(R, 24, 3))
        assert H.edges == frozenset(F.crossing(3))

    def test_density_zero_empty(self):
        a = (4,)
        R = RegularityInstance(Fraction(1, 10), a, DensityFunction.constant(a, 0))
        H, F, _ = plant(PlantSpec(R, 20, 3))
        assert not H.edges

    def test_axioms_hold(self, small_planted_k3):
        _, F, _ = small_planted_k3
        assert check_family_axioms(F).ok

    @pytest.mark.parametrize("seed", range(8))
    def test_strict_plant_passes_its_axioms(self, seed):
        # at n = 16 the uniform labels starve some level classes (seeds 0,
        # 1, 2, 5 and 6); such a plant must come back relaxed
        _, F, _ = planted((4, 2, 2), 16, seed)
        rep = check_family_axioms(F)
        assert rep.ok, rep.failures

    def test_measured_epsilon_reported(self):
        a = (3,)
        R = RegularityInstance(
            Fraction(1, 10), a, DensityFunction.constant(a, Fraction(1, 2))
        )
        _, _, eps_hat = plant(PlantSpec(R, 120, 11, measure_epsilon=True))
        assert eps_hat is not None and 0 <= eps_hat < Fraction(1, 10)

    def test_n_too_small_rejected(self):
        a = (4,)
        R = RegularityInstance(Fraction(1, 10), a, DensityFunction.constant(a, 1))
        with pytest.raises(InputError):
            PlantSpec(R, 7, 0)


class TestSlice:
    def test_single_full_slice_is_identity(self, small_planted_k2):
        H, F, R = small_planted_k2
        x = F.class_addresses(2)[0]
        out = slice(H, F.polyad(x), Fraction(1, 2), Fraction(1, 10), [1], 0,
                    recheck=False)
        assert out[1] == H and not out[0].edges

    def test_partition_of_edges(self, small_planted_k2):
        H, F, R = small_planted_k2
        x = F.class_addresses(2)[0]
        out = slice(H, F.polyad(x), Fraction(1, 2), Fraction(1, 10),
                    [Fraction(1, 3), Fraction(1, 3)], 5, recheck=False)
        union = set()
        for cls in out:
            assert union.isdisjoint(cls.edges)
            union |= cls.edges
        assert union == set(H.edges)

    def test_size_concentration(self):
        sizes = []
        for seed in range(10):
            H, F, R = planted((3,), 90, seed)
            x = F.class_addresses(2)[0]
            out = slice(H, F.polyad(x), Fraction(1, 2), Fraction(1, 10),
                        [Fraction(1, 2)], seed, recheck=False)
            sizes.append(len(out[1].edges) / len(H.edges))
        mean = sum(sizes) / len(sizes)
        assert abs(mean - 0.5) < 0.05

    def test_recheck_passes_at_scale(self):
        H, F, R = planted((3,), 150, 4)
        x = F.class_addresses(2)[0]
        out = slice(H, F.polyad(x), Fraction(1, 2), Fraction(1, 10),
                    [Fraction(1, 2), Fraction(1, 2)], 8)
        assert len(out) == 3 and not out[0].edges

    def test_super_stochastic_rejected(self, small_planted_k2):
        H, F, _ = small_planted_k2
        x = F.class_addresses(2)[0]
        with pytest.raises(InputError):
            slice(H, F.polyad(x), Fraction(1, 2), Fraction(1, 10),
                  [Fraction(2, 3), Fraction(2, 3)], 0)

    @pytest.mark.parametrize("d, eps, message", [
        (2, Fraction(1, 10), "density 2 outside"),
        (-1, Fraction(1, 10), "density -1 outside"),
        (Fraction(1, 2), 0, "epsilon 0 outside"),
        (Fraction(1, 2), Fraction(11, 10), "epsilon 11/10 outside"),
    ])
    def test_out_of_range_d_or_eps_rejected_before_any_attempt(
        self, small_planted_k2, monkeypatch, d, eps, message
    ):
        from hyperreg import transforms

        def refused(*args):
            raise AssertionError("slice drew an attempt")

        H, F, _ = small_planted_k2
        x = F.class_addresses(2)[0]
        monkeypatch.setattr(transforms, "_assign_classes", refused)
        with pytest.raises(InputError, match=message):
            slice(H, F.polyad(x), d, eps, [Fraction(1, 2)], 0)

    def test_impossible_recheck_raises_construction_error(self):
        # densities far from the requested p*d at tiny epsilon cannot pass
        H, F, R = planted((3,), 60, 2)
        x = F.class_addresses(2)[0]
        with pytest.raises(ConstructionError) as exc:
            slice(H, F.polyad(x), Fraction(1, 100), Fraction(1, 1000),
                  [Fraction(1, 2)], 0)
        assert exc.value.condition == "slicing"


# Slow oracles for the Bernoulli draw sites: the library compares random()
# with a float threshold, these compare it with the Fraction itself.
NON_DYADIC = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 9))


def _oracle_plant_edges(R, F, seed):
    edges = set()
    for x in address_space(R.k, R.k - 1, R.a):
        rng = substream(seed, "edge", x.encode())
        edges.update(L for L in sorted(F.polyad_cliques(x, R.k)) if rng.random() < R.d(x))
    return frozenset(edges)


def _oracle_assign(items, probs, rng):
    cuts = list(itertools.accumulate(probs))
    buckets = [set() for _ in range(len(probs) + 1)]
    for it in items:
        u = rng.random()
        buckets[next((i for i, c in enumerate(cuts, start=1) if u < c), 0)].add(it)
    return [frozenset(b) for b in buckets]


class TestDrawOracle:
    @pytest.mark.parametrize("a, n", [((3,), 30), ((4, 2), 16)])
    def test_plant_edges_match_fraction_draws(self, a, n):
        space = address_space(len(a) + 1, len(a), a)
        d = DensityFunction(a, {x: NON_DYADIC[i % 3] for i, x in enumerate(space)})
        R = RegularityInstance(Fraction(1, 10), a, d)
        for seed in range(4):
            H, F, _ = plant(PlantSpec(R, n, seed))
            assert H.edges and H.edges == _oracle_plant_edges(R, F, seed)

    @pytest.mark.parametrize("probs", [NON_DYADIC[:1] * 2, NON_DYADIC[1:]])
    def test_slice_classes_match_fraction_draws(self, probs):
        for seed in range(4):
            H, F, R = planted((3,), 40, seed, density=NON_DYADIC[2])
            x = F.class_addresses(2)[0]
            out = slice(H, F.polyad(x), NON_DYADIC[2], Fraction(1, 10), probs, seed,
                        recheck=False)
            ref = _oracle_assign(sorted(H.edges), probs, substream(seed, "slice", 0))
            assert [c.edges for c in out] == ref


class TestRefine:
    def test_identity_shape(self, small_planted_k3):
        _, F, _ = small_planted_k3
        G = refine_family(F, F.a, 0)
        assert family_refines(G, F)["max"] == 0
        assert G.vertex_classes == F.vertex_classes

    def test_exact_refinement_and_axioms_k2(self):
        _, F, _ = planted((3,), 48, 6)
        G = refine_family(F, (6,), 1)
        assert G.a == (6,)
        assert family_refines(G, F)["max"] == 0
        assert check_family_axioms(G).ok

    def test_exact_refinement_k3(self):
        _, F, _ = planted((3, 2), 48, 6)
        G = refine_family(F, (6, 4), 2)
        assert family_refines(G, F)["max"] == 0
        rep = check_family_axioms(G)
        if not G.relaxed:
            assert rep.ok, rep.failures

    def test_vertex_split_keeps_membership(self):
        _, F, _ = planted((3,), 30, 4)
        G = refine_family(F, (6,), 1)
        for new_c in G.vertex_classes:
            assert any(new_c <= old for old in F.vertex_classes)

    def test_indivisible_shape_rejected(self, small_planted_k3):
        _, F, _ = small_planted_k3
        with pytest.raises(InputError):
            refine_family(F, (5, 2), 0)

    @pytest.mark.parametrize("b", [(0, 2), (4, 0)])
    def test_shape_below_a_rejected(self, small_planted_k3, b):
        # 0 % a == 0, yet 0 is no refinement of a
        _, F, _ = small_planted_k3
        with pytest.raises(InputError, match="positive multiple"):
            refine_family(F, b, 0)

    def test_partly_covered_polyad_rejected(self, small_planted_k3):
        # one pair dropped from its level-2 class leaves its polyad with
        # covered and uncovered sets, which no label block can split
        _, F, _ = small_planted_k3
        lc = {2: dict(F.level_classes[2])}
        key = next(key for key, e in sorted(lc[2].items()) if e)
        lc[2][key] -= {min(lc[2][key])}
        G = PartitionFamily(F.k, F.n, F.a, F.vertex_classes, lc, relaxed=True)
        with pytest.raises(InputError, match=f"polyad at {key[0].encode()} mixes covered"):
            refine_family(G, F.a, 0)

    def test_deterministic(self):
        _, F, _ = planted((3, 2), 36, 8)
        assert refine_family(F, (6, 2), 5) == refine_family(F, (6, 2), 5)


class TestEqualize:
    def test_identity_on_balanced(self, small_planted_k3):
        _, F, _ = small_planted_k3
        assert equalize(F) == F

    def test_restores_size_window(self):
        _, F, _ = planted((4,), 40, 5)
        # unbalance by hand: move three vertices from class 0 to class 1
        moved = sorted(F.vertex_classes[0])[:3]
        vcs = list(F.vertex_classes)
        vcs[0] = vcs[0] - frozenset(moved)
        vcs[1] = vcs[1] | frozenset(moved)
        bad = PartitionFamily(2, 40, (4,), vcs, relaxed=True)
        out = equalize(bad)
        sizes = sorted(len(c) for c in out.vertex_classes)
        assert max(sizes) - min(sizes) <= 1
        assert check_family_axioms(
            PartitionFamily(2, 40, (4,), out.vertex_classes)
        ).ok

    def test_perturbation_bound(self):
        # at most 2^j * j! * lambda * n^j j-sets change class per level
        n = 36
        _, F, _ = planted((3, 2), n, 9)
        moved = sorted(F.vertex_classes[0])[:2]
        vcs = list(F.vertex_classes)
        vcs[0] = vcs[0] - frozenset(moved)
        vcs[1] = vcs[1] | frozenset(moved)
        vcs = tuple(vcs)
        partial = PartitionFamily(3, n, (3, 2), vcs, relaxed=True)
        lc2 = {}
        for x in partial.class_addresses(2):
            buckets = {1: set(), 2: set()}
            for L in partial.polyad_cliques(x, 2):
                hit = F.containing_class(L)
                buckets[hit[1] if hit is not None else 2].add(L)
            for b in (1, 2):
                lc2[(x, b)] = frozenset(buckets[b])
        bad = PartitionFamily(3, n, (3, 2), vcs, {2: lc2}, relaxed=True)
        lam = bad.class_sizes_balanced()
        out = equalize(bad)
        for j in (1, 2):
            if j == 1:
                changed = sum(
                    len(a ^ b)
                    for a, b in zip(bad.vertex_classes, out.vertex_classes)
                ) // 2
            else:
                changed = sum(
                    1 for L in itertools.combinations(range(n), 2)
                    if bad.containing_class(L) != out.containing_class(L)
                )
            assert changed <= 2 ** j * factorial(j) * lam * n ** j

    def test_emptied_class_raises(self):
        # squeeze one class to nothing so the rebuild starves a label
        _, F, _ = planted((3, 2), 12, 1)
        vcs = list(F.vertex_classes)
        vcs[2] = vcs[2] | vcs[0]
        vcs[0] = frozenset()
        bad = PartitionFamily(3, 12, (3, 2), tuple(vcs), F.level_classes,
                              relaxed=True)
        with pytest.raises(ConstructionError) as exc:
            equalize(bad)
        assert exc.value.condition == "equalize"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestBuilderDigests:
    """Pinned output bytes of plant, refine_family and equalize.  At k = 4
    the level builder also runs level 3, and both k = 4 refinements starve
    a label."""

    @pytest.fixture(scope="class")
    def planted_k4(self):
        return planted((4, 2, 2), 16, 3)

    def test_plant_k4(self, planted_k4):
        H, F, _ = planted_k4
        assert _sha256(kgraph_to_text(H)) == (
            "61916cbe79c5023af26be41793dbf85bf9b56eab1cfa741df9ec3e2e4bda46aa"
        )
        assert _sha256(family_to_text(F)) == (
            "737039b234c7f08fc10451e60980a4897f1d7df56f8e7a5630a7772dfd55757d"
        )

    @pytest.mark.parametrize("b, digest", [
        ((4, 2, 4), "aa0c647d180ec7512eeb39492d2e507db706e490a03f9d849527499b431c8a7f"),
        ((8, 4, 2), "a336a0399a1f5acfbd69ccc7bd2451cb925136f835ca4c3e412a7f0a3e2f495b"),
    ])
    def test_refine_k4_starves_a_label(self, planted_k4, b, digest):
        G = refine_family(planted_k4[1], b, 3)
        assert G.relaxed
        assert _sha256(family_to_text(G)) == digest

    def test_equalize_k4(self, planted_k4):
        _, F, _ = planted_k4
        vcs = list(F.vertex_classes)
        vcs[0], vcs[3] = vcs[0] - {0}, vcs[3] | {0}
        bad = PartitionFamily(4, 16, F.a, vcs, F.level_classes, relaxed=True)
        assert _sha256(family_to_text(equalize(bad))) == (
            "2a3c85939a7b9841f65706bd9309ce4db21035486a8744a6c602a4cedca963c2"
        )

    def test_plant_transfer_configuration(self):
        H, F, _ = planted((3,), 400, 101)
        assert _sha256(kgraph_to_text(H)) == (
            "b4cd561e2b64b2a57b12bfcb597938e1a85da004fe6226e19c3eb8b45376fb64"
        )
        assert _sha256(family_to_text(F)) == (
            "3c46d8e4cbe4bdd1f0409b00ccf1ebf4fa271364e93525ddadde2c73fc08b28b"
        )

    def test_equalize_k3_interleaved_classes(self):
        # relabel v -> 5v mod 18 so that every vertex class interleaves with
        # the others, then unbalance the classes by moving one vertex
        _, F, _ = planted((3, 2), 18, 4)
        vcs = [frozenset(5 * v % 18 for v in c) for c in F.vertex_classes]
        level_classes = {
            j: {key: {tuple(5 * v % 18 for v in e) for e in edges}
                for key, edges in classes.items()}
            for j, classes in F.level_classes.items()
        }
        moved = min(vcs[0])
        vcs[0], vcs[2] = vcs[0] - {moved}, vcs[2] | {moved}
        bad = PartitionFamily(3, 18, F.a, vcs, level_classes, relaxed=True)
        assert _sha256(family_to_text(equalize(bad))) == (
            "3454ab3f4d5f21a997de68913af48e86f254f6e6529205d488be3a951c404fbb"
        )

    @pytest.mark.parametrize("b, relaxed, digest", [
        ((3, 8), True, "8015e688425bb17ea6caae999a02c1ce41bad9f338b7a5500647352046a8763c"),
        ((3, 4), False, "fbf58a1f82f8d9186d2b26fbd2af0cdd96104fa1297862ea1aa3d9c6d0c0c631"),
    ])
    def test_refine_k3_relaxed_only_when_starved(self, b, relaxed, digest):
        _, F, _ = planted((3, 2), 9, 1)
        G = refine_family(F, b, 1)
        assert G.relaxed is relaxed
        assert _sha256(family_to_text(G)) == digest


class TestReconstruct:
    def test_exact_refinement_recovers(self):
        _, O, _ = planted((3, 2), 36, 3)
        P = refine_family(O, (6, 4), 4)
        out = reconstruct(O, P, Fraction(0))
        assert family_refines(P, out)["max"] == 0
        assert out == O or family_refines(out, O)["max"] == 0

    def test_after_perturbation(self):
        n = 40
        _, O, _ = planted((4,), n, 6)
        P0 = refine_family(O, (8,), 2)
        nu = Fraction(1, 10)
        P = perturb_family(P0, nu, 3)
        measured = family_refines(P, O)["max"]
        out = reconstruct(O, P, max(measured, nu))
        assert family_refines(P, out)["max"] == 0
        # each reconstructed class stays close to its original counterpart
        bound = max(measured, nu) ** Fraction(1, 2) * n
        for c_new, c_old in zip(out.vertex_classes, O.vertex_classes):
            assert len(c_new ^ c_old) <= 2 * bound

    def test_distance_above_nu_rejected(self):
        _, O, _ = planted((4,), 24, 1)
        P = perturb_family(O, Fraction(1, 4), 5)
        measured = family_refines(P, O)["max"]
        if measured == 0:
            pytest.skip("perturbation was a no-op at this seed")
        with pytest.raises(InputError):
            reconstruct(O, P, measured / 2)

    def test_axioms_on_output(self):
        _, O, _ = planted((3, 2), 36, 5)
        P = refine_family(O, (6, 2), 7)
        out = reconstruct(O, P, Fraction(0))
        rep = check_family_axioms(out)
        if not out.relaxed:
            assert rep.ok, rep.failures

    def test_starved_label_makes_output_relaxed(self):
        # O and P are strict and pass their axioms, but no P-class at the
        # polyad of vertex classes 1 and 2 takes label 2
        _, O, _ = planted((4, 2), 16, 12)
        P = perturb_family(refine_family(O, (4, 4), 12), Fraction(1, 5), 12)
        out = reconstruct(O, P, 1)
        assert out.relaxed and check_family_axioms(out).ok
        strict = PartitionFamily(
            out.k, out.n, out.a, out.vertex_classes, out.level_classes
        )
        assert check_family_axioms(strict).failures == [
            "(i): empty class (1,2,2) on a nonempty polyad"
        ]

    # Pinned output bytes: P is O or its refinement to shape b, perturbed
    # by nu, and reconstruct runs at P's measured distance from O.
    @pytest.mark.parametrize("a, n, seed, b, nu, digest", [
        ((3, 2), 36, 3, (6, 4), 0,
         "280e52752a7455280c59fd4c7bbac8f51e7354e20e0b40872bce2534dc653275"),
        ((3, 2), 36, 3, (6, 4), Fraction(1, 20),
         "bfb199a77cbcc673889419e9ae80195d242755a826edb2038f74eb90c497e567"),
        ((4, 2), 24, 7, (8, 4), 0,
         "177fa38242f4ddf4fea4f7211be3ccd99139b04df2dc1dcbb6165071b15c203a"),
        ((4, 2), 24, 7, (8, 4), Fraction(1, 20),
         "535ba51d06e8c539a72b4c3c5e9213dd2728048f1cb77b6c4e4de2074a589a67"),
        ((4, 2, 2), 16, 3, (4, 2, 4), 0,
         "d1740f3916d2339988308469b5793f1a5d3503a8112ff83d51b2d73020d14dd1"),
        ((4, 2, 2), 16, 3, None, Fraction(1, 200),
         "083af07d1b5a84e9862edaa3735830977bc0d960344c6770d38fcf0abb6535b1"),
    ])
    def test_digest(self, a, n, seed, b, nu, digest):
        _, O, _ = planted(a, n, seed)
        P = perturb_family(refine_family(O, b, seed) if b else O, nu, seed)
        assert check_family_axioms(P).ok
        measured = family_refines(P, O)["max"]
        assert (measured > 0) is (nu > 0)
        out = reconstruct(O, P, measured)
        assert _sha256(family_to_text(out)) == digest


class TestPerturb:
    def test_nu_zero_identity(self, small_planted_k3):
        _, F, _ = small_planted_k3
        assert perturb_family(F, 0, 1) == F

    def test_k2_moves_bounded(self):
        _, F, _ = planted((4,), 40, 2)
        nu = Fraction(1, 8)
        out = perturb_family(F, nu, 9)
        moved = sum(
            len(a - b) for a, b in zip(F.vertex_classes, out.vertex_classes)
        )
        assert moved <= int(nu * 40)
        assert family_refines(out, F)["max"] <= 2 * nu

    def test_k3_within_polyad_and_vii_preserved(self):
        _, F, _ = planted((3, 2), 30, 8)
        nu = Fraction(1, 20)
        out = perturb_family(F, nu, 4)
        assert out.vertex_classes == F.vertex_classes
        # every class still sits inside its polyad's clique set
        for (x, b), edges in out.level_classes[2].items():
            assert edges <= frozenset(out.polyad_cliques(x, 2))
        moved = sum(
            len(F.level_classes[2].get(key, frozenset()) - edges)
            for key, edges in out.level_classes[2].items()
        )
        assert moved <= int(nu * comb(30, 2))

    @pytest.mark.parametrize("a,n", [((4, 2), 24), ((3, 2), 30), ((4, 2, 2), 16)])
    def test_keeps_axioms(self, a, n):
        for seed in range(4):
            _, F, _ = planted(a, n, seed)
            for nu in (Fraction(1, 20), Fraction(1, 5), Fraction(1, 2)):
                report = check_family_axioms(perturb_family(F, nu, seed))
                assert report.failures == [], (seed, nu)

    def test_deterministic(self):
        _, F, _ = planted((3, 2), 24, 3)
        assert perturb_family(F, Fraction(1, 10), 6) == perturb_family(
            F, Fraction(1, 10), 6
        )
