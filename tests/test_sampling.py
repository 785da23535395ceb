import itertools
from fractions import Fraction
from math import comb, sqrt

import pytest

from hyperreg import (
    DensityFunction,
    InputError,
    KGraph,
    RegularityInstance,
    check_family_axioms,
)
from hyperreg.partitions import PartitionFamily
from hyperreg.sampling import (
    check_edge_concentration,
    induce_family,
    run_transfer_experiment,
    sample_vertices,
    stats_to_csv,
)

from conftest import planted, random_kgraph


class TestSampleVertices:
    def test_deterministic(self):
        assert sample_vertices(30, 10, 7) == sample_vertices(30, 10, 7)

    def test_q_equals_n_is_everything(self):
        assert sample_vertices(12, 12, 3) == tuple(range(12))

    def test_q_zero_empty(self):
        assert sample_vertices(12, 0, 3) == ()

    def test_sorted_and_distinct(self):
        Q = sample_vertices(50, 20, 5)
        assert list(Q) == sorted(set(Q)) and len(Q) == 20

    def test_oversample_rejected(self):
        with pytest.raises(InputError):
            sample_vertices(5, 6, 0)

    def test_uniform_over_subsets(self):
        # n=6, q=3: each of the C(6,3)=20 subsets should appear with
        # frequency 1/20 up to 3 sigma over many seeds
        trials = 4000
        counts = {}
        for seed in range(trials):
            counts[sample_vertices(6, 3, seed)] = counts.get(
                sample_vertices(6, 3, seed), 0
            ) + 1
        assert len(counts) == comb(6, 3)
        p = 1 / 20
        sigma = sqrt(trials * p * (1 - p))
        for c in counts.values():
            assert abs(c - trials * p) <= 3.5 * sigma


class TestInduceFamily:
    def test_full_sample_identity(self, small_planted_k3):
        _, F, _ = small_planted_k3
        G = induce_family(F, range(F.n))
        assert G == F and not G.relaxed

    def test_proper_subset_is_relaxed(self, small_planted_k2):
        _, F, _ = small_planted_k2
        Q = sample_vertices(F.n, F.n // 2, 1)
        G = induce_family(F, Q)
        assert G.relaxed and G.n == F.n // 2

    def test_vertex_classes_trace(self, small_planted_k2):
        _, F, _ = small_planted_k2
        Q = sample_vertices(F.n, 20, 2)
        G = induce_family(F, Q)
        relabel = {v: i for i, v in enumerate(Q)}
        for old_c, new_c in zip(F.vertex_classes, G.vertex_classes):
            assert new_c == frozenset(relabel[v] for v in old_c if v in relabel)

    def test_level_classes_restricted(self, small_planted_k3):
        _, F, _ = small_planted_k3
        Q = sample_vertices(F.n, 16, 4)
        G = induce_family(F, Q)
        qset = set(Q)
        relabel = {v: i for i, v in enumerate(Q)}
        for key, edges in F.level_classes[2].items():
            expect = frozenset(
                tuple(relabel[v] for v in e) for e in edges if qset >= set(e)
            )
            assert G.level_classes[2][key] == expect

    def test_axioms_on_restricted_ground(self, small_planted_k3):
        _, F, _ = small_planted_k3
        Q = sample_vertices(F.n, 18, 6)
        G = induce_family(F, Q)
        rep = check_family_axioms(G)
        # structural axioms (partition, polyad membership) hold even when
        # size axioms are waived by the relaxed flag
        assert not any("(v)" in f or "(vii)" in f for f in rep.failures)

    def test_vertex_out_of_range_rejected(self):
        F = PartitionFamily(2, 4, (2,), [{0, 1}, {2, 3}])
        with pytest.raises(InputError, match=r"vertex 9 out of range \[0, 4\)"):
            induce_family(F, [0, 2, 9])


class TestEdgeConcentration:
    def test_complete_graph_always_passes(self):
        H = KGraph.complete(2, 30)
        rep = check_edge_concentration(H, 15, Fraction(1, 10), 20, 0)
        assert rep.passes == 20 and rep.rate == 1

    def test_complete_3graph_centres_on_exact_mean(self):
        # |H[Q]| = C(q, k) on every sample; (q/n)^k·|E| = 142.5 misses
        # that 120 by more than the slack C(10, 3)/20 = 6
        rep = check_edge_concentration(KGraph.complete(3, 20), 10, Fraction(1, 20), 10, 0)
        assert rep.passes == 10

    def test_empty_graph_always_passes(self):
        H = KGraph(3, 20)
        rep = check_edge_concentration(H, 10, Fraction(1, 20), 10, 0)
        assert rep.rate == 1

    def test_fewer_vertices_than_k(self):
        # no 3-sets on 2 vertices, so the mean |E|·C(q,3)/C(n,3) is 0
        rep = check_edge_concentration(KGraph(3, 2), 1, Fraction(1, 20), 10, 0)
        assert rep.rate == 1

    def test_random_graph_high_rate(self):
        H = random_kgraph(2, 200, 0.5, 9)
        rep = check_edge_concentration(H, 60, Fraction(1, 20), 50, 3)
        assert rep.rate >= Fraction(9, 10)
        assert rep.ok == (float(rep.rate) >= rep.bound)

    def test_tiny_slack_fails(self):
        H = random_kgraph(2, 100, 0.5, 2)
        rep = check_edge_concentration(H, 30, Fraction(1, 10**6), 20, 1)
        assert rep.rate < Fraction(1, 2)

    def test_deterministic(self):
        H = random_kgraph(2, 80, 0.4, 4)
        a = check_edge_concentration(H, 30, Fraction(1, 20), 15, 6)
        b = check_edge_concentration(H, 30, Fraction(1, 20), 15, 6)
        assert (a.passes, a.rate, a.bound, a.ok) == (b.passes, b.rate, b.bound, b.ok)

    def test_zero_trials_rejected(self):
        with pytest.raises(InputError, match="trials must be >= 1"):
            check_edge_concentration(KGraph.complete(2, 10), 5, Fraction(1, 10), 0, 0)


@pytest.fixture(scope="module")
def stats():
    a = (3,)
    R = RegularityInstance(
        Fraction(1, 10), a, DensityFunction.constant(a, Fraction(1, 2))
    )
    return run_transfer_experiment(
        R, 200, 100, Fraction(3, 10), 6, 42, check_trials=8
    )


class TestTransferExperiment:
    def test_rates_consistent(self, stats):
        assert stats.trials == 6
        assert stats.q1_pass == sum(r.q1_pass for r in stats.records)
        assert stats.q2_pass == sum(r.q2_pass for r in stats.records)
        assert 0 <= stats.q1_rate() <= 1 and 0 <= stats.q2_rate() <= 1

    def test_high_pass_rate_at_generous_delta(self, stats):
        assert stats.q1_rate() >= Fraction(5, 6)
        assert stats.q2_rate() >= Fraction(5, 6)

    def test_records_carry_measurements(self, stats):
        for r in stats.records:
            assert r.measured_lambda >= 0
            assert r.worst_deviation >= 0

    def test_csv_format(self, stats):
        text = stats_to_csv(stats)
        lines = text.strip().split("\n")
        assert lines[0] == "trial,direction,pass,lambda,worst_deviation"
        assert len(lines) == 1 + 2 * stats.trials
        for line in lines[1:]:
            trial, direction, ok, lam, dev = line.split(",")
            assert direction in ("Q1", "Q2")
            assert ok in ("0", "1")
            float(lam), float(dev)

    def test_rows_carry_their_own_direction_deviation(self):
        # seed 1 at n = 60 deviates more in Q2 (0.35) than in Q1 (0.275):
        # the Q1 row must not show Q2's deviation
        a = (3,)
        R = RegularityInstance(
            Fraction(1, 10), a, DensityFunction.constant(a, Fraction(1, 2))
        )
        stats = run_transfer_experiment(R, 60, 30, Fraction(3, 10), 1, 1,
                                        check_trials=6)
        (r,) = stats.records
        assert r.q2_deviation > r.q1_deviation
        assert r.worst_deviation == r.q2_deviation
        rows = [line.split(",") for line in stats_to_csv(stats).split("\n")[1:3]]
        assert [(row[1], row[4]) for row in rows] == [
            ("Q1", f"{float(r.q1_deviation):.6f}"),
            ("Q2", f"{float(r.q2_deviation):.6f}"),
        ]

    def test_deterministic(self):
        a = (3,)
        R = RegularityInstance(
            Fraction(1, 10), a, DensityFunction.constant(a, Fraction(1, 2))
        )
        s1 = run_transfer_experiment(R, 120, 60, Fraction(3, 10), 2, 7,
                                     check_trials=6)
        s2 = run_transfer_experiment(R, 120, 60, Fraction(3, 10), 2, 7,
                                     check_trials=6)
        assert stats_to_csv(s1) == stats_to_csv(s2)

    @pytest.mark.parametrize("n, q, delta, trials, message", [
        (120, 0, Fraction(3, 10), 2, r"^q=0 outside \[a1\*k=6, n=120\]$"),
        (120, 121, Fraction(3, 10), 2, r"^q=121 outside \[a1\*k=6, n=120\]$"),
        (4, 4, Fraction(3, 10), 2, r"^n=4 below a1\*k=6$"),
        (120, 60, Fraction(-1), 2, r"^delta -1 must be >= 0$"),
        (120, 60, Fraction(3, 10), 0, r"^trials 0 must be >= 1$"),
    ], ids=["q-low", "q-high", "n-low", "delta", "trials"])
    def test_arguments_checked_up_front(self, n, q, delta, trials, message):
        a = (3,)
        R = RegularityInstance(
            Fraction(1, 10), a, DensityFunction.constant(a, Fraction(1, 2))
        )
        with pytest.raises(InputError, match=message):
            run_transfer_experiment(R, n, q, delta, trials, 7)
