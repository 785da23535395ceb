"""Vertex sampling, induced partition families, edge-count concentration,
and the Monte-Carlo transfer experiment.

The transfer experiment checks, on planted instances, that regularity
survives passing to a uniform vertex sample: direction Q1 re-checks the
induced (and equalized) witness on the sampled sub-hypergraph at the same
density function; direction Q2 is the planted-model analogue in the other
direction.  A failed induced witness is inconclusive-negative, never a
counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .errors import InputError
from .hypergraph import KGraph, induce
from .partitions import PartitionFamily
from .regularity import RegularityInstance, check_instance_witness
from .rng import derive_seed, substream
from .transforms import PlantSpec, equalize, plant


def sample_vertices(n: int, q: int, seed) -> tuple:
    """Uniform q-subset of [0, n) via seeded shuffle-prefix."""
    if q > n or q < 0:
        raise InputError(f"cannot sample {q} of {n} vertices")
    ids = list(range(n))
    substream(seed, "sample").shuffle(ids)
    return tuple(sorted(ids[:q]))


def induce_family(F: PartitionFamily, Q) -> PartitionFamily:
    """Restrict every class to Q and relabel vertices to [0, |Q|).

    The result is relaxed (classes may be empty or badly sized) unless
    Q = V, in which case it is structurally identical to F.
    """
    Q = sorted(set(Q))
    for v in Q:
        if not 0 <= v < F.n:
            raise InputError(f"vertex {v} out of range [0, {F.n})")
    relabel = {v: i for i, v in enumerate(Q)}
    qset = set(Q)
    vcs = tuple(
        frozenset(relabel[v] for v in c & qset) for c in F.vertex_classes
    )
    level_classes = {}
    for j in range(2, F.k):
        level_classes[j] = {
            key: frozenset(
                tuple(relabel[v] for v in e) for e in edges if qset.issuperset(e)
            )
            for key, edges in F.level_classes[j].items()
        }
    full = len(Q) == F.n
    return PartitionFamily(
        F.k, len(Q), F.a, vcs, level_classes, relaxed=F.relaxed or not full
    )


# ---------------------------------------------------------------------------
# edge-count concentration

@dataclass
class ConcentrationReport:
    trials: int
    passes: int
    rate: Fraction
    bound: float
    ok: bool

    def __bool__(self):
        return self.ok


def _edges_inside(H: KGraph, qset) -> int:
    """|H[qset]|."""
    if H.k == 2:
        adj = H.adjacency_masks()
        qmask = sum(1 << v for v in qset)
        return sum((adj[v] & qmask).bit_count() for v in qset) // 2
    s = set(qset)
    return sum(1 for e in H.edges if s.issuperset(e))


def check_edge_concentration(H: KGraph, q: int, nu, trials: int, seed) -> ConcentrationReport:
    """Fraction of uniform q-samples with |H[Q]| within nu·C(q,k) of its
    exact mean |E|·C(q,k)/C(n,k), against the 1 - 2e^(-nu^2 q / (8 k^2))
    prediction."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    nu = Fraction(nu)
    k, n = H.k, H.n
    # n < k leaves no k-sets and no edges: the mean is 0
    expected = Fraction(len(H.edges) * comb(q, k), comb(n, k) or 1)
    slack = nu * comb(q, k)
    passes = 0
    for t in range(trials):
        Q = sample_vertices(n, q, derive_seed(seed, "conc", t))
        cnt = _edges_inside(H, Q)
        if abs(Fraction(cnt) - expected) <= slack:
            passes += 1
    bound = 1 - 2 * math.exp(-float(nu) ** 2 * q / (8 * k * k))
    rate = Fraction(passes, trials)
    return ConcentrationReport(trials, passes, rate, bound, float(rate) >= bound)


# ---------------------------------------------------------------------------
# the transfer experiment

@dataclass
class TrialRecord:
    trial: int
    seed: int
    q1_pass: bool
    q2_pass: bool
    measured_lambda: Fraction
    q1_deviation: Fraction
    q2_deviation: Fraction  # the larger of the two Q2 checks'

    @property
    def worst_deviation(self) -> Fraction:
        return max(self.q1_deviation, self.q2_deviation)


@dataclass
class TransferStats:
    trials: int
    q1_pass: int
    q2_pass: int
    delta: Fraction
    epsilon0: Fraction
    records: list = field(default_factory=list)

    def q1_rate(self) -> Fraction:
        return Fraction(self.q1_pass, self.trials) if self.trials else Fraction(0)

    def q2_rate(self) -> Fraction:
        return Fraction(self.q2_pass, self.trials) if self.trials else Fraction(0)


def check_transfer_args(R: RegularityInstance, n: int, q: int, delta, trials: int):
    """Raise InputError unless run_transfer_experiment accepts these."""
    if trials < 1:
        raise InputError(f"trials {trials} must be >= 1")
    if delta < 0:
        raise InputError(f"delta {delta} must be >= 0")
    lo = R.a[0] * R.k
    if n < lo:
        raise InputError(f"n={n} below a1*k={lo}")
    if not lo <= q <= n:
        raise InputError(f"q={q} outside [a1*k={lo}, n={n}]")


def run_transfer_experiment(
    R: RegularityInstance, n: int, q: int, delta, trials: int, seed,
    *, check_trials: int = 12,
) -> TransferStats:
    """Per trial: plant (H, F) for R on n vertices, sample Q; (Q1) check the
    induced-and-equalized family as a witness that H[Q] satisfies the same
    instance at epsilon0 + delta; (Q2) check a fresh planting at sample
    scale against an independent full-scale planting of the same densities."""
    delta = Fraction(delta)
    check_transfer_args(R, n, q, delta, trials)
    relaxed_R = RegularityInstance(min(R.epsilon + delta, Fraction(1)), R.a, R.d)
    q1 = q2 = 0
    records = []
    for t in range(trials):
        t_seed = derive_seed(seed, "trial", t)
        H, F, _ = plant(PlantSpec(R, n, derive_seed(t_seed, "plant")))
        Q = sample_vertices(n, q, derive_seed(t_seed, "subset"))
        HQ = induce(H, Q)
        FQ = induce_family(F, Q)
        lam = FQ.class_sizes_balanced()
        FQ_eq = equalize(FQ)
        v1 = check_instance_witness(
            HQ, relaxed_R, FQ_eq,
            trials=check_trials, seed=derive_seed(t_seed, "q1"),
        )

        Hq, Fq, _ = plant(PlantSpec(R, q, derive_seed(t_seed, "plant-small")))
        v2_small = check_instance_witness(
            Hq, relaxed_R, Fq,
            trials=check_trials, seed=derive_seed(t_seed, "q2-small"),
        )
        Hn, Fn, _ = plant(PlantSpec(R, n, derive_seed(t_seed, "plant-big")))
        v2_big = check_instance_witness(
            Hn, relaxed_R, Fn,
            trials=check_trials, seed=derive_seed(t_seed, "q2-big"),
        )
        q2_ok = v2_small.ok and v2_big.ok

        q1 += v1.ok
        q2 += q2_ok
        records.append(
            TrialRecord(
                t, t_seed, v1.ok, q2_ok, lam, v1.worst_deviation,
                max(v2_small.worst_deviation, v2_big.worst_deviation),
            )
        )
    return TransferStats(trials, q1, q2, delta, R.epsilon, records)


def stats_to_csv(stats: TransferStats) -> str:
    lines = ["trial,direction,pass,lambda,worst_deviation"]
    for r in stats.records:
        for name, ok, dev in (("Q1", r.q1_pass, r.q1_deviation),
                              ("Q2", r.q2_pass, r.q2_deviation)):
            lines.append(
                f"{r.trial},{name},{int(ok)},{float(r.measured_lambda):.6f},"
                f"{float(dev):.6f}"
            )
    return "\n".join(lines) + "\n"
