import itertools
from fractions import Fraction
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperreg import (
    Complex,
    InputError,
    KGraph,
    cliques,
    count_induced,
    crossing_sets,
    induce,
    kgraph_from_text,
    kgraph_to_text,
)
from hyperreg.counting import count_crossing_induced
from hyperreg.errors import CapabilityError
from hyperreg.hypergraph import (
    _class_index,
    _lex_crossing_sets,
    all_iso_classes,
    are_induced_isomorphic,
    automorphism_count,
    canonical_form,
    cliques_naive,
)
from hyperreg.partitions import PartitionFamily, VertexClassGraph
from hyperreg.regularity import check_regular_exhaustive

from conftest import random_kgraph


class TestKGraph:
    def test_edge_canonicalization(self):
        H = KGraph(3, 5, {(2, 0, 4)})
        assert (0, 2, 4) in H.edges

    def test_repeated_vertex_rejected(self):
        with pytest.raises(InputError):
            KGraph(2, 4, {(1, 1)})

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            KGraph(2, 3, {(1, 3)})

    def test_wrong_size_rejected(self):
        with pytest.raises(InputError):
            KGraph(3, 5, {(0, 1)})

    def test_complete_and_empty(self):
        assert len(KGraph.complete(2, 5)) == 10
        assert len(KGraph.empty(3, 5)) == 0

    def test_adjacency_built_once_and_outside_the_fields(self):
        H = KGraph(2, 4, {(0, 1), (1, 3)})
        before = (repr(H), hash(H))
        adj = H.adjacency_masks()
        assert adj == (0b10, 0b1001, 0, 0b10)
        assert H.adjacency_masks() is adj
        assert (repr(H), hash(H)) == before and H == KGraph(2, 4, {(0, 1), (1, 3)})


# every validator of vertex classes, as (classes, n) -> result; those that
# take a vertex count check range too
PARTITION_CALLERS = {
    "crossing_sets": lambda cs, n: crossing_sets(cs, 2),
    "Complex": lambda cs, n: Complex(cs, {}),
    "_pair_scorer": lambda cs, n: check_regular_exhaustive(
        KGraph(2, n), VertexClassGraph(cs), Fraction(1, 4), Fraction(1, 2)
    ),
    "PartitionFamily": lambda cs, n: PartitionFamily(2, n, (len(cs),), cs),
    "count_crossing_induced": lambda cs, n: count_crossing_induced(
        KGraph(2, 3), KGraph(2, n), cs
    ),
}
RANGED = ["_pair_scorer", "PartitionFamily", "count_crossing_induced"]


class TestVertexPartitionCheck:
    def test_index_maps_vertices_to_class_positions(self):
        assert _class_index([{0, 3}, (), [1]], 4) == {0: 0, 3: 0, 1: 2}

    @pytest.mark.parametrize("caller", PARTITION_CALLERS)
    def test_overlap(self, caller):
        classes = [frozenset({0, 1}), frozenset({1, 2}), frozenset({3})]
        with pytest.raises(InputError, match=r"^vertex classes are not disjoint$"):
            PARTITION_CALLERS[caller](classes, 6)

    @pytest.mark.parametrize("caller", RANGED)
    def test_range(self, caller):
        classes = [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 9})]
        with pytest.raises(InputError, match=r"^vertex 9 out of range \[0, 6\)$"):
            PARTITION_CALLERS[caller](classes, 6)

    @pytest.mark.parametrize("caller", RANGED)
    def test_range_before_overlap(self, caller):
        # the overlap comes first in class order, the stray vertex last
        classes = [frozenset({0, 1}), frozenset({1, 2}), frozenset({9})]
        with pytest.raises(InputError, match=r"^vertex 9 out of range \[0, 6\)$"):
            PARTITION_CALLERS[caller](classes, 6)


class TestCrossingSets:
    def test_two_classes_product(self):
        out = crossing_sets([{0, 1}, {2, 3}], 2)
        assert out == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_j_exceeding_classes_is_empty(self):
        assert crossing_sets([{0}, {1}], 3) == set()

    def test_overlapping_classes_rejected(self):
        with pytest.raises(InputError):
            crossing_sets([{0, 1}, {1, 2}], 2)

    def test_crossing_count_formula(self):
        classes = [set(range(0, 3)), set(range(3, 7)), set(range(7, 9))]
        assert len(crossing_sets(classes, 2)) == 3 * 4 + 3 * 2 + 4 * 2


@st.composite
def disjoint_classes(draw):
    """Up to 5 disjoint vertex classes over sparse ids: interleaved or
    contiguous, some of them empty or single vertices."""
    verts = sorted(draw(st.lists(st.integers(0, 40), unique=True, max_size=14)))
    m = draw(st.integers(1, 5))
    labels = draw(st.lists(st.integers(0, m - 1), min_size=len(verts), max_size=len(verts)))
    if draw(st.booleans()):
        labels.sort()
    return [{v for v, c in zip(verts, labels) if c == i} for i in range(m)]


class TestCrossingOrderOracle:
    """The lexicographic enumerator against product-and-sort."""

    @staticmethod
    def reference(classes, j):
        out = set()
        for chosen in itertools.combinations([c for c in classes if c], j):
            out.update(tuple(sorted(combo)) for combo in itertools.product(*chosen))
        return sorted(out)

    @settings(max_examples=300, deadline=None)
    @given(disjoint_classes())
    def test_matches_sorted_product(self, classes):
        for j in range(1, len(classes) + 2):
            want = self.reference(classes, j)
            assert list(_lex_crossing_sets([sorted(c) for c in classes], j)) == want
            assert crossing_sets(classes, j) == set(want)


def _canon_edge_reference(e):
    t = tuple(sorted(e))
    if len(set(t)) != len(t):
        raise InputError(f"edge {e} has repeated vertices")
    return t


def _kgraph_reference(k, n, edges):
    """The per-edge KGraph check: its edges or its InputError message."""
    try:
        canon = frozenset(
            e if type(e) is tuple and all(map(lt, e, e[1:])) else _canon_edge_reference(e)
            for e in edges
        )
        for e in canon:
            if len(e) != k:
                raise InputError(f"edge {e} has size {len(e)}, expected {k}")
            if e[0] < 0 or e[-1] >= n:
                raise InputError(f"edge {e} out of vertex range [0, {n})")
    except InputError as exc:
        return str(exc)
    return canon


@st.composite
def kgraph_inputs(draw):
    """(k, n, raw edges as lists, container form), with up to two faults."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 12))
    edge = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True).map(sorted)
    edges = draw(st.lists(edge, max_size=8))
    faults = ["unsorted", "repeated", "size", "negative", "too_big", "duplicate"]
    for fault in draw(st.lists(st.sampled_from(faults), max_size=2)):
        if not edges:
            break
        e = edges[draw(st.integers(0, len(edges) - 1))]
        if not e:  # k = 1 and the size fault already emptied it
            continue
        if fault == "unsorted":
            e.reverse()
        elif fault == "repeated":
            e.append(e[0])
        elif fault == "size" and draw(st.booleans()):
            e.append(n + 1)
        elif fault == "size":
            e.pop()
        elif fault == "negative":
            e[0] = -1 - e[0]
        elif fault == "too_big":
            e[-1] = n + e[-1]
        else:
            edges.append(e[::-1])
    form = draw(st.sampled_from(["frozenset", "set", "tuple_list", "lists", "generator"]))
    return k, n, edges, form


def _container(edges, form):
    if form == "frozenset":
        return frozenset(map(tuple, edges))
    if form == "set":
        return set(map(tuple, edges))
    if form == "tuple_list":
        return [tuple(e) for e in edges]
    if form == "lists":
        return [list(e) for e in edges]
    return (list(e) for e in edges)


class TestKGraphCheckOracle:
    """The column-wise KGraph check against the per-edge loop."""

    @settings(max_examples=400, deadline=None)
    @given(kgraph_inputs())
    def test_matches_per_edge_loop(self, case):
        k, n, edges, form = case
        want = _kgraph_reference(k, n, _container(edges, form))
        given_edges = _container(edges, form)
        try:
            got = KGraph(k, n, given_edges).edges
        except InputError as exc:
            got = str(exc)
        assert got == want
        if form == "frozenset" and want == given_edges:
            # a canonical frozenset is kept, not rebuilt
            assert got is given_edges


class TestCliquesOracle:
    """The bitset clique enumerator must agree with the naive scan."""

    @pytest.mark.parametrize("seed", range(40))
    def test_k2_matches_naive(self, seed):
        H = random_kgraph(2, 10 + seed % 7, 0.5, seed)
        for ell in (2, 3, 4):
            assert cliques(H, ell) == cliques_naive(H, ell)

    @pytest.mark.parametrize("seed", range(40))
    def test_k3_matches_naive(self, seed):
        H = random_kgraph(3, 9 + seed % 6, 0.6, seed + 1000)
        for ell in (3, 4, 5):
            assert cliques(H, ell) == cliques_naive(H, ell)

    def test_ell_equals_k(self):
        H = random_kgraph(2, 8, 0.5, 3)
        assert cliques(H, 2) == set(H.edges)

    def test_k1(self):
        H = KGraph(1, 5, {(0,), (2,), (4,)})
        assert cliques(H, 2) == {(0, 2), (0, 4), (2, 4)}

    def test_ell_below_k_rejected(self):
        with pytest.raises(InputError):
            cliques(KGraph(3, 5), 2)


class TestInduce:
    def test_relabels_ascending(self):
        H = KGraph(2, 6, {(1, 4), (4, 5)})
        sub = induce(H, [1, 4, 5])
        assert sub.n == 3 and sub.edges == frozenset({(0, 1), (1, 2)})

    def test_full_set_identity(self):
        H = random_kgraph(2, 8, 0.5, 1)
        assert induce(H, range(8)).edges == H.edges

    def test_out_of_range(self):
        with pytest.raises(InputError):
            induce(KGraph(2, 3), [0, 5])


class TestIsomorphism:
    def test_triangle_path_distinct(self):
        tri = KGraph(2, 3, {(0, 1), (0, 2), (1, 2)})
        path = KGraph(2, 3, {(0, 1), (1, 2)})
        assert not are_induced_isomorphic(tri, path)

    def test_relabelled_isomorphic(self):
        a = KGraph(2, 4, {(0, 1), (2, 3)})
        b = KGraph(2, 4, {(0, 3), (1, 2)})
        assert are_induced_isomorphic(a, b)
        assert canonical_form(a) == canonical_form(b)

    def test_automorphism_counts(self):
        assert automorphism_count(KGraph(2, 3, {(0, 1), (0, 2), (1, 2)})) == 6
        assert automorphism_count(KGraph(2, 3, {(0, 1), (1, 2)})) == 2
        assert automorphism_count(KGraph(2, 3, {(0, 1)})) == 2

    def test_iso_class_counts(self):
        assert len(all_iso_classes(3, 2)) == 4
        assert len(all_iso_classes(4, 2)) == 11
        assert len(all_iso_classes(3, 3)) == 2

    @pytest.mark.parametrize("ell, k", [(6, 2), (6, 3), (7, 6), (9, 9)])
    def test_iso_classes_above_work_cap_rejected(self, ell, k):
        # 2^C(ell, k) graphs times ell! relabellings above 2^10 times 5!
        with pytest.raises(CapabilityError, match=f"iso classes on {ell} vertices"):
            all_iso_classes(ell, k)

    def test_iso_classes_up_to_work_cap_run(self):
        assert len(all_iso_classes(5, 2)) == 34  # exactly the cap's work
        assert len(all_iso_classes(6, 5)) == 7


class TestCountInduced:
    def _naive(self, F, H):
        hits = 0
        for S in itertools.combinations(range(H.n), F.n):
            if are_induced_isomorphic(F, induce(H, S)):
                hits += 1
        import math
        return Fraction(hits, math.comb(H.n, F.n))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_naive_scan(self, seed):
        H = random_kgraph(2, 9 + seed % 4, 0.5, seed + 77)
        patterns = [
            KGraph(2, 3, frozenset()),
            KGraph(2, 3, {(0, 1), (1, 2)}),
            KGraph(2, 3, {(0, 1), (0, 2), (1, 2)}),
            KGraph(2, 4, {(0, 1), (2, 3)}),
        ]
        for F in patterns:
            assert count_induced(F, H) == self._naive(F, H)

    @pytest.mark.parametrize("seed", range(5))
    def test_k3_matches_naive_scan(self, seed):
        H = random_kgraph(3, 9, 0.5, seed + 99)
        for F in all_iso_classes(4, 3)[:6]:
            assert count_induced(F, H) == self._naive(F, H)

    def test_totality_over_classes(self):
        H = random_kgraph(2, 10, 0.4, 12)
        total = sum(count_induced(F, H) for F in all_iso_classes(3, 2))
        assert total == 1

    def test_pattern_cap(self):
        with pytest.raises(CapabilityError):
            count_induced(KGraph(2, 9), random_kgraph(2, 12, 0.5, 0))

    @pytest.mark.parametrize("count", ["all", "crossing"])
    def test_scan_cap_shared(self, count):
        # C(100, 4) = 3921225 vertex sets, and five classes of 20 give
        # 5 * 20^4 = 800000 crossing ones: both refused before scanning
        F = KGraph(2, 4, {(0, 1)})
        H = KGraph(2, 100)
        with pytest.raises(CapabilityError, match="scan cap 600000"):
            if count == "all":
                count_induced(F, H)
            else:
                count_crossing_induced(F, H, [range(i, i + 20) for i in range(0, 100, 20)])

    def test_cap_override(self):
        val = count_induced(
            KGraph(2, 9), KGraph(2, 9), allow_large=True
        )
        assert val == 1


class TestComplex:
    def test_valid_stack(self, small_planted_k3):
        _, F, _ = small_planted_k3
        x = F.polyad_addresses(2)[0]
        F.polyad_complex(x)  # validates on construction

    def test_non_crossing_layer_rejected(self):
        with pytest.raises(InputError):
            Complex((frozenset({0, 1}), frozenset({2})), {2: KGraph(2, 3, {(0, 1)})})

    def test_missing_underlay_rejected(self):
        with pytest.raises(InputError):
            Complex(
                (frozenset({0}), frozenset({1}), frozenset({2})),
                {2: KGraph(2, 3), 3: KGraph(3, 3, {(0, 1, 2)})},
            )


class TestSerialization:
    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip(self, seed):
        H = random_kgraph(2 + seed % 2, 10, 0.5, seed)
        assert kgraph_from_text(kgraph_to_text(H)) == H

    def test_bad_header_names_line(self):
        with pytest.raises(InputError, match="line 1"):
            kgraph_from_text("nope nope\n")

    def test_line_numbers_count_blank_lines(self):
        with pytest.raises(InputError, match="line 2"):
            kgraph_from_text("\n2 x\n")

    def test_bad_edge_names_line(self):
        with pytest.raises(InputError, match="line 3"):
            kgraph_from_text("2 4\n0 1\n0 x\n")

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            kgraph_from_text("\n\n")
