"""Graph enumeration, canonicalization, the correspondence oracle, census."""

from __future__ import annotations

import hashlib
import random
import time

import pytest

from crystalcheck import (
    BudgetError,
    GraphStream,
    PreconditionError,
    census,
    census_rows_to_csv,
    check_global,
    check_proposition,
    enumerate_graphs,
    infer_labelings_exhaustive,
    serialize_graph,
)
from crystalcheck import enumeration
from crystalcheck.enumeration import (
    _b1_markings,
    _position_graphs_exactly,
    graph_from_position_edges,
    resolve_workers,
)

from helpers import (
    CANONICAL_COUNTS,
    b0_edge_sets,
    bare_1_edge,
    brute_canonical_code,
    brute_isomorphic,
    brute_valid_markings,
    graph,
    path5,
    single_vertex,
)

# Hand enumeration for n=2: one color choice for a lone edge (x2 directions)
# plus a parallel 1+2 pair (x2 directions) plus a single edge of the other
# color (x2) = 6 labeled graphs.
LABELED_COUNTS = {1: 1, 2: 6, 3: 78}


def exactly_n(stream: GraphStream, n: int):
    return [g for g in enumerate_graphs(stream) if g.n_vertices == n]


class TestStreamConfig:
    @pytest.mark.parametrize("bad", [0, -1, 9])
    def test_max_vertices_bounds(self, bad):
        with pytest.raises(ValueError):
            GraphStream(max_vertices=bad)


class TestEnumerate:
    def test_single_vertex_universe(self):
        graphs = list(enumerate_graphs(GraphStream(max_vertices=1)))
        assert len(graphs) == 1
        assert graphs[0].vertices == ("v1",)
        assert graphs[0].edges == ()

    def test_two_vertex_canonical_count(self):
        graphs = exactly_n(GraphStream(max_vertices=2), 2)
        assert len(graphs) == CANONICAL_COUNTS[2]
        shapes = sorted(
            tuple(sorted(e.color for e in g.edges)) for g in graphs
        )
        assert shapes == [(1,), (1, 2), (2,)]

    def test_two_vertex_labeled_count(self):
        graphs = exactly_n(GraphStream(max_vertices=2, canonical=False), 2)
        assert len(graphs) == LABELED_COUNTS[2]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_canonical_counts(self, n):
        assert len(exactly_n(GraphStream(max_vertices=n), n)) == CANONICAL_COUNTS[n]

    def test_canonical_never_exceeds_labeled(self):
        canonical = exactly_n(GraphStream(max_vertices=3), 3)
        labeled = exactly_n(GraphStream(max_vertices=3, canonical=False), 3)
        assert len(canonical) <= len(labeled)
        assert len(labeled) == LABELED_COUNTS[3]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_canonical_graphs_pairwise_nonisomorphic(self, n):
        graphs = exactly_n(GraphStream(max_vertices=n), n)
        for i, a in enumerate(graphs):
            for b in graphs[i + 1:]:
                assert not brute_isomorphic(a, b)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_labeled_graph_has_exactly_one_canonical_form(self, n):
        canonical = exactly_n(GraphStream(max_vertices=n), n)
        for g in exactly_n(GraphStream(max_vertices=n, canonical=False), n):
            matches = [c for c in canonical if brute_isomorphic(g, c)]
            assert len(matches) == 1

    def test_stream_is_reproducible(self):
        stream = GraphStream(max_vertices=3)
        first = [serialize_graph(g) for g in enumerate_graphs(stream)]
        second = [serialize_graph(g) for g in enumerate_graphs(stream)]
        assert first == second

    @pytest.mark.parametrize("canonical", [True, False])
    def test_emitted_graphs_pass_the_filters(self, canonical):
        from crystalcheck import check_degree_axiom, find_potential, weak_components
        from crystalcheck.graph import Potential
        for g in enumerate_graphs(GraphStream(max_vertices=3, canonical=canonical)):
            assert check_degree_axiom(g).ok
            assert isinstance(find_potential(g), Potential)
            assert len(weak_components(g)) == 1

    def test_decompositions_partition_every_enumerated_graph(self):
        from crystalcheck import decompose_strings
        for g in enumerate_graphs(GraphStream(max_vertices=4)):
            for color in (1, 2):
                flat = [
                    v for string in decompose_strings(g, color).strings for v in string
                ]
                assert sorted(flat) == sorted(g.vertices)
                assert len(flat) == g.n_vertices


class TestCanonicalCode:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_permutation_scan_on_every_slot_subset(self, n):
        # Mostly not (B0): rows with several heads, heads shared by rows.
        encoder = enumeration._Encoder(n)
        for code in range(1 << len(encoder.slots)):
            edges = encoder.decode(code)
            assert encoder.canonical_code(edges) == brute_canonical_code(encoder, edges)

    # (B0) edge sets, cycles and disconnected ones included.
    @pytest.mark.parametrize("n, edge_sets", [(1, 1), (2, 16), (3, 324), (4, 11_664)])
    def test_matches_permutation_scan_on_every_b0_edge_set(self, n, edge_sets):
        encoder = enumeration._Encoder(n)
        all_edge_sets = b0_edge_sets(n)
        assert len(all_edge_sets) == edge_sets
        for edges in all_edge_sets:
            assert encoder.canonical_code(edges) == brute_canonical_code(encoder, edges)

    # Weakly connected (B0) edge sets, cycles included, and their
    # isomorphism classes.
    @pytest.mark.parametrize(
        "n, edge_sets, classes", [(1, 1, 1), (2, 15, 9), (3, 278, 49), (4, 9_786, 423)]
    )
    def test_port_key_is_complete_on_connected_b0_graphs(self, n, edge_sets, classes):
        encoder = enumeration._Encoder(n)
        connected = b0_edge_sets(n, connected=True)
        assert len(connected) == edge_sets
        code_of_key: dict[int, int] = {}
        key_of_code: dict[int, int] = {}
        for edges in connected:
            key, code = encoder.port_key(edges), encoder.canonical_code(edges)
            assert code_of_key.setdefault(key, code) == code
            assert key_of_code.setdefault(code, key) == key
        assert len(code_of_key) == classes


class TestProposition:
    def test_single_vertex(self):
        result = check_proposition(single_vertex())
        assert result.holds
        assert (result.n_valid_markings, result.n_valid_labelings) == (1, 1)

    def test_path5(self):
        result = check_proposition(path5())
        assert result.holds
        assert (result.n_valid_markings, result.n_valid_labelings) == (1, 1)
        assert [lab.vector(path5()) for lab in result.valid_labelings] == [
            ("c", "1", "c", "0", "c")
        ]

    def test_bare_edge_vacuously_true(self):
        result = check_proposition(bare_1_edge())
        assert result.holds
        assert (result.n_valid_markings, result.n_valid_labelings) == (0, 0)

    def test_requires_degree_axiom(self):
        g = graph(["a", "b", "c"], [("a", "b", 1), ("a", "c", 1)])
        with pytest.raises(PreconditionError):
            check_proposition(g)

    def test_requires_acyclicity(self):
        g = graph(["a", "b"], [("a", "b", 1), ("b", "a", 2)])
        with pytest.raises(PreconditionError):
            check_proposition(g)


@pytest.fixture(scope="module")
def oracle_graphs():
    """The 594 graphs of the n <= 5 universe and a fixed sample of 100 of
    the 3,986 six-vertex ones."""
    universe = list(enumerate_graphs(GraphStream(max_vertices=5)))
    six = list(_position_graphs_exactly(6, GraphStream(max_vertices=6)))
    sample = random.Random(20261018).sample(six, 100)
    return universe + [graph_from_position_edges(6, edges) for edges in sample]


# SHA-256 of every check_global report on every marking (all subsets of the
# vertices and of the 1-edges) of the n <= 5 universe, in search order.
GLOBAL_REPORTS_SHA256 = "e87c5e841867eb12e976204d641ce82bd5250e10c6014d60cdc2ad07ee113b7c"


class TestPropositionOracles:
    def test_markings_equal_the_all_subsets_search(self, oracle_graphs):
        # Pins the full text of every report, so a rewrite of check_global
        # that changes a clause, location or detail is caught.
        reports = hashlib.sha256()
        for g in oracle_graphs:
            brute = brute_valid_markings(g, reports if g.n_vertices <= 5 else None)
            built = [m for m in _b1_markings(g) if not check_global(g, m)]
            assert len(built) == len(set(built)) == len(brute)
            assert set(built) == set(brute)
            assert check_proposition(g).n_valid_markings == len(brute)
        assert reports.hexdigest() == GLOBAL_REPORTS_SHA256

    def test_labelings_equal_the_all_vectors_search(self, oracle_graphs):
        for g in oracle_graphs:
            result = check_proposition(g)
            assert result.holds
            assert [lab.vector(g) for lab in result.valid_labelings] == [
                lab.vector(g) for lab in infer_labelings_exhaustive(g)
            ]


def _slow_check(g):
    """``check_proposition``, made to take 10 ms on each 5-vertex graph."""
    if g.n_vertices == 5:
        time.sleep(0.01)
    return check_proposition(g)


class TestCensus:
    def test_row_for_single_vertex(self):
        rows = census(1)
        assert len(rows) == 1
        row = rows[0]
        assert (row.n, row.graphs, row.graphs_with_labeling, row.labelings, row.markings) \
            == (1, 1, 1, 1, 1)

    def test_table_to_four_vertices(self):
        rows = census(4)
        table = [
            (row.n, row.graphs, row.graphs_with_labeling, row.labelings, row.markings)
            for row in rows
        ]
        assert table == [
            (1, 1, 1, 1, 1),
            (2, 3, 0, 0, 0),
            (3, 13, 2, 2, 2),
            (4, 74, 4, 4, 4),
        ]

    def test_rows_balance_labelings_and_markings(self):
        for row in census(4):
            assert row.labelings == row.markings

    def test_csv_rendering(self):
        assert census_rows_to_csv(census(2)) == (
            "n,graphs,graphs_with_labeling,labelings,markings\n"
            "1,1,1,1,1\n"
            "2,3,0,0,0\n"
        )

    def test_budget_enforced(self, monkeypatch):
        calls = []
        for name in ("port_key", "canonical_code"):
            method = getattr(enumeration._Encoder, name)

            def counting(encoder, edges, method=method):
                calls.append(method.__name__)
                return method(encoder, edges)

            monkeypatch.setattr(enumeration._Encoder, name, counting)
        with pytest.raises(BudgetError) as err:
            census(4, budget_seconds=0.0)
        assert err.value.completed_rows == 0
        # The budget is checked before the first candidate is keyed or
        # canonicalized.
        assert calls == []

    def test_budget_stops_canonical_enumeration_between_candidates(self):
        calls = []

        class Stop(Exception):
            pass

        def check_budget():
            calls.append(None)
            if len(calls) == 10:
                raise Stop

        # Without a check between candidates this would run all 19,905.
        with pytest.raises(Stop):
            list(_position_graphs_exactly(6, GraphStream(max_vertices=6), check_budget))

    def test_budget_stops_pool_before_row_finishes(self, monkeypatch):
        # Rows 1 to 5 are enumerated within a fraction of a second, but the
        # slowed checks of the 503 five-vertex graphs take over 2.5 s on two
        # workers, so an abort well within 2 s shows the pool results are
        # read as they arrive.  The workers import the patched check by name.
        monkeypatch.setattr(enumeration, "check_proposition", _slow_check)
        start = time.monotonic()
        with pytest.raises(BudgetError):
            census(5, workers=2, budget_seconds=0.5)
        assert time.monotonic() - start < 2.0

    def test_max_vertices_bound(self):
        with pytest.raises(ValueError):
            census(8)

    def test_deterministic(self):
        assert census(3) == census(3)

    def test_parallel_matches_sequential(self):
        assert census(3, workers=2) == census(3, workers=1)

    def test_corollary_gap_callback_fires_at_five_vertices(self):
        gaps = []
        census(5, on_corollary_gap=lambda g, lab, report: gaps.append(
            (g.n_vertices, report.predicate, lab.vector(g))
        ))
        assert gaps, "expected corollary gaps among the 5-vertex graphs"
        assert all(n == 5 for n, _, _ in gaps)
        assert {predicate for _, predicate, _ in gaps} == {"corollary2"}


class TestWorkerResolution:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("CRYSTALCHECK_THREADS", raising=False)
        assert resolve_workers() == 1

    def test_env_caps_workers(self, monkeypatch):
        monkeypatch.setenv("CRYSTALCHECK_THREADS", "2")
        assert 1 <= resolve_workers() <= 2

    @pytest.mark.parametrize("bad", ["0", "-3", "many"])
    def test_invalid_values_rejected(self, bad, monkeypatch):
        monkeypatch.setenv("CRYSTALCHECK_THREADS", bad)
        with pytest.raises(ValueError):
            resolve_workers()
