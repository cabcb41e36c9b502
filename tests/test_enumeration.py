"""Graph enumeration, canonicalization, the correspondence oracle, census."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings

from crystalcheck import (
    BudgetError,
    CounterexampleError,
    GraphStream,
    PreconditionError,
    census,
    census_rows_to_csv,
    check_global,
    check_local,
    check_proposition,
    decompose_strings,
    enumerate_graphs,
    serialize_graph,
)
from crystalcheck import axioms, enumeration
from crystalcheck.axioms import CentralMarking, Labeling, _b2_markings, _slot_layout
from crystalcheck.enumeration import (
    PropositionResult,
    _candidates,
    _census_shard,
    _partitions,
    _one_strings,
    _row_codes,
    _screen,
    _shard_codes,
    _shards,
    graph_from_position_edges,
    position_graphs,
    resolve_workers,
)

from helpers import (
    CANONICAL_COUNTS,
    LABELED_COUNTS,
    _weakly_connected,
    acyclic_candidates,
    b0_edge_sets,
    b0_graphs,
    b1_markings,
    bare_1_edge,
    brute_canonical_code,
    brute_isomorphic,
    brute_valid_markings,
    graph,
    infer_labelings_exhaustive,
    kahn_is_acyclic,
    path5,
    random_b0_edge_set,
    single_vertex,
    vertex_search_code,
)

# Labeled graphs per vertex count beyond LABELED_COUNTS, counted from the
# skeleton candidates; n = 5 is also the size of the labeled stream.
SKELETON_LABELED_COUNTS = {5: 60_360, 6: 2_866_200}


def _in_row(n: int, edges) -> bool:
    """Whether a set of slots is a graph of row n: (B0), acyclic and weakly
    connected."""
    outs = {(i, color) for i, _, color in edges}
    ins = {(j, color) for _, j, color in edges}
    return len(outs) == len(edges) == len(ins) and _weakly_connected(n, edges) and (
        kahn_is_acyclic(graph_from_position_edges(n, edges))
    )


def _codes(n: int) -> list[int]:
    """The canonical codes of row n, in the order ``_row_codes`` yields them."""
    return [code for code, _ in _row_codes(n)]


def _connected_candidates(n: int, lengths) -> list:
    """The weakly connected members of ``acyclic_candidates``, in its order."""
    return [edges for edges in acyclic_candidates(n, lengths) if _weakly_connected(n, edges)]


def _row_members(n: int, edge_sets) -> set[int]:
    """The permutation-scan codes of the edge sets in row n, each checked:
    an edge set is in the row exactly when its code is a row code."""
    encoder = enumeration._Encoder(n)
    row = set(_codes(n))
    members = set()
    for edges in edge_sets:
        code = brute_canonical_code(encoder, edges)
        assert (code in row) == _in_row(n, edges)
        if code in row:
            members.add(code)
    return members


def _string_automorphisms(lengths) -> int:
    """The automorphisms of 1-strings with these lengths: the permutations
    of the strings of each length."""
    return math.prod(math.factorial(lengths.count(k)) for k in set(lengths))


def _forest(lengths) -> tuple[tuple[int, int, int], ...]:
    """1-strings with these lengths on consecutive positions, no 2-edges."""
    edges, start = [], 0
    for length in lengths:
        edges += [(v, v + 1, 1) for v in range(start, start + length - 1)]
        start += length
    return tuple(edges)


def exactly_n(stream: GraphStream, n: int):
    return [g for g in enumerate_graphs(stream) if g.n_vertices == n]


def _row(n: int, canonical: bool = True) -> list:
    """The position edges of row n of the stream to n vertices."""
    stream = GraphStream(max_vertices=n, canonical=canonical)
    return [edges for m, edges in position_graphs(stream) if m == n]


def _count_candidates(monkeypatch, slow: int = 0) -> list:
    """Wraps ``_candidates`` to record each candidate a shard draws, the
    ``slow``-th taking 0.1 s to draw; returns the record."""
    drawn = []
    candidates = enumeration._candidates

    def counting(n, lengths):
        for candidate in candidates(n, lengths):
            drawn.append(candidate)
            if len(drawn) == slow:
                time.sleep(0.1)
            yield candidate

    monkeypatch.setattr(enumeration, "_candidates", counting)
    return drawn


class TestStreamConfig:
    # An int only: 2.5 passed the range test and then broke ``range``.
    @pytest.mark.parametrize("bad", [0, -1, 9, 2.5, 3.0, True, "3"])
    def test_max_vertices_bounds(self, bad):
        with pytest.raises(ValueError, match="max_vertices must be in"):
            GraphStream(max_vertices=bad)

    # A bool only: "no" gave the canonical stream and None the labeled one.
    @pytest.mark.parametrize("bad", [None, 0, 1, "no"])
    def test_canonical_must_be_a_bool(self, bad):
        with pytest.raises(ValueError, match="canonical must be True or False"):
            GraphStream(max_vertices=3, canonical=bad)

    def test_labeled_stream_bound(self):
        # Checked when the stream is made, before any row is enumerated.
        GraphStream(max_vertices=6, canonical=False)
        GraphStream(max_vertices=8)
        for bad in (7, 8):
            with pytest.raises(ValueError, match="at most 6"):
                GraphStream(max_vertices=bad, canonical=False)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_labeled_stream_is_every_connected_acyclic_b0_edge_set(self, n):
        slots = enumeration._Encoder(n).slots
        top = len(slots) - 1

        def encoding(edges) -> int:
            return sum(1 << (top - slots.index(slot)) for slot in edges)

        expected = sorted(
            (
                edges for edges in b0_edge_sets(n, connected=True)
                if kahn_is_acyclic(graph_from_position_edges(n, edges))
            ),
            key=encoding,
        )
        assert len(expected) == LABELED_COUNTS[n]
        assert _row(n, canonical=False) == expected

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
    # The row's canonical codes come from the orbit sweep (``_shard_codes``);
    # the permutation scan and the vertex search are independent oracles.
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_permutation_scan_on_every_slot_subset(self, n):
        slots = enumeration._Encoder(n).slots
        subsets = [
            edges for size in range(len(slots) + 1)
            for edges in itertools.combinations(slots, size)
        ]
        assert _row_members(n, subsets) == set(_codes(n))

    # (B0) edge sets, 2-cycles and disconnected ones included.
    @pytest.mark.parametrize("n, edge_sets", [(1, 1), (2, 16), (3, 324), (4, 11_664)])
    def test_matches_permutation_scan_on_every_b0_edge_set(self, n, edge_sets):
        all_edge_sets = b0_edge_sets(n)
        assert len(all_edge_sets) == edge_sets
        assert _row_members(n, all_edge_sets) == set(_codes(n))

    # Seeded (B0) edge sets, 2-cycles and disconnected ones included.
    @pytest.mark.parametrize("n, samples", [(5, 500), (6, 200)])
    def test_matches_permutation_scan_on_random_b0_edge_sets(self, n, samples):
        rng = random.Random(n)
        assert _row_members(n, [random_b0_edge_set(rng, n) for _ in range(samples)])

    def test_matches_permutation_scan_on_random_non_b0_slot_subsets(self):
        # No row code is the code of a set that breaks (B0).
        rng = random.Random(4)
        slots = enumeration._Encoder(4).slots
        subsets = []
        while len(subsets) < 200:
            density = rng.random()
            edges = tuple(slot for slot in slots if rng.random() < density)
            out_ports = {(i, color) for i, _, color in edges}
            in_ports = {(j, color) for _, j, color in edges}
            if not len(out_ports) == len(edges) == len(in_ports):
                subsets.append(edges)
        assert _row_members(4, subsets) == set()

    @pytest.mark.parametrize("edges", [
        ((0, 1, 1), (1, 0, 1), (1, 2, 2)),  # a 1-cycle
        ((0, 1, 1), (0, 2, 1)),  # a 1-tail with two heads
        ((0, 2, 1), (1, 2, 1), (0, 1, 2)),  # a 1-head with two tails
    ])
    def test_refuses_one_edges_that_are_not_paths(self, edges):
        # Weakly connected sets whose 1-edges are not disjoint paths.
        assert _weakly_connected(3, edges)
        assert _row_members(3, [edges]) == set()

    def test_one_block_matches_permutation_scan_on_every_forest(self):
        # c1 depends only on the 1-string lengths: one forest per multiset.
        # Its strings come grouped by ascending length, each from its start,
        # and they cover the positions once and make up c1's 1-edges.  The
        # n! permutation scan is the oracle up to n = 7, the vertex search
        # at n = 8 and 9.
        forests = 0
        for n in range(1, 10):
            encoder = enumeration._Encoder(n)
            least_code = brute_canonical_code if n < 8 else vertex_search_code
            for lengths in _partitions(n):
                c1, _, groups = enumeration._one_block(n, lengths)
                assert c1 == least_code(encoder, _forest(lengths))
                strings = [string for group in groups for string in group]
                assert [len(string) for string in strings] == list(lengths)
                assert all(len({len(string) for string in group}) == 1 for group in groups)
                assert len(groups) == len(set(lengths))
                assert sorted(v for string in strings for v in string) == list(range(n))
                assert set(encoder.decode(c1)) == {
                    (v, w, 1) for string in strings for v, w in zip(string, string[1:])
                }
                forests += 1
        assert forests == 96

    def test_string_search_matches_vertex_search_on_row_classes(self):
        # Rows 1 to 6 are the vertex-search codes of the connected members
        # of the unpruned candidates (``acyclic_candidates``), which checks
        # the connectivity cut, the dedup and the minimum; each of 500
        # seeded connected candidates of row 7 has its code in row 7.
        for n in range(1, 7):
            encoder = enumeration._Encoder(n)
            expected = {
                vertex_search_code(encoder, edges)
                for lengths in _partitions(n) for edges in _connected_candidates(n, lengths)
            }
            assert set(_codes(n)) == expected
        rng = random.Random(20261018)
        connected = [
            edges for lengths in _partitions(7) for edges in _connected_candidates(7, lengths)
        ]
        encoder = enumeration._Encoder(7)
        row = set(_codes(7))
        for edges in rng.sample(connected, 500):
            assert vertex_search_code(encoder, edges) in row

    def test_row_six_builds_one_block_once_per_partition(self):
        # ``c1`` is built only inside ``_one_block``, one cache miss per
        # 1-string length multiset; each miss's strings have the lengths
        # asked for, so every shard joins its 2-edges to the right forest.
        enumeration._one_block.cache_clear()
        assert len(list(_row_codes(6))) == CANONICAL_COUNTS[6]
        partitions = list(_partitions(6))
        assert enumeration._one_block.cache_info().misses == len(partitions) == 11
        for lengths in partitions:
            _, _, groups = enumeration._one_block(6, lengths)
            assert sorted(len(string) for group in groups for string in group) == list(lengths)
        assert enumeration._one_block.cache_info().misses == 11

    def test_one_ends_come_first(self):
        # Both searches put the 1-ends first: the vertex search in its first
        # cell, the string search because ``c1`` does.  So no canonical code
        # has a 1-edge whose tail sits below s, the number of vertices
        # without a 1-head.
        checked = 0
        for n in range(1, 7):
            for edges in _row(n):
                tails = {i for i, _, color in edges if color == 1}
                s = n - len(tails)
                assert all(i >= s for i in tails)
                checked += 1
        assert checked == sum(CANONICAL_COUNTS.values())


class TestCodeOrder:
    """The sweep meets each orbit first at its least member, and the shards
    run in ascending ``c1``, so a row comes out in code order unsorted."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_each_shard_yields_strictly_ascending_codes(self, n):
        for lengths in _partitions(n):
            codes = [code for code, _ in _shard_codes(n, lengths)]
            assert all(a < b for a, b in zip(codes, codes[1:]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_shards_run_in_strictly_ascending_c1(self, n):
        shards = _shards(n)
        c1s = [enumeration._one_block(n, lengths)[0] for lengths in shards]
        assert all(a < b for a, b in zip(c1s, c1s[1:]))
        assert sorted(shards) == sorted(_partitions(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_a_row_comes_out_in_code_order_unsorted(self, n, monkeypatch):
        # The only sort left is ``_shards``' of the partitions; ``c1`` is
        # cached first, so its scan sorts nothing here.
        partitions = len(_shards(n))
        sorts = []

        def counted(items, **kwargs):
            items = list(items)
            sorts.append(len(items))
            return sorted(items, **kwargs)

        monkeypatch.setattr(enumeration, "sorted", counted, raising=False)
        codes = _codes(n)
        assert codes == sorted(codes)
        assert sorts == [partitions]

    def test_a_canonical_stream_sweeps_one_shard_before_its_first_graph(self, monkeypatch):
        # Row 6 has 11 shards; a serial stream starts sweeping the first
        # before it yields the row's first graph, and the rest as it is read.
        monkeypatch.delenv("CRYSTALCHECK_THREADS", raising=False)
        swept = []
        shard_codes = enumeration._shard_codes

        def counted(n, lengths):
            swept.append(n)
            return shard_codes(n, lengths)

        monkeypatch.setattr(enumeration, "_shard_codes", counted)
        stream = position_graphs(GraphStream(max_vertices=6))
        for n, _ in stream:
            if n == 6:
                break
        stream.close()
        assert swept.count(6) == 1


    def test_a_canonical_stream_decodes_no_code(self, monkeypatch):
        # A canonical row is printed from the edges the sweep drew each
        # class with.  A labeled row decodes each class once to relabel it
        # and each labeled graph once to print it.
        monkeypatch.delenv("CRYSTALCHECK_THREADS", raising=False)
        decoded = []
        decode = enumeration._Encoder.decode

        def counted(self, code):
            decoded.append(code)
            return decode(self, code)

        monkeypatch.setattr(enumeration._Encoder, "decode", counted)
        assert sum(1 for _ in position_graphs(GraphStream(max_vertices=6))) == 4580
        assert decoded == []
        labeled = list(position_graphs(GraphStream(max_vertices=3, canonical=False)))
        assert len(labeled) == sum(LABELED_COUNTS[n] for n in (1, 2, 3))
        assert len(decoded) == len(labeled) + sum(CANONICAL_COUNTS[n] for n in (1, 2, 3))


class TestSkeletonCandidates:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_are_every_acyclic_b0_edge_set_on_the_one_block(self, n):
        # Per partition: the (B0) edge sets whose 1-edges are those of c1,
        # acyclic and with at least n - 1 edges, each once, are the oracle's
        # candidates; the weakly connected ones are ``_candidates``'.
        encoder = enumeration._Encoder(n)
        edge_sets = b0_edge_sets(n)
        for lengths in _partitions(n):
            c1, _, _ = enumeration._one_block(n, lengths)
            ones = set(encoder.decode(c1))
            expected = {
                frozenset(edges) for edges in edge_sets
                if {edge for edge in edges if edge[2] == 1} == ones and len(edges) >= n - 1
                and kahn_is_acyclic(graph_from_position_edges(n, edges))
            }
            oracle = [frozenset(edges) for edges in acyclic_candidates(n, lengths)]
            assert len(oracle) == len(set(oracle))
            assert set(oracle) == expected
            candidates = [frozenset(edges) for _, edges in _candidates(n, lengths)]
            assert len(candidates) == len(set(candidates))
            assert set(candidates) == {edges for edges in expected if _weakly_connected(n, edges)}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_are_the_connected_oracle_candidates_in_order(self, n):
        # The part-count cut drops exactly the disconnected candidates and
        # keeps the order.  Each 2-block is the 2-rows of the candidate's
        # code, and the edges are that code's slots in ``decode``'s order,
        # which the canonical stream prints undecoded.
        encoder = enumeration._Encoder(n)
        index = {slot: s for s, slot in enumerate(encoder.slots)}
        top = len(encoder.slots) - 1
        for lengths in _partitions(n):
            c1, _, _ = enumeration._one_block(n, lengths)
            candidates = list(_candidates(n, lengths))
            assert [edges for _, edges in candidates] == _connected_candidates(n, lengths)
            for block, edges in candidates:
                assert block == sum(
                    1 << (top - index[edge]) for edge in edges if edge[2] == 2
                )
                assert encoder.decode(c1 | block) == edges

    def test_row_seven_has_fewer_candidates_than_pairs_of_injections(self):
        # The pairs of forward partial injections numbered 616,115; the
        # oracle draws 126,740 candidates, 98,817 of them connected.
        oracle = sum(1 for lengths in _partitions(7) for _ in acyclic_candidates(7, lengths))
        assert oracle == 126_740
        candidates = sum(1 for lengths in _partitions(7) for _ in _candidates(7, lengths))
        assert candidates == 98_817

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_count_the_labeled_row(self, n):
        # A labeled graph with 1-string lengths λ is one of the n!/|Aut(λ)|
        # labelings of those strings with the 2-edges of one connected
        # candidate.
        total = 0
        for lengths in _partitions(n):
            connected = len(_connected_candidates(n, lengths))
            total += math.factorial(n) // _string_automorphisms(lengths) * connected
        assert total == {**LABELED_COUNTS, **SKELETON_LABELED_COUNTS}[n]
        if n == 5:
            assert len(_row(5, canonical=False)) == total

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_orbit_stabilizer_per_partition(self, n):
        # Aut(λ) acts on the connected candidates of λ, and its orbits are
        # the classes of the shard; the stabilizer of a candidate is its
        # graph's automorphism group.  A dedup that merged two classes or
        # dropped one would miss its orbit.
        encoder = enumeration._Encoder(n)
        for lengths in _partitions(n):
            connected = len(_connected_candidates(n, lengths))
            orbits = 0
            for code, _ in _shard_codes(n, lengths):
                edges = set(encoder.decode(code))
                automorphisms = sum(
                    {(perm[i], perm[j], color) for i, j, color in edges} == edges
                    for perm in itertools.permutations(range(n))
                )
                assert _string_automorphisms(lengths) % automorphisms == 0
                orbits += _string_automorphisms(lengths) // automorphisms
            assert orbits == connected


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


class TestPropositionFailures:
    """Each failure of the correspondence names its detail and witness.
    path5 has one valid marking and one valid labeling."""

    def test_marking_mapped_to_an_invalid_labeling(self, monkeypatch):
        (marking,) = accepted(path5(), pruned_markings(path5()))
        monkeypatch.setattr(enumeration, "_labels_from_marking",
                            lambda g, m: Labeling(labels={v: "c" for v in g.vertices}))
        result = check_proposition(path5())
        assert not result.holds
        assert result.detail == "marking maps to a labeling failing the local axioms"
        assert (result.witness_marking, result.witness_labeling) == (marking, None)
        assert (result.n_valid_markings, result.n_valid_labelings) == (1, 1)

    def test_marking_that_does_not_survive_the_round_trip(self, monkeypatch):
        (marking,) = accepted(path5(), pruned_markings(path5()))
        monkeypatch.setattr(enumeration, "_marking_from_labels",
                            lambda g, lab: CentralMarking(frozenset(), frozenset()))
        result = check_proposition(path5())
        assert not result.holds
        assert result.detail == "marking does not survive the round trip"
        assert (result.witness_marking, result.witness_labeling) == (marking, None)

    def test_hit_labeling_that_the_local_axioms_refuse(self, monkeypatch):
        # check_local judges each inferred labeling once; one it refuses is
        # not counted, and the marking that maps to it fails the check.
        (marking,) = accepted(path5(), pruned_markings(path5()))
        refused = check_local(path5(), Labeling(labels={v: "c" for v in path5().vertices}))
        monkeypatch.setattr(enumeration, "check_local", lambda g, lab: refused)
        result = check_proposition(path5())
        assert not result.holds
        assert result.detail == "marking maps to a labeling failing the local axioms"
        assert (result.witness_marking, result.witness_labeling) == (marking, None)
        assert (result.n_valid_markings, result.n_valid_labelings) == (1, 0)

    def test_labeling_that_no_marking_hits(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_b2_markings", lambda decomp1, decomp2: iter(()))
        result = check_proposition(path5())
        assert not result.holds
        assert result.detail == "no valid marking maps to this labeling"
        assert result.witness_marking is None
        assert result.witness_labeling.vector(path5()) == ("c", "1", "c", "0", "c")
        assert (result.n_valid_markings, result.n_valid_labelings) == (0, 1)


@pytest.fixture(scope="module")
def oracle_graphs():
    """The 594 graphs of the n <= 5 universe and a fixed sample of 100 of
    the 3,986 six-vertex ones."""
    universe = list(enumerate_graphs(GraphStream(max_vertices=5)))
    six = _row(6)
    sample = random.Random(20261018).sample(six, 100)
    return universe + [graph_from_position_edges(6, edges) for edges in sample]


# SHA-256 of every check_global report on every marking (all subsets of the
# vertices and of the 1-edges) of the n <= 5 universe, in search order.
GLOBAL_REPORTS_SHA256 = "e87c5e841867eb12e976204d641ce82bd5250e10c6014d60cdc2ad07ee113b7c"


def pruned_markings(g):
    return list(_b2_markings(decompose_strings(g, 1), decompose_strings(g, 2)))


def oracle_markings(g):
    return b1_markings(decompose_strings(g, 1))


def accepted(g, markings):
    return [m for m in markings if not check_global(g, m)]


class TestPropositionOracles:
    def test_markings_equal_the_all_subsets_search(self, oracle_graphs):
        # Pins the full text of every report, so a rewrite of check_global
        # that changes a clause, location or detail is caught.
        reports = hashlib.sha256()
        # The same pass checks that the (B1) slot product builds exactly the
        # subsets with no (B1) entry in their report, that the pruned search
        # keeps some of those, and that check_global accepts among the
        # survivors exactly the markings it accepts among all subsets.
        for g in oracle_graphs:
            b1_passing = []
            brute = brute_valid_markings(g, reports if g.n_vertices <= 5 else None, b1_passing)
            b1 = oracle_markings(g)
            assert len(b1) == len(set(b1)) == len(b1_passing)
            assert set(b1) == set(b1_passing)
            survivors = pruned_markings(g)
            assert len(survivors) == len(set(survivors))
            assert set(survivors) <= set(b1_passing)
            built = accepted(g, survivors)
            assert len(built) == len(set(built)) == len(brute)
            assert set(built) == set(brute)
            assert check_proposition(g).n_valid_markings == len(brute)
        assert reports.hexdigest() == GLOBAL_REPORTS_SHA256

    def test_pruned_search_keeps_every_valid_marking_to_six_vertices(self):
        for g in enumerate_graphs(GraphStream(max_vertices=6)):
            assert accepted(g, pruned_markings(g)) == accepted(g, oracle_markings(g))

    @given(b0_graphs(max_vertices=8))
    @settings(max_examples=200)
    def test_pruned_search_keeps_every_valid_marking(self, g):
        # Disconnected graphs and graphs of up to 8 vertices: shapes outside
        # the census.
        assert accepted(g, pruned_markings(g)) == accepted(g, oracle_markings(g))

    def test_labelings_equal_the_all_vectors_search(self, oracle_graphs):
        for g in oracle_graphs:
            result = check_proposition(g)
            assert result.holds
            assert [lab.vector(g) for lab in result.valid_labelings] == [
                lab.vector(g) for lab in infer_labelings_exhaustive(g)
            ]


def _counts_anything(n: int, code: int) -> bool:
    """Whether ``check_proposition`` counts a labeling or a marking on the
    graph of ``code``."""
    result = check_proposition(graph_from_position_edges(n, enumeration._Encoder(n).decode(code)))
    assert result.holds
    return bool(result.n_valid_labelings or result.n_valid_markings)


class TestScreen:
    """The census screen keeps a code exactly when its graph has a labeling
    or a marking, so every graph it drops has 0 = 0."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_keeps_exactly_the_graphs_with_a_labeling_or_a_marking(self, n):
        for lengths in _partitions(n):
            swept = list(_shard_codes(n, lengths))
            graphs, survivors = _census_shard(n, math.inf, lengths)
            assert graphs == len(swept)
            assert survivors == [edges for code, edges in swept if _counts_anything(n, code)]

    def test_keeps_exactly_the_graphs_with_a_labeling_or_a_marking_on_row_seven(self):
        encoder = enumeration._Encoder(7)
        for code in random.Random(20261019).sample(_codes(7), 2000):
            edges = encoder.decode(code)
            layout = _slot_layout(_one_strings(7, edges))
            assert _screen(7, edges, layout) == _counts_anything(7, code)

    def test_hides_no_counterexample(self, monkeypatch):
        # With propagation made to fail, no graph has a labeling.  The graphs
        # with a marking still pass the screen, starting with the one-vertex
        # graph, and their check fails; a screen that read labelability
        # alone would print a table of zeros.
        for module in (axioms, enumeration):
            monkeypatch.setattr(module, "_propagate", lambda domains, edges, incident, pending: False)
        with pytest.raises(CounterexampleError, match="1-vertex graph"):
            census(5, workers=1)


class TestSlotKernel:
    """``_b2_markings`` and the census screen share one slot-mask kernel,
    whose root propagation alone refutes every census graph without a
    marking."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_root_propagation_refutes_every_graph_without_a_marking(self, n, monkeypatch):
        calls = []
        propagate = axioms._propagate_slots

        def counted(*args):
            calls.append(args)
            return propagate(*args)

        monkeypatch.setattr(axioms, "_propagate_slots", counted)
        refuted = 0
        for edges in _row(n):
            calls.clear()
            if not pruned_markings(graph_from_position_edges(n, edges)):
                # One propagation, or none where the 2-string ends empty a
                # mask: the search never branched.
                assert len(calls) <= 1
                refuted += 1
        assert refuted == {1: 0, 2: 3, 3: 11, 4: 70, 5: 483, 6: 3893}[n]

    def test_hides_no_counterexample(self, monkeypatch):
        # With the slot kernel made to refute, no graph has a marking.  The
        # graphs with a labeling still pass the screen, starting with the
        # one-vertex graph, and their check fails; a screen or a marking
        # search that skipped the kernel would print a balanced table.
        monkeypatch.setattr(axioms, "_propagate_slots", lambda *args: False)
        with pytest.raises(CounterexampleError, match="1-vertex graph: no valid marking"):
            census(5, workers=1)


def _slow_check(g):
    """``check_proposition``, made to take 0.2 s on each 5-vertex graph."""
    if g.n_vertices == 5:
        time.sleep(0.2)
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

    def test_judges_each_marking_and_each_labeling_once(self, monkeypatch):
        # One check_global per valid marking and one check_local per
        # inferred labeling, the corollary gaps included: neither the
        # conversions nor the corollaries judge an object again.
        calls = {"check_global": 0, "check_local": 0}
        for name in calls:
            def counted(g, value, judge=getattr(axioms, name), name=name):
                calls[name] += 1
                return judge(g, value)

            for module in (axioms, enumeration):
                monkeypatch.setattr(module, name, counted)
        gaps = []
        rows = census(6, workers=1, on_corollary_gap=lambda g, lab, report: gaps.append(report))
        assert sum(row.markings for row in rows) == sum(row.labelings for row in rows) == 121
        assert calls == {"check_global": 121, "check_local": 121}
        assert len(gaps) == 31

    def test_decodes_no_code(self, monkeypatch):
        # The shards screen the candidates they already hold and hand back
        # the edges of those the screen keeps, in code order, so no code is
        # decoded, not even for the 120 graphs checked over rows 1 to 6.
        decoded = []
        decode = enumeration._Encoder.decode

        def counted(self, code):
            decoded.append(code)
            return decode(self, code)

        monkeypatch.setattr(enumeration._Encoder, "decode", counted)
        rows = census(6, workers=1)
        assert decoded == []
        assert sum(row.graphs for row in rows) == 4580

    def test_csv_rendering(self):
        assert census_rows_to_csv(census(2)) == (
            "n,graphs,graphs_with_labeling,labelings,markings\n"
            "1,1,1,1,1\n"
            "2,3,0,0,0\n"
        )

    def test_budget_enforced(self, monkeypatch):
        drawn = _count_candidates(monkeypatch)
        with pytest.raises(BudgetError) as err:
            census(4, budget_seconds=0.0)
        assert err.value.completed_rows == 0
        # The budget is read before the first candidate is looked at, so
        # row 1 stops at its one candidate and nothing else is drawn.
        assert len(drawn) == 1

    def test_budget_stops_canonical_enumeration_between_candidates(self, monkeypatch):
        drawn = _count_candidates(monkeypatch, slow=10)
        # A deadline already passed stops a shard, and its row, at the first
        # candidate drawn.
        passed = time.monotonic() - 1.0
        assert _census_shard(6, passed, (3, 3)) is None
        assert len(drawn) == 1
        # The deadline is read before each candidate: the shard of row 6
        # with two 1-strings of length 3 holds 786 candidates, and it stops
        # after the tenth, which ends past the deadline.
        drawn.clear()
        assert sum(1 for _ in _candidates(6, (3, 3))) == 786
        assert _census_shard(6, time.monotonic() + 0.05, (3, 3)) is None
        assert len(drawn) == 10

    def test_budget_stops_pool_before_row_finishes(self, monkeypatch):
        # Rows 1 to 5 are enumerated and screened within a fraction of a
        # second, but the slowed checks of the 20 five-vertex graphs the
        # screen keeps, which run in this process, take 4 s, so an abort
        # well within 2 s shows the deadline is read after each graph.
        monkeypatch.setattr(enumeration, "check_proposition", _slow_check)
        start = time.monotonic()
        with pytest.raises(BudgetError):
            census(5, workers=2, budget_seconds=0.5)
        assert time.monotonic() - start < 2.0

    def test_budget_stops_the_screen_between_codes(self, monkeypatch):
        # Each screened code takes 50 ms; the deadline is read before the
        # candidate that finds the next, so a 0.5 s budget screens at most
        # 11 codes, and rows 1 to 4 alone hold 91.
        screened = []
        screen = enumeration._screen

        def slow_screen(n, edges, ones):
            screened.append(n)
            time.sleep(0.05)
            return screen(n, edges, ones)

        monkeypatch.setattr(enumeration, "_screen", slow_screen)
        with pytest.raises(BudgetError) as err:
            census(5, workers=1, budget_seconds=0.5)
        assert err.value.completed_rows < 4
        assert 1 <= len(screened) <= 11

    def test_budget_stops_pool_shards_mid_row(self):
        # The census to n = 7 takes about 1.5 s on two workers.  The deadline
        # is read before each enumeration candidate, at the end of each
        # shard and after each graph, so the run stops soon after it,
        # whichever stage it is in.
        start = time.monotonic()
        with pytest.raises(BudgetError):
            census(7, workers=2, budget_seconds=0.3)
        assert time.monotonic() - start < 3.0

    def test_a_failing_graph_is_a_counterexample(self, monkeypatch):
        monkeypatch.setattr(enumeration, "check_proposition", lambda g: PropositionResult(
            holds=False, n_valid_markings=0, n_valid_labelings=0, valid_labelings=(),
            detail="forced failure",
        ))
        with pytest.raises(CounterexampleError) as err:
            census(2)
        assert str(err.value) == (
            "marking/labeling correspondence failed on a 1-vertex graph: forced failure"
        )
        assert err.value.graph == graph(["v1"], [])

    def test_an_unbalanced_row_is_a_counterexample(self, monkeypatch):
        monkeypatch.setattr(enumeration, "check_proposition", lambda g: PropositionResult(
            holds=True, n_valid_markings=1, n_valid_labelings=0, valid_labelings=(),
        ))
        with pytest.raises(CounterexampleError) as err:
            census(2)
        assert str(err.value) == (
            "census row 1 breaks the labeling/marking balance: 0 labelings vs 1 markings"
        )
        assert err.value.graph is None

    def test_max_vertices_bound(self):
        with pytest.raises(ValueError):
            census(9)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True])
    def test_max_vertices_must_be_an_int(self, bad):
        with pytest.raises(ValueError, match="census max_vertices must be in"):
            census(bad)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("-inf")])
    def test_nan_and_negative_budgets_refused(self, bad):
        with pytest.raises(ValueError, match="budget"):
            census(1, budget_seconds=bad)

    # An int or float only: "5" and [1] raised TypeError, and True passed.
    @pytest.mark.parametrize("bad", ["5", [1], True])
    def test_budget_must_be_an_int_or_float(self, bad):
        with pytest.raises(ValueError, match="census budget_seconds must be a number"):
            census(1, budget_seconds=bad)

    @pytest.mark.parametrize("bad", [0, -2, 2.5])
    def test_fewer_than_one_worker_refused(self, bad):
        with pytest.raises(ValueError, match="workers"):
            census(1, workers=bad)

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

    def test_stream_runs_its_shards_on_a_pool_and_shuts_it_down(self, monkeypatch):
        monkeypatch.delenv("CRYSTALCHECK_THREADS", raising=False)
        serial = list(enumerate_graphs(GraphStream(max_vertices=4)))
        pools = []

        class RecordingPool(enumeration.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.rows = 0
                self.closed = False
                pools.append(self)

            def map(self, *args, **kwargs):
                self.rows += 1
                return super().map(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                self.closed = True
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(enumeration, "resolve_workers", lambda: 2)
        assert list(enumerate_graphs(GraphStream(max_vertices=4))) == serial
        assert (pools[0].rows, pools[0].closed) == (4, True)

        # Closing the stream early shuts its pool down too.
        stream = enumerate_graphs(GraphStream(max_vertices=5))
        next(stream)
        assert not pools[1].closed
        stream.close()
        assert (pools[1].rows, pools[1].closed) == (1, True)
