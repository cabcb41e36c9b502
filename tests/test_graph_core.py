"""Degree axiom, string decomposition, potentials, and components."""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given

from crystalcheck import (
    ColoredDigraph,
    CycleCertificate,
    DegreeAxiomError,
    Edge,
    GraphError,
    GraphStream,
    MonochromaticCycleError,
    Potential,
    check_degree_axiom,
    decompose_strings,
    enumerate_graphs,
    find_potential,
    weak_components,
)

from helpers import (
    b0_graphs,
    colored_digraphs,
    dfs_potential,
    dict_components,
    dict_potential,
    dict_strings,
    graph,
    graph_fault,
    kahn_is_acyclic,
    neighbor_components,
    path5,
    port_scan_b0,
    random_b0_edge_set,
)


def every_small_edge_set():
    """Edge sets to hold against the port scan, on vertices declared in
    reverse name order: every edge set on at most 3 positions, and on 4
    positions every set of one color's 12 slots, alone in either color and
    beside a seeded set of the other color's slots (all 2^24 two-color
    sets would take minutes)."""
    rng = random.Random(4)
    for n in range(1, 5):
        names = [f"v{k}" for k in range(n)]
        vertices = names[::-1]
        slots = [(names[i], names[j]) for i in range(n) for j in range(n) if i != j]
        if n <= 3:
            colored = [(t, h, c) for c in (1, 2) for t, h in slots]
            for mask in range(1 << len(colored)):
                yield vertices, [edge for k, edge in enumerate(colored) if mask >> k & 1]
            continue
        for mask in range(1 << len(slots)):
            chosen = [slot for k, slot in enumerate(slots) if mask >> k & 1]
            other = [slot for slot in slots if rng.random() < 0.3]
            yield vertices, [(t, h, 1) for t, h in chosen]
            yield vertices, [(t, h, 2) for t, h in chosen]
            yield vertices, [(t, h, 1) for t, h in chosen] + [(t, h, 2) for t, h in other]


# Each fault ``faulty_inputs`` plants, by the error kind it should raise;
# "unknown-color" replaces a color by one of BAD_COLORS.
FAULT_KINDS = (
    "duplicate-vertex", "empty-vertex-set", "dangling-endpoint", "self-loop",
    "duplicate-edge", "unknown-color",
)
BAD_COLORS = (True, 1.0, 0, 3, "1", [1])


def faulty_inputs(count: int, seed: int):
    """Seeded (vertices, edges, planted) inputs: a random valid graph on up
    to 7 vertices, declared in shuffled order, with 0 to 3 faults planted
    at random places; ``planted`` lists their kinds in planting order."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        names = [f"v{k}" for k in range(n)]
        rng.shuffle(names)
        slots = [(t, h, c) for t in names for h in names if t != h for c in (1, 2)]
        edges = [Edge(*slot) for slot in rng.sample(slots, min(len(slots), rng.randint(0, 10)))]
        vertices = list(names)
        planted = [rng.choice(FAULT_KINDS) for _ in range(rng.choice((0, 1, 1, 2, 3)))]
        for kind in planted:
            v = rng.choice(names)
            at = rng.randint(0, len(edges))
            if kind == "duplicate-vertex":
                vertices.insert(rng.randint(0, len(vertices)), v)
            elif kind == "empty-vertex-set":
                vertices = []
            elif kind == "dangling-endpoint":
                ends = [v, "ghost"] if rng.random() < 0.5 else ["ghost", v]
                edges.insert(at, Edge(*ends, rng.choice((1, 2))))
            elif kind == "self-loop":
                edges.insert(at, Edge(v, v, rng.choice((1, 2))))
            elif kind == "duplicate-edge" and edges:
                edges.insert(at, rng.choice(edges))
            elif kind == "unknown-color" and edges:
                k = rng.randrange(len(edges))
                edges[k] = edges[k]._replace(color=rng.choice(BAD_COLORS))
        yield vertices, edges, planted


class TestEdge:
    def test_edge_is_its_triple(self):
        e = Edge("a", "b", 1)
        assert e == ("a", "b", 1) and tuple(e) == ("a", "b", 1)
        assert hash(e) == hash(("a", "b", 1))
        assert {e: "x"}[("a", "b", 1)] == "x"
        assert (e.tail, e.head, e.color) == ("a", "b", 1)
        assert repr(e) == "Edge(tail='a', head='b', color=1)"

    def test_edge_rejects_assignment(self):
        e = Edge("a", "b", 1)
        for name in ("tail", "head", "color"):
            with pytest.raises(AttributeError):
                setattr(e, name, "z")
        assert e == ("a", "b", 1)

    def test_edge_pickles_and_deep_copies(self):
        e = Edge("a", "b", 2)
        for twin in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert type(twin) is Edge and twin == e and repr(twin) == repr(e)

    def test_graph_refuses_a_plain_tuple_edge(self):
        for edges in ([("a", "b", 1)], [Edge("a", "b", 1), ("b", "a", 2)], [("a", "b", 1), Edge("a", "b", 3)]):
            with pytest.raises(AttributeError, match="'tuple' object has no attribute 'tail'"):
                ColoredDigraph(vertices=("a", "b"), edges=edges)
            with pytest.raises(AttributeError):
                graph_fault(("a", "b"), edges)
        # A fault before the plain tuple is named first, as the scan meets it.
        edges = [Edge("a", "b", 3), ("a", "b", 1)]
        with pytest.raises(GraphError) as err:
            ColoredDigraph(vertices=("a", "b"), edges=edges)
        assert (err.value.kind, err.value.index, err.value.value) == graph_fault(("a", "b"), edges)


class TestDegreeAxiom:
    def test_double_out_edge_is_reported(self):
        g = graph(["a", "b", "c"], [("a", "b", 1), ("a", "c", 1)])
        report = check_degree_axiom(g)
        assert len(report) == 1
        violation = report.entries[0]
        assert violation.clause == "B0"
        assert violation.at == "a"
        assert "leaving 1-edges" in violation.detail

    def test_monochromatic_path_is_fine(self):
        g = graph(["a", "b", "c"], [("a", "b", 2), ("b", "c", 2)])
        assert check_degree_axiom(g).ok

    def test_degrees_are_counted_per_color(self):
        g = graph(["a", "b", "c"], [("a", "b", 1), ("a", "c", 2)])
        assert check_degree_axiom(g).ok

    def test_one_violation_per_vertex_color_direction(self):
        g = graph(
            ["a", "b", "c"],
            [("a", "b", 1), ("a", "c", 1), ("b", "a", 1), ("c", "a", 1)],
        )
        report = check_degree_axiom(g)
        assert [(v.at, v.detail.split(" has ")[1][:10]) for v in report] == [
            ("a", "2 entering"),
            ("a", "2 leaving "),
        ]

    def test_matches_the_port_scan_on_every_small_edge_set(self):
        checked = breaking = 0
        for vertices, edges in every_small_edge_set():
            g = graph(vertices, edges)
            entries, errors = port_scan_b0(g)
            report = check_degree_axiom(g)
            assert [(x.clause, x.at, x.detail) for x in report] == [
                ("B0", v, detail) for v, detail in entries
            ]
            for color, text in errors.items():
                if text is None:
                    try:
                        decompose_strings(g, color)
                    except MonochromaticCycleError:
                        pass
                else:
                    with pytest.raises(DegreeAxiomError) as err:
                        decompose_strings(g, color)
                    assert str(err.value) == text
            checked += 1
            breaking += bool(entries)
        assert (checked, breaking) == (1 + 16 + 4096 + 3 * 4096, 15_823)


class TestStringDecomposition:
    def test_path5_color1(self):
        decomp = decompose_strings(path5(), 1)
        assert decomp.strings == (("v1", "v2"), ("v3",), ("v4", "v5"))

    def test_path5_color2(self):
        decomp = decompose_strings(path5(), 2)
        assert decomp.strings == (("v1",), ("v2", "v3", "v4"), ("v5",))

    def test_edgeless_graph_gives_singletons(self):
        g = graph(["a", "b", "c"], [])
        for color in (1, 2):
            assert decompose_strings(g, color).strings == (("a",), ("b",), ("c",))
        with pytest.raises(ValueError, match="color must be one of"):
            decompose_strings(g, 3)

    @pytest.mark.parametrize("bad", [[1], 1.0, True])
    def test_color_must_be_an_int_even_once_memoized(self, bad):
        # The color is checked before the memo: [1] is unhashable, and 1.0
        # and True would find the color-1 decomposition.
        g = graph(["a", "b"], [("a", "b", 1)])
        decompose_strings(g, 1)
        with pytest.raises(ValueError, match="color must be one of"):
            decompose_strings(g, bad)

    def test_degree_violation_is_an_error(self):
        g = graph(["a", "b", "c"], [("a", "b", 1), ("a", "c", 1)])
        with pytest.raises(DegreeAxiomError):
            decompose_strings(g, 1)

    def test_degree_violation_names_the_first_offender_in_declared_order(self):
        # "c" leaves two 1-edges and "d", declared first, enters two; a
        # 2-edge offender does not count for color 1.
        g = graph(
            ["d", "a", "b", "c"],
            [("c", "a", 1), ("c", "b", 1), ("a", "d", 1), ("b", "d", 1),
             ("b", "a", 2), ("b", "c", 2)],
        )
        with pytest.raises(DegreeAxiomError, match="vertex 'd' violates"):
            decompose_strings(g, 1)
        with pytest.raises(DegreeAxiomError, match="vertex 'b' violates .* color 2"):
            decompose_strings(g, 2)

    def test_monochromatic_cycle_is_an_error(self):
        g = graph(["a", "b"], [("a", "b", 1), ("b", "a", 1)])
        with pytest.raises(MonochromaticCycleError) as err:
            decompose_strings(g, 1)
        assert err.value.color == 1
        assert err.value.cycle[0] == err.value.cycle[-1]

    def test_other_color_unaffected_by_cycle(self):
        g = graph(["a", "b"], [("a", "b", 1), ("b", "a", 1)])
        assert decompose_strings(g, 2).strings == (("a",), ("b",))

    def test_position_lookup(self):
        decomp = decompose_strings(path5(), 2)
        assert decomp.string_of("v3") == ("v2", "v3", "v4")
        assert decomp.position("v3") == (1, 1)

    @given(b0_graphs(max_vertices=6, require_acyclic=False))
    def test_strings_partition_the_vertex_set(self, g):
        for color in (1, 2):
            try:
                decomp = decompose_strings(g, color)
            except MonochromaticCycleError:
                continue
            flat = [v for string in decomp.strings for v in string]
            assert sorted(flat) == sorted(g.vertices)
            assert len(flat) == len(set(flat))
            for string in decomp.strings:
                for a, b in zip(string, string[1:]):
                    assert g.has_edge(a, b, color)
                assert not g.in_edges(string[0], color)
                assert not g.out_edges(string[-1], color)


class TestStringSkeleton:
    """Decompositions are computed once per graph and color, then shared."""

    def test_memo_matches_a_fresh_decomposition(self):
        for g in enumerate_graphs(GraphStream(max_vertices=5)):
            for color in (1, 2):
                first = decompose_strings(g, color)
                assert decompose_strings(g, color) is first
                fresh = decompose_strings(ColoredDigraph(g.vertices, g.edges), color)
                assert fresh is not first
                assert fresh == first

    def test_failures_are_not_memoized(self):
        cases = [
            (graph(["a", "b", "c"], [("a", "b", 1), ("a", "c", 1)]), DegreeAxiomError),
            (graph(["a", "b"], [("a", "b", 1), ("b", "a", 1)]), MonochromaticCycleError),
        ]
        for g, error in cases:
            for _ in range(2):
                with pytest.raises(error):
                    decompose_strings(g, 1)

    def test_equality_hash_and_repr_ignore_the_memo(self):
        g = path5()
        before = repr(g)
        for color in (1, 2):
            decompose_strings(g, color)
        twin = ColoredDigraph(g.vertices, g.edges)
        assert g == twin
        assert hash(g) == hash(twin)
        assert repr(g) == before == repr(twin)


def reader_graphs():
    """The 594 graphs of the n <= 5 census universe, then 1,200 seeded
    random edge sets on 1 to 9 vertices, declared in shuffled order and
    listed in shuffled order: every other one a (B0) edge set, which may
    hold monochromatic cycles, the rest any edge set at a random density,
    most of them breaking (B0)."""
    yield from enumerate_graphs(GraphStream(max_vertices=5))
    rng = random.Random(2031)
    for k in range(1200):
        n = rng.randint(1, 9)
        if k % 2:
            slots = random_b0_edge_set(rng, n)
        else:
            density = rng.uniform(0.0, 0.35)
            slots = [(i, j, c) for i in range(n) for j in range(n) if i != j for c in (1, 2)
                     if rng.random() < density]
        vertices = [f"v{i}" for i in range(n)]
        edges = [(vertices[i], vertices[j], c) for i, j, c in slots]
        rng.shuffle(vertices)
        rng.shuffle(edges)
        yield graph(vertices, edges)


def string_outcome(g, color, decompose):
    """The decomposition, or the class, text and cycle of its error."""
    try:
        return decompose(g, color)
    except (DegreeAxiomError, MonochromaticCycleError) as err:
        return type(err), str(err), getattr(err, "cycle", None)


class TestReadersMatchTheNamePortOracles:
    def test_on_census_and_random_graphs(self):
        kinds = {"graphs": 0, "breaks-b0": 0, "cyclic": 0, "monochromatic-cycle": 0, "components": 0}
        for g in reader_graphs():
            potential = find_potential(g)
            assert potential == dict_potential(g)
            assert weak_components(g) == dict_components(g)
            for color in (1, 2):
                outcome = string_outcome(g, color, decompose_strings)
                assert outcome == string_outcome(g, color, dict_strings)
                kinds["monochromatic-cycle"] += type(outcome) is tuple and outcome[0] is MonochromaticCycleError
            kinds["graphs"] += 1
            kinds["breaks-b0"] += bool(check_degree_axiom(g))
            kinds["cyclic"] += isinstance(potential, CycleCertificate)
            kinds["components"] += len(weak_components(g)) > 1
        assert kinds["graphs"] == 594 + 1200
        assert min(kinds.values()) >= 150, kinds


class TestPotential:
    def test_single_edge(self):
        g = graph(["a", "b"], [("a", "b", 1)])
        result = find_potential(g)
        assert isinstance(result, Potential)
        assert result.values == {"a": 0, "b": 1}

    def test_two_cycle_certificate(self):
        g = graph(["a", "b"], [("a", "b", 1), ("b", "a", 2)])
        result = find_potential(g)
        assert isinstance(result, CycleCertificate)
        assert result.vertices == ("a", "b", "a")

    def test_path5_depths(self):
        result = find_potential(path5())
        assert [result.values[v] for v in path5().vertices] == [0, 1, 2, 3, 4]

    def test_longest_path_beats_short_route(self):
        g = graph(
            ["s", "a", "b", "t"],
            [("s", "t", 1), ("s", "a", 2), ("a", "b", 1), ("b", "t", 2)],
        )
        result = find_potential(g)
        assert result.values == {"s": 0, "a": 1, "b": 2, "t": 3}

    @given(colored_digraphs(max_vertices=6))
    def test_agrees_with_independent_cycle_detection(self, g):
        result = find_potential(g)
        if kahn_is_acyclic(g):
            assert isinstance(result, Potential)
            for e in g.edges:
                assert result.values[e.tail] < result.values[e.head]
            assert all(0 <= value <= g.n_vertices - 1 for value in result.values.values())
        else:
            assert isinstance(result, CycleCertificate)
            cycle = result.vertices
            assert cycle[0] == cycle[-1]
            assert len(cycle) >= 3
            for a, b in zip(cycle, cycle[1:]):
                assert g.has_edge(a, b, 1) or g.has_edge(a, b, 2)


    @given(colored_digraphs(max_vertices=6))
    def test_matches_the_depth_first_potential_and_certificate(self, g):
        assert find_potential(g) == dfs_potential(g)

    def test_certificate_is_the_first_cycle_met_behind_a_placed_prefix(self):
        # s and a are placed by the sweep; b, c, d are left, and the search
        # from s meets the cycle b -> c -> d -> b.
        g = graph(
            ["s", "a", "b", "c", "d"],
            [("s", "a", 1), ("a", "b", 2), ("b", "c", 1), ("c", "d", 2), ("d", "b", 1)],
        )
        assert find_potential(g) == dfs_potential(g) == CycleCertificate(("b", "c", "d", "b"))

    def test_values_are_a_read_only_copy(self):
        source = {"a": 0, "b": 1}
        potential = Potential(values=source)
        source["a"] = 5
        with pytest.raises(TypeError):
            potential.values["a"] = 2
        assert potential.values == {"a": 0, "b": 1}
        found = find_potential(graph(["a", "b"], [("a", "b", 1)]))
        with pytest.raises(TypeError):
            found.values["b"] = 0
        for twin in (pickle.loads(pickle.dumps(found)), copy.deepcopy(found)):
            assert twin == found == potential

    def test_equal_potentials_hash_equal(self):
        # A read-only view is unhashable; the hash is that of the items.
        found = find_potential(graph(["a", "b"], [("a", "b", 1)]))
        same = Potential(values={"b": found.values["b"], "a": found.values["a"]})
        assert hash(found) == hash(same)
        assert len({found, same, Potential(values={"a": 0})}) == 2

    def test_long_path_without_recursion(self):
        n = 20_000
        g = graph([f"v{k}" for k in reversed(range(n))],
                  [(f"v{k}", f"v{k + 1}", 1 + k % 2) for k in range(n - 1)])
        assert find_potential(g).values == {f"v{k}": k for k in range(n)}


class TestWeakComponents:
    def test_edgeless(self):
        g = graph(["a", "b", "c"], [])
        assert weak_components(g) == (("a",), ("b",), ("c",))

    def test_path_is_one_component(self):
        assert weak_components(path5()) == (("v1", "v2", "v3", "v4", "v5"),)

    def test_two_disjoint_edges(self):
        g = graph(["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 2)])
        assert weak_components(g) == (("a", "b"), ("c", "d"))

    def test_many_components_follow_declared_order(self):
        # 2,500 two-vertex components: every head is declared before every
        # tail and the tails come in reverse, so each component's members
        # lie far apart in declared order and its edge runs tail to head.
        n = 2500
        vertices = [f"h{k}" for k in range(n)] + [f"t{k}" for k in reversed(range(n))]
        g = graph(vertices, [(f"t{k}", f"h{k}", 1 + k % 2) for k in range(n)])
        assert weak_components(g) == tuple((f"h{k}", f"t{k}") for k in range(n))

    @given(colored_digraphs(max_vertices=7))
    def test_match_the_neighbor_set_search(self, g):
        assert weak_components(g) == neighbor_components(g)

    @given(colored_digraphs(max_vertices=6))
    def test_components_partition_and_follow_declared_order(self, g):
        components = weak_components(g)
        flat = [v for component in components for v in component]
        assert sorted(flat) == sorted(g.vertices)
        for component in components:
            indices = [g.vertex_index(v) for v in component]
            assert indices == sorted(indices)


class TestGraphInvariants:
    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError):
            graph(["a", "a"], [])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            graph(["a"], [("a", "a", 1)])

    def test_duplicate_triple_rejected(self):
        with pytest.raises(ValueError):
            graph(["a", "b"], [("a", "b", 1), ("a", "b", 1)])

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(ValueError):
            graph(["a"], [("a", "b", 1)])

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(ValueError):
            graph([], [])

    @pytest.mark.parametrize("color", BAD_COLORS)
    def test_color_must_be_an_int(self, color):
        # True and 1.0 compare equal to 1, but would serialize as true and
        # 1.0; [1] cannot be hashed.
        edges = (Edge("a", "b", 1), Edge("b", "a", color))
        with pytest.raises(ValueError, match="color outside") as err:
            ColoredDigraph(vertices=("a", "b"), edges=edges)
        assert (err.value.kind, err.value.index, err.value.value) == ("unknown-color", 1, color)

    @pytest.mark.parametrize("vertices, edges, kind, index, value", [
        ([], [], "empty-vertex-set", None, None),
        (["a", "b", "a", "b"], [], "duplicate-vertex", 2, "a"),
        (["a", "b"], [("a", "b", 1), ("a", "b", 3), ("b", "b", 1)], "unknown-color", 1, 3),
        (["a", "b"], [("a", "x", 1), ("y", "b", 1)], "dangling-endpoint", 0, "x"),
        (["a", "b"], [("b", "a", 2), ("y", "x", 1)], "dangling-endpoint", 1, "y"),
        (["a", "b"], [("a", "b", 1), ("b", "b", 2), ("a", "a", 1)], "self-loop", 1, "b"),
        (["a", "b"], [("a", "b", 1), ("b", "a", 1), ("a", "b", 1)],
         "duplicate-edge", 2, ("a", "b", 1)),
    ])
    def test_errors_name_their_first_fault(self, vertices, edges, kind, index, value):
        with pytest.raises(GraphError) as err:
            graph(vertices, edges)
        assert isinstance(err.value, ValueError)
        assert (err.value.kind, err.value.index, err.value.value) == (kind, index, value)

    def test_vertex_faults_come_before_edge_faults(self):
        with pytest.raises(GraphError) as err:
            graph(["a", "a"], [("a", "a", 7)])
        assert err.value.kind == "duplicate-vertex"

    def test_faults_are_named_as_the_ordered_scan_names_them(self):
        # The constructor's column checks decide whether there is a fault;
        # the error must still name the first one in input order.
        named = {kind: 0 for kind in FAULT_KINDS}
        accepted = several = 0
        for vertices, edges, planted in faulty_inputs(4000, seed=31):
            expected = graph_fault(vertices, edges)
            try:
                ColoredDigraph(vertices=vertices, edges=edges)
            except GraphError as err:
                assert (err.kind, err.index, err.value) == expected, (vertices, edges)
                named[err.kind] += 1
                several += len(planted) > 1
            else:
                assert expected is None, (vertices, edges)
                accepted += 1
        assert min(named.values()) >= 200 and accepted >= 500 and several >= 1000, (named, accepted, several)

    def test_an_unhashable_id_raises_type_error(self):
        with pytest.raises(TypeError):
            ColoredDigraph(vertices=(["a"],), edges=())
        with pytest.raises(TypeError):
            ColoredDigraph(vertices=("a",), edges=(Edge(["a"], "a", 1),))

    def test_ports_group_edges_sharing_a_port_in_edge_order(self):
        g = graph(["a", "b", "c"], [("a", "b", 1), ("c", "b", 2), ("a", "c", 1), ("a", "b", 2)])
        assert [e.head for e in g.out_edges("a", 1)] == ["b", "c"]
        assert [e.tail for e in g.in_edges("b", 2)] == ["c", "a"]
        assert g.out_edges("b", 1) == g.in_edges("a", 2) == ()

    def test_fields_are_copied_into_tuples(self):
        vertices = ("a", "b", "c")
        edges = (Edge("a", "b", 1), Edge("b", "c", 2), Edge("a", "c", 2))
        g = ColoredDigraph(vertices=(v for v in vertices), edges=(e for e in edges))
        assert type(g.vertices) is tuple and g.vertices == vertices
        assert type(g.edges) is tuple and g.edges == edges
        assert [e for v in g.vertices for c in (1, 2) for e in g.out_edges(v, c)] == [
            edges[0], edges[2], edges[1]
        ]
        assert hash(g) == hash(ColoredDigraph(vertices=vertices, edges=edges))

    def test_vertex_set_becomes_a_tuple(self):
        g = ColoredDigraph(vertices={"a", "b"}, edges=())
        assert type(g.vertices) is tuple and sorted(g.vertices) == ["a", "b"]
        hash(g)
