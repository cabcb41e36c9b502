"""Global and local axiom checks, conversions, and label inference."""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalcheck import (
    CentralityError,
    CentralMarking,
    DegreeAxiomError,
    GraphStream,
    Labeling,
    LabelingError,
    MarkingError,
    PreconditionError,
    check_global,
    check_local,
    classify_edges,
    classify_vertices,
    decompose_strings,
    enumerate_graphs,
    infer_labelings,
    labels_from_marking,
    marking_from_labels,
)
from crystalcheck import axioms
from crystalcheck.axioms import (
    ALLOWED_PAIRS_1,
    ALLOWED_PAIRS_2,
    LABEL_VALUES,
    VertexClass,
    _propagate,
)

from helpers import (
    _local_clauses,
    arc_consistent_domains,
    b0_edge_sets,
    b0_graphs,
    bare_1_edge,
    chain4,
    graph,
    infer_labelings_exhaustive,
    kernel_network,
    labeling,
    labels_in,
    path5,
    single_vertex,
    unary_domains,
)


# Ids a marking may name: the graph's own, strays, and strays of other types.
MARKING_IDS = st.one_of(
    st.sampled_from(["v1", "v2", "v3", "v4", "v5"]),
    st.text(max_size=2),
    st.integers(-2, 2),
    st.none(),
    st.tuples(st.integers(0, 1), st.text(max_size=1)),
)

# The library accepts cyclic B0 graphs too; inference must handle both.
ACYCLIC_OR_CYCLIC_B0 = st.one_of(
    b0_graphs(max_vertices=6), b0_graphs(max_vertices=6, require_acyclic=False)
)


def marking(vertices=(), edges=()) -> CentralMarking:
    return CentralMarking(
        central_vertices=frozenset(vertices),
        central_1_edges=frozenset(edges),
    )


def propagate(g, domains: dict) -> bool:
    """``_propagate`` on ``g``'s kernel network, the label sets ``domains``
    (per vertex) turned into label masks and the pruned masks written back
    into ``domains`` as label sets."""
    edges, _, incident = kernel_network(g)
    masks = [sum(1 << LABEL_VALUES.index(value) for value in domains[v]) for v in g.vertices]
    consistent = _propagate(masks, edges, incident, list(range(len(edges))))
    domains.update((v, labels_in(mask)) for v, mask in zip(g.vertices, masks))
    return consistent


def assert_propagation_matches_the_fixpoint(g):
    """``_propagate`` from the unary domains, and from them with one vertex
    fixed to each of its values, must reach the fixpoint of the round-robin
    oracle, or fail exactly when the oracle empties a domain."""
    root = unary_domains(g)
    for start in [root] + [{**root, v: {value}} for v in g.vertices for value in root[v]]:
        domains = dict(start)
        expected = arc_consistent_domains(g, start)
        assert propagate(g, domains) == (expected is not None)
        if expected is not None:
            assert domains == expected


class TestLabelingValue:
    def test_labeling_is_hashable(self):
        lab = Labeling(labels={"a": "c", "b": "0"})
        same = Labeling(labels={"b": "0", "a": "c"})
        assert hash(lab) == hash(same)
        assert len({lab, same, Labeling(labels={"a": "c", "b": "1"})}) == 2

    def test_labeling_rejects_writes(self):
        lab = Labeling(labels={"a": "c"})
        with pytest.raises(TypeError):
            lab.labels["a"] = "1"
        assert lab.labels == {"a": "c"}

    def test_labeling_copies_its_source(self):
        source = {"a": "c"}
        lab = Labeling(labels=source)
        source["a"] = "1"
        source["b"] = "0"
        assert lab.labels == {"a": "c"}

    def test_labeling_pickles_and_deep_copies(self):
        lab = Labeling(labels={"a": "c", "b": "0"})
        assert pickle.loads(pickle.dumps(lab)) == lab
        assert copy.deepcopy(lab) == lab

    @pytest.mark.parametrize("value", ["x", "C", 0, None])
    def test_labeling_rejects_values_outside_the_alphabet(self, value):
        with pytest.raises(LabelingError, match="not one of"):
            Labeling(labels={"a": "c", "b": value})

    @pytest.mark.parametrize("value", [[1], 1, "2"])
    def test_labeling_names_the_first_bad_vertex_in_mapping_order(self, value):
        labels = {"z": "c", "b": value, "a": "x", "y": "0"}
        message = f"label of vertex 'b' is {value!r}, not one of ['0', 'c', '1']"
        with pytest.raises(LabelingError) as info:
            Labeling(labels=labels)
        assert str(info.value) == message


class TestCentralMarkingValue:
    def test_marking_copies_its_sources(self):
        vertices = {"a"}
        edges = [["u", "v"]]
        mark = CentralMarking(central_vertices=vertices, central_1_edges=edges)
        vertices.add("b")
        edges[0][1] = "w"
        edges.append(["x", "y"])
        assert mark == marking(["a"], [("u", "v")])
        assert hash(mark) == hash(marking(["a"], [("u", "v")]))
        assert pickle.loads(pickle.dumps(mark)) == mark
        assert copy.deepcopy(mark) == mark


class TestCheckLocal:
    def test_cc_pair_on_1_edge_violates(self):
        g = bare_1_edge()
        report = check_local(g, labeling(g, ["c", "c"]))
        assert [v.clause for v in report] == ["B1(i)"]
        assert report.entries[0].at == ("u", "v", 1)

    def test_isolated_vertex_must_be_central(self):
        g = single_vertex()
        assert check_local(g, labeling(g, ["c"])).ok
        report = check_local(g, labeling(g, ["0"]))
        details = [(v.clause, v.detail) for v in report]
        assert len(details) == 2
        assert details[0][0] == "B1(ii)" and "leaving 1-edge" in details[0][1]
        assert details[1][0] == "B2(ii)" and "entering 2-edge" in details[1][1]

    def test_path5_fixture_labeling_is_valid(self):
        g = path5()
        assert check_local(g, labeling(g, ["c", "1", "c", "0", "c"])).ok

    def test_labeling_must_be_total(self):
        g = path5()
        with pytest.raises(LabelingError):
            check_local(g, Labeling(labels={"v1": "c"}))
        overfull = dict(labeling(g, ["c", "1", "c", "0", "c"]).labels, zz="c")
        with pytest.raises(LabelingError):
            check_local(g, Labeling(labels=overfull))

    def test_every_disallowed_pair_is_flagged(self):
        g = graph(["a", "b"], [("a", "b", 1)])
        for pair in [("c", "c"), ("c", "0"), ("1", "0"), ("1", "c")]:
            assert pair not in ALLOWED_PAIRS_1
            report = check_local(g, labeling(g, pair))
            assert any(v.clause == "B1(i)" for v in report)
        g2 = graph(["a", "b"], [("a", "b", 2)])
        for pair in [("c", "c"), ("c", "1"), ("0", "1"), ("0", "c"), ("1", "0")]:
            assert pair not in ALLOWED_PAIRS_2
            report = check_local(g2, labeling(g2, pair))
            assert any(v.clause == "B2(i)" for v in report)


# SHA-256 of every check_local report on every label vector of the n <= 5
# universe, in enumeration order.
LOCAL_REPORTS_SHA256 = "8cb4ec6e4beb319109fd4ddfbcf3fcaba9add030dca4aa99634e26d24ea841fb"


class TestCompiledClauses:
    def test_agree_with_check_local_on_every_vector_to_five_vertices(self):
        vectors = 0
        # Pins the full text of every report, so a rewrite of check_local
        # that changes a clause, location or detail is caught.
        reports = hashlib.sha256()
        for g in enumerate_graphs(GraphStream(max_vertices=5)):
            clauses = _local_clauses(g)
            for vector in itertools.product(LABEL_VALUES, repeat=g.n_vertices):
                report = check_local(g, labeling(g, vector))
                assert clauses.admits(vector) == (not report)
                reports.update(json.dumps(report.as_jsonable()).encode())
                vectors += 1
        assert vectors == 1 * 3 + 3 * 9 + 13 * 27 + 74 * 81 + 503 * 243
        assert reports.hexdigest() == LOCAL_REPORTS_SHA256

    @given(ACYCLIC_OR_CYCLIC_B0)
    @settings(max_examples=60)
    def test_agree_with_check_local_on_cyclic_graphs_too(self, g):
        clauses = _local_clauses(g)
        for vector in itertools.product(LABEL_VALUES, repeat=g.n_vertices):
            assert clauses.admits(vector) == (not check_local(g, labeling(g, vector)))


class TestCheckGlobal:
    def test_path5_with_three_centers_is_valid(self):
        assert check_global(path5(), marking(vertices=["v1", "v3", "v5"])).ok

    def test_missing_centers_flagged_per_string(self):
        report = check_global(path5(), marking(vertices=["v3"]))
        b1 = [v for v in report if v.clause == "B1"]
        assert [v.at for v in b1] == ["v1", "v4"]
        assert all("0 central elements" in v.detail for v in b1)
        assert [v.detail for v in b1] == [
            str(CentralityError(("v1", "v2"), 0)), str(CentralityError(("v4", "v5"), 0))
        ]

    def test_single_vertex_centered_is_valid(self):
        assert check_global(single_vertex(), marking(vertices=["a"])).ok

    def test_chain4_central_edge_marking_is_valid(self):
        assert check_global(chain4(), marking(vertices=["up", "vp"], edges=[("u", "v")])).ok

    def test_vertex_and_edge_on_same_string_count_as_two(self):
        g = chain4()
        report = check_global(g, marking(vertices=["up", "vp", "u"], edges=[("u", "v")]))
        assert any(v.clause == "B1" and "2 central elements" in v.detail for v in report)

    def test_b2_positional_requirements(self):
        # v2 before the central v3 on the 2-string must be right; making v2
        # central on its own 1-string pushes v1 to left and breaks nothing,
        # but making v1 central leaves v2 left and violates (B2).
        g = path5()
        report = check_global(g, marking(vertices=["v2", "v3", "v5"]))
        # 1-string [v1, v2] has its central element at v2, so v1 is left;
        # but v1's singleton 2-string then has no central vertex.
        assert not report.ok
        clauses = {v.clause for v in report}
        assert "B2" in clauses

    def test_b2_wrong_side_detail(self):
        # On the 2-string [v2, v3, v4] with center v3, v4 must be left; mark
        # v4's 1-string at v4 itself so v5 is right and v4 central: that makes
        # two central vertices on the 2-string? No: v4 central sits on the
        # 2-string, so counting fails first.
        g = path5()
        report = check_global(g, marking(vertices=["v1", "v3", "v4"]))
        b2 = [v for v in report if v.clause == "B2"]
        assert any("2 central vertices" in v.detail for v in b2)

    def test_marking_scope_errors(self):
        with pytest.raises(MarkingError):
            check_global(path5(), marking(vertices=["nope"]))
        with pytest.raises(MarkingError, match="'nope1'"):
            check_global(path5(), marking(vertices=["v1", "nope2", "nope1"]))
        with pytest.raises(MarkingError, match=r"\('a', 'z'\)"):
            check_global(path5(), marking(edges=[("v1", "v2"), ("b", "a"), ("a", "z")]))
        with pytest.raises(MarkingError):
            check_global(path5(), marking(edges=[("v2", "v3")]))  # that edge is color 2

    def test_scope_errors_are_worded_once(self):
        # check_global and classify_vertices share one scope check.
        decomp = decompose_strings(path5(), 1)
        for bad in (marking(vertices=["v1", "nope2", "nope1"]),
                    marking(edges=[("v1", "v2"), ("v2", "v3"), ("v1", "v3")])):
            with pytest.raises(MarkingError) as from_global:
                check_global(path5(), bad)
            with pytest.raises(MarkingError) as from_classes:
                classify_vertices(decomp, bad)
            assert str(from_global.value) == str(from_classes.value)
        assert str(from_global.value) == "central edge ('v1', 'v3') is not a 1-edge of the graph"

    def test_b0_in_color_1_is_reported_before_scope(self):
        g = graph(["a", "b", "c"], [("a", "b", 1), ("a", "c", 1)])
        with pytest.raises(DegreeAxiomError):
            check_global(g, marking(vertices=["nope"]))

    def test_an_edge_that_is_not_a_pair_is_refused(self):
        message = r"^central edge \('u', 'v', 'w'\) is not a \(tail, head\) pair$"
        with pytest.raises(MarkingError, match=message):
            marking(edges=[("u", "v", "w")])
        with pytest.raises(MarkingError):
            marking(edges=[("u",)])

    @pytest.mark.parametrize("vertices, edges, message", [
        ("v1", [], "not a str"),
        ([], "ab", "not a str"),
        ([], ["ab"], r"^central edge 'ab' is not a \(tail, head\) pair$"),
        ([], [{"v1", "v2"}], r"^central edge \{'v[12]', 'v[12]'\} is not a \(tail, head\) pair$"),
        ([], [frozenset({"v1", "v2"})], r"^central edge frozenset\(.*\) is not a \(tail,"),
        ([], [{"v1": "v2"}], r"^central edge \{'v1': 'v2'\} is not a \(tail, head\) pair$"),
    ])
    def test_a_str_is_refused_where_a_collection_is_due(self, vertices, edges, message):
        # A str would split into its characters: the vertices "v1" into
        # {"v", "1"}, the edge "ab" into ("a", "b").  An edge must be an
        # ordered pair: a set would read in hash order, which varies from
        # run to run, and a dict as its keys.
        with pytest.raises(MarkingError, match=message):
            CentralMarking(central_vertices=vertices, central_1_edges=edges)

    def test_strays_of_mixed_types_are_marking_errors(self):
        # Strays that do not compare with each other are still reported by
        # one fixed order, by both entry points.
        g = bare_1_edge()
        decomp = decompose_strings(g, 1)
        for bad, message in (
            (marking(vertices=["zz", 3]), "central vertex 3 is not in the graph"),
            (marking(edges=[("u", 1), ("u", "w")]),
             "central edge ('u', 'w') is not a 1-edge of the graph"),
        ):
            with pytest.raises(MarkingError) as from_global:
                check_global(g, bad)
            with pytest.raises(MarkingError) as from_classes:
                classify_vertices(decomp, bad)
            assert str(from_global.value) == str(from_classes.value) == message

    @given(
        st.sets(MARKING_IDS, max_size=4),
        st.sets(st.tuples(MARKING_IDS, MARKING_IDS), max_size=4),
    )
    @settings(max_examples=100)
    def test_any_accepted_marking_gets_a_report_or_a_marking_error(self, vertices, edges):
        # Any other exception, a TypeError above all, fails the test.
        m = marking(vertices=vertices, edges=edges)
        g = path5()
        try:
            check_global(g, m)
        except MarkingError:
            pass
        try:
            classify_vertices(decompose_strings(g, 1), m)
        except (MarkingError, CentralityError):
            pass


class TestClassification:
    def test_central_vertex_splits_string(self):
        decomp = decompose_strings(path5(), 1)
        classes = classify_vertices(decomp, marking(vertices=["v1", "v3", "v5"]))
        assert classes.classes == {
            "v1": "central", "v2": "right", "v3": "central", "v4": "left", "v5": "central",
        }

    def test_central_edge_splits_string(self):
        decomp = decompose_strings(chain4(), 1)
        classes = classify_vertices(decomp, marking(vertices=["up", "vp"], edges=[("u", "v")]))
        assert classes.classes["u"] == "left"
        assert classes.classes["v"] == "right"

    def test_singleton_string_central(self):
        decomp = decompose_strings(single_vertex(), 1)
        classes = classify_vertices(decomp, marking(vertices=["a"]))
        assert classes.classes == {"a": "central"}
        with pytest.raises(ValueError, match="color-1 decomposition"):
            classify_vertices(decompose_strings(single_vertex(), 2), marking(vertices=["a"]))

    def test_classes_are_a_read_only_copy(self):
        decomp = decompose_strings(single_vertex(), 1)
        classes = classify_vertices(decomp, marking(vertices=["a"]))
        with pytest.raises(TypeError):
            classes.classes["a"] = "left"
        assert classes.classes == {"a": "central"}
        for twin in (pickle.loads(pickle.dumps(classes)), copy.deepcopy(classes)):
            assert twin == classes
        source = {"a": "left"}
        copied = VertexClass(classes=source)
        source["a"] = "right"
        assert copied.classes == {"a": "left"}

    def test_equal_classes_hash_equal(self):
        # A read-only view is unhashable; the hash is that of the items.
        first = VertexClass(classes={"a": "left", "b": "right"})
        second = VertexClass(classes={"b": "right", "a": "left"})
        assert hash(first) == hash(second)
        assert len({first, second, VertexClass(classes={"a": "right"})}) == 2

    def test_unbalanced_string_raises_with_string(self):
        decomp = decompose_strings(path5(), 1)
        with pytest.raises(CentralityError) as err:
            classify_vertices(decomp, marking(vertices=["v3"]))
        assert err.value.string == ("v1", "v2")
        assert err.value.count == 0

    def test_edge_classification_tables(self):
        g = graph(["a", "b"], [("a", "b", 1)])
        assert classify_edges(g, labeling(g, ["0", "1"]))[g.edges[0]] == "central"
        assert classify_edges(g, labeling(g, ["1", "1"]))[g.edges[0]] == "right"
        assert classify_edges(g, labeling(g, ["0", "c"]))[g.edges[0]] == "left"
        g2 = graph(["a", "b"], [("a", "b", 2)])
        assert classify_edges(g2, labeling(g2, ["1", "c"]))[g2.edges[0]] == "right"
        assert classify_edges(g2, labeling(g2, ["c", "0"]))[g2.edges[0]] == "left"

    def test_edge_classification_requires_admissible_pairs(self):
        g = bare_1_edge()
        with pytest.raises(PreconditionError):
            classify_edges(g, labeling(g, ["c", "c"]))

    @given(b0_graphs(max_vertices=6))
    @settings(max_examples=60)
    def test_edge_classes_match_vertex_classes(self, g):
        # A non-central 1-edge is left exactly when its tail is left and
        # right exactly when its head is right.
        for lab in infer_labelings(g):
            m = marking_from_labels(g, lab)
            classes = classify_vertices(decompose_strings(g, 1), m)
            for e, cls in classify_edges(g, lab).items():
                if e.color != 1 or (e.tail, e.head) in m.central_1_edges:
                    continue
                if cls == "left":
                    assert classes.classes[e.tail] == "left"
                if cls == "right":
                    assert classes.classes[e.head] == "right"


class TestConversions:
    def test_path5_labels_from_marking(self):
        g = path5()
        lab = labels_from_marking(g, marking(vertices=["v1", "v3", "v5"]))
        assert lab.vector(g) == ("c", "1", "c", "0", "c")

    def test_single_vertex_labels_from_marking(self):
        g = single_vertex()
        assert labels_from_marking(g, marking(vertices=["a"])).vector(g) == ("c",)

    def test_chain4_central_edge_labels(self):
        g = chain4()
        lab = labels_from_marking(g, marking(vertices=["up", "vp"], edges=[("u", "v")]))
        assert lab.vector(g) == ("c", "0", "1", "c")

    def test_labels_from_marking_checks_the_scope_once(self, monkeypatch):
        calls = []
        scope = axioms._check_marking_scope

        def counted(*args):
            calls.append(args)
            return scope(*args)

        monkeypatch.setattr(axioms, "_check_marking_scope", counted)
        g = path5()
        assert labels_from_marking(g, marking(vertices=["v1", "v3", "v5"])).vector(g) == (
            "c", "1", "c", "0", "c"
        )
        assert len(calls) == 1

    def test_path5_marking_from_labels(self):
        g = path5()
        m = marking_from_labels(g, labeling(g, ["c", "1", "c", "0", "c"]))
        assert m == marking(vertices=["v1", "v3", "v5"])

    def test_chain4_marking_from_labels(self):
        g = chain4()
        m = marking_from_labels(g, labeling(g, ["c", "0", "1", "c"]))
        assert m == marking(vertices=["up", "vp"], edges=[("u", "v")])

    def test_single_vertex_marking_from_labels(self):
        g = single_vertex()
        assert marking_from_labels(g, labeling(g, ["c"])) == marking(vertices=["a"])

    def test_preconditions_are_enforced(self):
        g = path5()
        with pytest.raises(PreconditionError):
            labels_from_marking(g, marking(vertices=["v3"]))
        with pytest.raises(MarkingError, match="^central vertex 'nope' is not in the graph$"):
            labels_from_marking(g, marking(vertices=["v1", "v3", "v5", "nope"]))
        with pytest.raises(PreconditionError):
            marking_from_labels(g, labeling(g, ["c", "c", "c", "c", "c"]))

    def test_labels_agree_with_classification_on_small_universe(self):
        to_label = {"left": "0", "central": "c", "right": "1"}
        checked = 0
        for g in enumerate_graphs(GraphStream(max_vertices=4)):
            elements = [("v", v) for v in g.vertices] + [
                ("e", (e.tail, e.head)) for e in g.edges if e.color == 1
            ]
            for r in range(len(elements) + 1):
                for subset in itertools.combinations(elements, r):
                    m = marking(
                        vertices=[x for kind, x in subset if kind == "v"],
                        edges=[x for kind, x in subset if kind == "e"],
                    )
                    if check_global(g, m):
                        continue
                    classes = classify_vertices(decompose_strings(g, 1), m).classes
                    lab = labels_from_marking(g, m)
                    assert lab.labels == {v: to_label[classes[v]] for v in g.vertices}
                    checked += 1
        assert checked == 7  # the census marking totals for n = 1..4

    @given(b0_graphs(max_vertices=6))
    @settings(max_examples=60)
    def test_round_trips_on_valid_labelings(self, g):
        for lab in infer_labelings(g):
            m = marking_from_labels(g, lab)
            assert check_global(g, m).ok
            back = labels_from_marking(g, m)
            assert back.vector(g) == lab.vector(g)
            assert marking_from_labels(g, back) == m


class TestInference:
    def test_single_vertex_forced_central(self):
        g = single_vertex()
        assert [lab.vector(g) for lab in infer_labelings(g)] == [("c",)]

    def test_bare_1_edge_has_no_labeling(self):
        assert infer_labelings(bare_1_edge()) == []
        assert infer_labelings_exhaustive(bare_1_edge()) == []

    def test_path5_unique_labeling(self):
        g = path5()
        assert [lab.vector(g) for lab in infer_labelings(g)] == [("c", "1", "c", "0", "c")]

    def test_chain4_unique_labeling(self):
        g = chain4()
        assert [lab.vector(g) for lab in infer_labelings(g)] == [("c", "0", "1", "c")]

    def test_lexicographic_output_order(self):
        # Two isolated vertices admit only (c, c); pad with a mixed path that
        # admits several labelings to see the order.
        g = graph(
            ["a", "b", "c", "d"],
            [("a", "b", 1), ("b", "c", 2), ("c", "d", 1)],
        )
        vectors = [lab.vector(g) for lab in infer_labelings(g)]
        assert vectors == sorted(vectors, key=lambda vec: tuple("0c1".index(x) for x in vec))
        assert vectors == [lab.vector(g) for lab in infer_labelings_exhaustive(g)]

    def test_several_labelings_come_in_lexicographic_order(self):
        # A 1-edge closed into a cycle by a 2-edge admits two labelings.
        g = graph(["a", "b"], [("a", "b", 1), ("b", "a", 2)])
        assert [lab.vector(g) for lab in infer_labelings(g)] == [("0", "c"), ("c", "1")]

    def test_degree_violation_rejected(self):
        g = graph(["a", "b", "c"], [("a", "b", 1), ("a", "c", 1)])
        with pytest.raises(Exception):
            infer_labelings(g)

    @given(ACYCLIC_OR_CYCLIC_B0)
    @settings(max_examples=100)
    def test_propagation_equals_exhaustive(self, g):
        fast = [lab.vector(g) for lab in infer_labelings(g)]
        slow = [lab.vector(g) for lab in infer_labelings_exhaustive(g)]
        assert fast == slow

    @given(ACYCLIC_OR_CYCLIC_B0)
    @settings(max_examples=100)
    def test_propagation_decides_every_remaining_value(self, g):
        # Arc consistency on max-closed relations implies a labeling, so
        # fixing one vertex and propagating again must answer exactly
        # whether some labeling gives it that value.
        labelings = infer_labelings_exhaustive(g)
        root = unary_domains(g)
        if not propagate(g, root):
            assert labelings == []
            return
        for v in g.vertices:
            for value in root[v]:
                fixed = {**root, v: {value}}
                assert propagate(g, fixed) == any(lab.labels[v] == value for lab in labelings)

    def test_propagation_reaches_the_arc_consistent_fixpoint_on_small_edge_sets(self):
        # Every (B0) edge set on at most 4 positions, cycles included: a
        # queue that requeues only the out-edges of a shrunk vertex first
        # misses the fixpoint at 4 positions.
        for n in range(1, 5):
            names = [f"v{k}" for k in range(n)]
            for edges in b0_edge_sets(n):
                assert_propagation_matches_the_fixpoint(
                    graph(names, [(names[i], names[j], c) for i, j, c in edges])
                )

    @given(ACYCLIC_OR_CYCLIC_B0)
    @settings(max_examples=100)
    def test_propagation_reaches_the_arc_consistent_fixpoint(self, g):
        assert_propagation_matches_the_fixpoint(g)

    @given(b0_graphs(max_vertices=6))
    @settings(max_examples=60)
    def test_inferred_labelings_pass_check_local(self, g):
        for lab in infer_labelings(g):
            assert check_local(g, lab).ok
