"""Corollary predicates and string-word shapes."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings

from crystalcheck import (
    LabelingError,
    Labeling,
    PreconditionError,
    PredicateReport,
    check_corollary2,
    check_corollary3,
    check_local,
    check_string_words,
    decompose_strings,
    infer_labelings,
)

from helpers import (
    chain4,
    corollary2_gap_graph,
    corollary3_gap_graph,
    corollary3_holds_graph,
    graph,
    graphs_with_labelings,
    labeling,
    path5,
    single_vertex,
)


def unique_labeling(g) -> Labeling:
    labs = infer_labelings(g)
    assert len(labs) == 1
    return labs[0]


class TestCorollary2:
    def test_chain4_holds_with_witness(self):
        g = chain4()
        report = check_corollary2(g, unique_labeling(g))
        assert report.status == "holds"
        assert report.witnesses == (("u", "v"),)
        assert report.ok

    def test_path5_vacuous(self):
        g = path5()
        report = check_corollary2(g, unique_labeling(g))
        assert report.status == "vacuous"
        assert report.witnesses == ()

    def test_single_vertex_vacuous(self):
        g = single_vertex()
        assert check_corollary2(g, labeling(g, ["c"])).status == "vacuous"

    def test_gap_graph_fails(self):
        # A locally valid labeling on which the predicate fails: the local
        # axioms alone do not imply it.
        g = corollary2_gap_graph()
        lab = unique_labeling(g)
        assert lab.vector(g) == ("c", "0", "0", "1", "c")
        report = check_corollary2(g, lab)
        assert report.status == "fails"
        assert report.witnesses == (("u", "v"),)
        assert not report.ok

    def test_rejects_locally_invalid_labeling(self):
        g = chain4()
        with pytest.raises(PreconditionError):
            check_corollary2(g, labeling(g, ["c", "c", "c", "c"]))


class TestCorollary3:
    def test_chain4_vacuous(self):
        g = chain4()
        assert check_corollary3(g, unique_labeling(g)).status == "vacuous"

    def test_path5_vacuous(self):
        g = path5()
        assert check_corollary3(g, unique_labeling(g)).status == "vacuous"

    def test_holds_graph(self):
        g = corollary3_holds_graph()
        lab = unique_labeling(g)
        assert lab.vector(g) == ("c", "0", "1", "0", "c", "c")
        report = check_corollary3(g, lab)
        assert report.status == "holds"
        assert report.witnesses == (("u", "v", "w"),)

    def test_gap_graph_fails(self):
        g = corollary3_gap_graph()
        lab = unique_labeling(g)
        assert lab.vector(g) == ("c", "0", "1", "0", "0", "c", "c")
        report = check_corollary3(g, lab)
        assert report.status == "fails"
        assert report.witnesses == (("u", "v", "w"),)

    @given(graphs_with_labelings(max_vertices=6))
    @settings(max_examples=100)
    def test_total_on_locally_valid_labelings(self, pair):
        g, lab = pair
        if check_local(g, lab):
            return
        for report in (check_corollary2(g, lab), check_corollary3(g, lab)):
            assert report.status in ("holds", "fails", "vacuous")
            if report.status == "vacuous":
                assert report.witnesses == ()


class TestFrozenWitnesses:
    def test_witnesses_cannot_change_in_place(self):
        g = chain4()
        corollary = check_corollary2(g, unique_labeling(g))
        words = check_string_words(decompose_strings(g, 1), unique_labeling(g))
        assert type(corollary.witnesses[0]) is tuple
        with pytest.raises(TypeError):
            words.witnesses[0]["string"] = ["x"]
        with pytest.raises(AttributeError):
            words.witnesses[0]["string"].append("x")

    def test_given_witnesses_are_copied(self):
        witness = {"color": 2, "string": ["a", "b"]}
        report = PredicateReport("string-words", "fails", [["u", "v"], witness])
        witness["string"].append("c")
        assert report.witnesses == (("u", "v"), {"color": 2, "string": ("a", "b")})
        assert report.as_jsonable()["witnesses"] == [["u", "v"], {"color": 2, "string": ["a", "b"]}]

    def test_report_pickles_and_deep_copies(self):
        g = chain4()
        report = check_string_words(decompose_strings(g, 2), unique_labeling(g))
        for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert twin == report
            assert twin.as_jsonable() == report.as_jsonable()


class TestStringWords:
    def test_color1_words(self):
        g = graph(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1)])
        decomp = decompose_strings(g, 1)
        assert check_string_words(decomp, labeling(g, ["0", "c", "1"])).status == "holds"
        assert check_string_words(decomp, labeling(g, ["0", "0", "1"])).status == "holds"
        report = check_string_words(decomp, labeling(g, ["c", "c", "1"]))
        assert report.status == "fails"
        assert report.witnesses == ({"color": 1, "string": ("a", "b", "c")},)

    def test_color2_words(self):
        g = graph(["a", "b", "c"], [("a", "b", 2), ("b", "c", 2)])
        decomp = decompose_strings(g, 2)
        assert check_string_words(decomp, labeling(g, ["1", "c", "0"])).status == "holds"
        assert check_string_words(decomp, labeling(g, ["1", "1", "c"])).status == "holds"
        assert check_string_words(decomp, labeling(g, ["1", "0", "0"])).status == "fails"

    def test_requires_covering_labeling(self):
        g = path5()
        with pytest.raises(LabelingError):
            check_string_words(decompose_strings(g, 1), Labeling(labels={"v1": "c"}))

    @given(graphs_with_labelings(max_vertices=6))
    @settings(max_examples=150)
    def test_agrees_with_check_local_string_by_string(self, pair):
        # A string's word is admissible exactly when no local violation is
        # attributable to that string: edge-pair clauses on its consecutive
        # pairs plus endpoint clauses at its vertices, for its color.
        g, lab = pair
        report = check_local(g, lab)
        for color in (1, 2):
            decomp = decompose_strings(g, color)
            words = check_string_words(decomp, lab)
            failing = {tuple(w["string"]) for w in words.witnesses} \
                if words.status == "fails" else set()
            edge_clause = "B1(i)" if color == 1 else "B2(i)"
            vertex_clause = "B1(ii)" if color == 1 else "B2(ii)"
            for string in decomp.strings:
                members = set(string)
                pairs = set(zip(string, string[1:]))
                attributable = [
                    v for v in report
                    if (v.clause == edge_clause and isinstance(v.at, tuple)
                        and (v.at[0], v.at[1]) in pairs)
                    or (v.clause == vertex_clause and v.at in members)
                ]
                assert (string in failing) == bool(attributable), (
                    f"string {string} color {color}: word/check_local mismatch"
                )
