"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy shared work
(the universe of canonical, weakly-connected, acyclic, degree-valid graphs
on at most five vertices, and their exhaustively-computed valid labelings)
is done once per session.
"""

from __future__ import annotations

import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from crystalcheck import (
    CycleCertificate,
    GraphStream,
    Potential,
    check_local,
    check_proposition,
    check_string_words,
    decompose_strings,
    enumerate_graphs,
    find_potential,
    infer_labelings,
    labels_from_marking,
    marking_from_labels,
)

from helpers import (
    bare_1_edge,
    brute_valid_markings,
    chain4,
    infer_labelings_exhaustive,
    kahn_is_acyclic,
    path5,
    random_b0_dag,
    random_graph_with_cycle,
    single_vertex,
)

DOCUMENTS = Path(__file__).parent / "documents"

WORD_1 = re.compile(r"0*c1*|0+1+")
WORD_2 = re.compile(r"1*c0*")


def announce(criterion: int, name: str) -> None:
    print(f"[acceptance] criterion {criterion} ({name}): PASS")


@pytest.fixture(scope="session")
def universe5():
    return list(enumerate_graphs(GraphStream(max_vertices=5)))


@pytest.fixture(scope="session")
def valid_labelings5(universe5):
    return [infer_labelings_exhaustive(g) for g in universe5]


def test_criterion_1_proposition_equivalence(universe5):
    checked = 0
    for g in universe5:
        result = check_proposition(g)
        assert result.holds, (
            f"correspondence failed on {[tuple(e) for e in g.edges]}: {result.detail}"
        )
        assert result.n_valid_markings == result.n_valid_labelings
        checked += 1
    assert checked == 594  # 1 + 3 + 13 + 74 + 503 canonical graphs
    announce(1, f"proposition equivalence on {checked} graphs")


def test_criterion_2_dual_path_inference(universe5, valid_labelings5):
    for g, expected in zip(universe5, valid_labelings5):
        fast = [lab.vector(g) for lab in infer_labelings(g)]
        slow = [lab.vector(g) for lab in expected]
        assert fast == slow

    rng = random.Random(20260808)
    for _ in range(1000):
        g = random_b0_dag(rng, rng.randint(6, 8))
        fast = [lab.vector(g) for lab in infer_labelings(g)]
        slow = [lab.vector(g) for lab in infer_labelings_exhaustive(g)]
        assert fast == slow
    announce(2, "propagation equals exhaustive search")


def test_criterion_3_fixtures():
    g = single_vertex()
    assert [lab.vector(g) for lab in infer_labelings(g)] == [("c",)]

    g = path5()
    assert [lab.vector(g) for lab in infer_labelings(g)] == [("c", "1", "c", "0", "c")]

    g = chain4()
    labs = infer_labelings(g)
    assert [lab.vector(g) for lab in labs] == [("c", "0", "1", "c")]
    from crystalcheck import check_corollary2
    assert check_corollary2(g, labs[0]).status == "holds"

    assert infer_labelings(bare_1_edge()) == []
    announce(3, "named fixtures")


def test_criterion_4_string_words(universe5, valid_labelings5):
    words_checked = 0
    for g, labelings in zip(universe5, valid_labelings5):
        decomp1 = decompose_strings(g, 1)
        decomp2 = decompose_strings(g, 2)
        for lab in labelings:
            for string in decomp1.strings:
                word = "".join(lab.labels[v] for v in string)
                assert WORD_1.fullmatch(word), f"bad 1-string word {word!r}"
                words_checked += 1
            for string in decomp2.strings:
                word = "".join(lab.labels[v] for v in string)
                assert WORD_2.fullmatch(word), f"bad 2-string word {word!r}"
                words_checked += 1
            # agreement with the local checker, string by string
            assert check_string_words(decomp1, lab).status == "holds"
            assert check_string_words(decomp2, lab).status == "holds"
            assert check_local(g, lab).ok
    assert words_checked > 0
    announce(4, f"string-word shape on {words_checked} words")


def test_criterion_5_potential_duality(universe5):
    for g in universe5:
        result = find_potential(g)
        assert isinstance(result, Potential)
        assert kahn_is_acyclic(g)
        for e in g.edges:
            assert result.values[e.tail] < result.values[e.head]

    rng = random.Random(477001)
    for _ in range(1000):
        g = random_graph_with_cycle(rng, rng.randint(2, 8))
        assert not kahn_is_acyclic(g)
        result = find_potential(g)
        assert isinstance(result, CycleCertificate)
        cycle = result.vertices
        assert cycle[0] == cycle[-1] and len(cycle) >= 3
        for a, b in zip(cycle, cycle[1:]):
            assert g.has_edge(a, b, 1) or g.has_edge(a, b, 2)
    announce(5, "potential/cycle-certificate duality")


EXPECTED_EXIT_CODES = {
    "valid_labels_path5.json": 0,
    "valid_centers_path5.json": 0,
    "valid_chain4_labels.json": 0,
    "single_vertex.json": 0,
    "malformed.json": 2,
    "unknown_color.json": 2,
    "dangling_endpoint.json": 2,
    "duplicate_edge.json": 2,
    "self_loop.json": 2,
    "empty_vertices.json": 2,
    "unknown_key.json": 2,
    "duplicate_vertex.json": 2,
    "bad_label_value.json": 2,
    "partial_labels.json": 2,
    "bad_centers_edge.json": 2,
    "degree_violation.json": 1,
    "cyclic.json": 1,
    "disconnected_pair.json": 1,
    "local_cc_edge.json": 1,
    "global_missing_centers.json": 1,
    "bare_1_edge.json": 1,
    "corollary2_gap.json": 1,
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "crystalcheck", *args], capture_output=True,
    )


def test_criterion_6_determinism_and_exit_codes():
    names = sorted(EXPECTED_EXIT_CODES)
    assert len(names) >= 12
    assert {p.name for p in DOCUMENTS.glob("*.json")} == set(names)
    for name in names:
        first = run_cli("validate", str(DOCUMENTS / name))
        second = run_cli("validate", str(DOCUMENTS / name))
        assert first.returncode == EXPECTED_EXIT_CODES[name], (
            f"{name}: expected exit {EXPECTED_EXIT_CODES[name]}, got {first.returncode} "
            f"(stderr: {first.stderr.decode()!r})"
        )
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr

    census_first = run_cli("census", "--max-vertices", "3")
    census_second = run_cli("census", "--max-vertices", "3")
    assert census_first.returncode == census_second.returncode == 0
    assert census_first.stdout == census_second.stdout
    announce(6, f"byte-identical output and exit codes on {len(names)} documents")


def test_criterion_7_round_trips(universe5, valid_labelings5):
    markings_seen = 0
    for g, labelings in zip(universe5, valid_labelings5):
        for marking in brute_valid_markings(g):
            markings_seen += 1
            lab = labels_from_marking(g, marking)
            assert marking_from_labels(g, lab) == marking
        for lab in labelings:
            marking = marking_from_labels(g, lab)
            assert labels_from_marking(g, marking).vector(g) == lab.vector(g)
    assert markings_seen == sum(len(labs) for labs in valid_labelings5)
    announce(7, f"round trips over {markings_seen} valid markings")
