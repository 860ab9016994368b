"""tools/equivalence.py's comparison, on small made-up sides: no command or matrix runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"
spec = importlib.util.spec_from_file_location("equivalence", TOOL)
equivalence = importlib.util.module_from_spec(spec)
spec.loader.exec_module(equivalence)

S2 = equivalence.STREAMS["s2.txt"]
STATUSES = equivalence.STATUSES
BUILT = equivalence.STREAMS["built.txt"]


def side(**changes) -> dict:
    """One side's comparisons as run_matrix returns them, each small; changes replaces some."""
    sides = {
        "dataset files byte-identical": [("data/manifest.jsonl", b"{}\n")],
        equivalence.RECORDS: [{"k": 3, "n": 8, "solver": "S2"}],
        equivalence.PROMPTS["bench"]: ["0" * 64, "1" * 64],
        equivalence.ROUNDS: [[{"kind": "ok", "score": 1.0}], []],
        S2: ["3 unsat 12 -", "4 sat 9 131fffc532ba", "9 sat 22418 1586ee479662"],
        BUILT: ["S2 8 13 3", "S2 8 13 3"],
        equivalence.STREAMS["refused.txt"]: [],
    }
    return {**sides, **changes}


def test_identical_sides_pass(capsys):
    assert equivalence.compare(side(), side(), "REV")
    out = capsys.readouterr().out
    assert f"  {S2}: 3/3\n" in out and f"  {STATUSES}: 3/3\n" in out
    assert "MISMATCH" not in out


def test_s2_lines_differing_in_nodes_and_digests_keep_their_statuses(capsys):
    tree = side(**{S2: ["3 unsat 0 -", "4 sat 7 e694ed50f3d0", "9 sat 22418 1586ee479662"]})
    assert not equivalence.compare(side(), tree, "REV")
    out = capsys.readouterr().out
    assert f"  {S2}: 1/3  MISMATCH (the tree has 3)\n" in out
    assert f"  {STATUSES}: 3/3\n" in out


@pytest.mark.parametrize("first, shown", [
    ("3 sat 12 131fffc532ba", "'3 unsat' at REV, '3 sat' in the tree"),
    ("4 unsat 12 -", "'3 unsat' at REV, '4 unsat' in the tree"),
], ids=["status", "k"])
def test_a_changed_status_or_k_fails_the_statuses(capsys, first, shown):
    lines = [first, *side()[S2][1:]]
    assert not equivalence.compare(side(), side(**{S2: lines}), "REV")
    out = capsys.readouterr().out
    assert f"  {STATUSES}: 2/3  MISMATCH (the tree has 3)\n    0: {shown}\n" in out


def test_one_differing_s2_line_fails_and_prints_its_index_and_both_lines(capsys):
    tree = side(**{S2: ["3 unsat 12 -", "4 sat 11 131fffc532ba", "9 sat 22418 1586ee479662"]})
    assert not equivalence.compare(side(), tree, "REV")
    out = capsys.readouterr().out
    assert f"  {S2}: 2/3  MISMATCH (the tree has 3)\n" in out
    assert "    1: '4 sat 9 131fffc532ba' at REV, '4 sat 11 131fffc532ba' in the tree\n" in out


def test_an_s2_line_differing_only_in_its_coloring_digest_fails(capsys):
    tree = side(**{S2: ["3 unsat 12 -", "4 sat 9 131fffc532ba", "9 sat 22418 a297c9c75cef"]})
    assert not equivalence.compare(side(), tree, "REV")
    assert f"  {S2}: 2/3  MISMATCH (the tree has 3)\n" in capsys.readouterr().out


def test_a_key_only_one_sides_s1_rounds_have_is_listed_and_fails_nothing(capsys):
    tree = side(**{equivalence.ROUNDS: [[{"kind": "ok", "score": 1.0, "nodes": 0}], []]})
    assert equivalence.compare(side(), tree, "REV")
    out = capsys.readouterr().out
    assert "  S1 round keys compared: kind, score\n    only REV writes: -\n    only the tree writes: nodes\n" in out


@pytest.mark.parametrize("built", [["S2 8 13 3"], ["S2 8 13 3", "S2 8 13 3", "S2 8 13 3"]])
def test_differing_records_built_counts_fail(capsys, built):
    assert not equivalence.compare(side(), side(**{BUILT: built}), "REV")
    assert f"  {BUILT}: {min(len(built), 2)}/2  MISMATCH (the tree has {len(built)})\n" in capsys.readouterr().out


def test_a_differing_record_prints_only_the_keys_that_differ(capsys):
    tree = side(**{equivalence.RECORDS: [{"k": 3, "n": 8, "solver": "SOFAI-v2"}]})
    assert not equivalence.compare(side(), tree, "REV")
    assert "    0: {'solver': 'S2'} at REV, {'solver': 'SOFAI-v2'} in the tree\n" in capsys.readouterr().out
