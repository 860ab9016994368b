"""tools/equivalence.py's comparison, on small made-up sides and output directories: no command or matrix runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"
spec = importlib.util.spec_from_file_location("equivalence", TOOL)
equivalence = importlib.util.module_from_spec(spec)
spec.loader.exec_module(equivalence)

PROMPTS = equivalence.KINDS["prompt"]
ROUNDS = equivalence.KINDS["rounds"]
S2 = equivalence.ANSWERS
STATUSES = equivalence.STATUSES
TRIALS = "trial records equal except wall_time"
RECORDS = "memory records equal except timestamp"


def keyed(key: str, items: list) -> list:
    """Each item as the log's streams hold it, [key, item], all under one key."""
    return [[key, item] for item in items]


def side(**changes) -> dict:
    """One side's comparisons as run_matrix returns them, each small; changes replaces some."""
    sides = {
        "dataset files byte-identical": [("data/manifest.jsonl", b"{}\n")],
        TRIALS: [["bench S2 er_0000 1", {"status": "sat"}], ["bench S2 er_0000 2", {"status": "sat"}]],
        RECORDS: [["S2.memory.jsonl", {"k": 3, "n": 8, "solver": "S2"}]],
        PROMPTS: keyed("solve", ["0" * 64, "1" * 64]),
        ROUNDS: [["solve", [{"kind": "ok", "score": 1.0}]], ["again", []]],
        S2: [["gen data 0", "3 unsat 12 -"], ["gen data 0", "4 sat 9 131fffc532ba"],
             ["S2 g60-k9.col", "9 sat 22418 1586ee479662"]],
    }
    return {**sides, **changes}


def mismatch(name: str, equal: int, old: int, new: int, changed: int = 0, only_old: int = 0, only_new: int = 0) -> str:
    """The summary line compare prints for a stream that differs."""
    return (f"  {name}: {equal}/{old}  MISMATCH (the tree has {new}; {changed} changed, {only_old} only at REV, "
            f"{only_new} only in the tree)\n")


def test_identical_sides_pass(capsys):
    assert equivalence.compare(side(), side(), "REV")
    out = capsys.readouterr().out
    assert f"  {S2}: 3/3\n" in out and f"  {STATUSES}: 3/3\n" in out
    assert "MISMATCH" not in out


def test_s2_lines_differing_in_nodes_and_digests_keep_their_statuses(capsys):
    tree = side(**{S2: [["gen data 0", "3 unsat 0 -"], ["gen data 0", "4 sat 7 e694ed50f3d0"],
                        ["S2 g60-k9.col", "9 sat 22418 1586ee479662"]]})
    assert not equivalence.compare(side(), tree, "REV")
    out = capsys.readouterr().out
    assert mismatch(S2, 1, 3, 3, changed=2) in out
    assert f"  {STATUSES}: 3/3\n" in out


@pytest.mark.parametrize("first, shown", [
    ("3 sat 12 131fffc532ba", "['gen data 0', '3 unsat'] at REV, ['gen data 0', '3 sat'] in the tree"),
    ("4 unsat 12 -", "['gen data 0', '3 unsat'] at REV, ['gen data 0', '4 unsat'] in the tree"),
], ids=["status", "k"])
def test_a_changed_status_or_k_fails_the_statuses(capsys, first, shown):
    lines = [["gen data 0", first], *side()[S2][1:]]
    assert not equivalence.compare(side(), side(**{S2: lines}), "REV")
    out = capsys.readouterr().out
    assert mismatch(STATUSES, 2, 3, 3, changed=1) + f"    changed, REV[0:1] tree[0:1]: {shown}\n" in out


def test_one_differing_s2_line_fails_and_prints_its_index_and_both_lines(capsys):
    tree = side(**{S2: [["gen data 0", "3 unsat 12 -"], ["gen data 0", "4 sat 11 131fffc532ba"],
                        ["S2 g60-k9.col", "9 sat 22418 1586ee479662"]]})
    assert not equivalence.compare(side(), tree, "REV")
    out = capsys.readouterr().out
    assert mismatch(S2, 2, 3, 3, changed=1) in out
    shown = "['gen data 0', '4 sat 9 131fffc532ba'] at REV, ['gen data 0', '4 sat 11 131fffc532ba'] in the tree"
    assert f"    changed, REV[1:2] tree[1:2]: {shown}\n" in out


def test_an_s2_line_differing_only_in_its_coloring_digest_fails(capsys):
    tree = side(**{S2: [*side()[S2][:2], ["S2 g60-k9.col", "9 sat 22418 a297c9c75cef"]]})
    assert not equivalence.compare(side(), tree, "REV")
    assert mismatch(S2, 2, 3, 3, changed=1) in capsys.readouterr().out


def test_an_equal_line_under_another_key_fails(capsys):
    # the same answer, made by another call: without keys the two sides would read equal
    tree = side(**{S2: [*side()[S2][:2], ["S2 g60-k10.col", "9 sat 22418 1586ee479662"]]})
    assert not equivalence.compare(side(), tree, "REV")
    assert mismatch(S2, 2, 3, 3, changed=1) in capsys.readouterr().out


@pytest.mark.parametrize("trials", [1, 3])
def test_differing_trial_record_counts_fail(capsys, trials):
    tree = [[f"bench S2 er_0000 {trial}", {"status": "sat"}] for trial in range(1, trials + 1)]
    assert not equivalence.compare(side(), side(**{TRIALS: tree}), "REV")
    shown = mismatch(TRIALS, min(trials, 2), 2, trials, only_old=max(2 - trials, 0), only_new=max(trials - 2, 0))
    assert shown in capsys.readouterr().out


def written(out: Path, trials: list[dict]) -> Path:
    """out as the matrix leaves it: an empty log, no dataset file, trials as S1.trials.jsonl and one memory line."""
    out.mkdir()
    (out / "log.jsonl").write_text("", encoding="utf-8")
    (out / "S1.trials.jsonl").write_text("".join(json.dumps(row) + "\n" for row in trials), encoding="utf-8")
    (out / "S1.memory.jsonl").write_text('{"k": 3, "timestamp": 1.0}\n', encoding="utf-8")
    return out


def test_a_changed_trial_record_prints_its_trial_key(capsys, tmp_path):
    trials = [{"solver": "S1", "instance_id": "er_0000", "trial": trial, "status": "sat", "wall_time": 0.5}
              for trial in (1, 2)]
    rev = equivalence.outputs(written(tmp_path / "rev", trials))
    tree = equivalence.outputs(written(tmp_path / "tree", [{**trials[0], "wall_time": 0.7},
                                                           {**trials[1], "status": "failure"}]))
    assert rev[RECORDS] == [["S1.memory.jsonl", {"k": 3}]]  # memory records keep their file's name
    assert not equivalence.compare(rev, tree, "REV")
    out = capsys.readouterr().out
    shown = "['bench S1 er_0000 2', {'status': 'sat'}] at REV, ['bench S1 er_0000 2', {'status': 'failure'}] in the tree"
    assert mismatch(TRIALS, 1, 2, 2, changed=1) + f"    changed, REV[1:2] tree[1:2]: {shown}\n" in out


def test_a_differing_record_prints_only_the_keys_that_differ(capsys):
    tree = side(**{RECORDS: [["S2.memory.jsonl", {"k": 3, "n": 8, "solver": "SOFAI-v2"}]]})
    assert not equivalence.compare(side(), tree, "REV")
    out = capsys.readouterr().out
    shown = "['S2.memory.jsonl', {'solver': 'S2'}] at REV, ['S2.memory.jsonl', {'solver': 'SOFAI-v2'}] in the tree"
    assert f"    changed, REV[0:1] tree[0:1]: {shown}\n" in out


@pytest.mark.parametrize("stream, tree, shown", [
    (ROUNDS, [["solve", [{"kind": "ok", "score": 1.0, "nodes": 0}]], ["again", []]],
     "['solve', [{}]] at REV, ['solve', [{'nodes': 0}]] in the tree"),
    (RECORDS, [["S2.memory.jsonl", {"k": 3, "n": 8, "solver": "S2", "source": "s1"}]],
     "['S2.memory.jsonl', {}] at REV, ['S2.memory.jsonl', {'source': 's1'}] in the tree"),
], ids=["rounds", "records"])
def test_a_key_only_one_side_writes_fails_and_is_named(capsys, stream, tree, shown):
    assert not equivalence.compare(side(), side(**{stream: tree}), "REV")
    out = capsys.readouterr().out
    assert mismatch(stream, len(tree) - 1, len(tree), len(tree), changed=1) in out
    assert f"    changed, REV[0:1] tree[0:1]: {shown}\n" in out


def test_items_equal_in_python_but_not_in_type_fail(capsys):
    tree = side(**{RECORDS: [["S2.memory.jsonl", {"k": 3.0, "n": 8, "solver": "S2"}]]})
    assert tree[RECORDS] == side()[RECORDS]
    assert not equivalence.compare(side(), tree, "REV")
    shown = "['S2.memory.jsonl', {'k': 3}] at REV, ['S2.memory.jsonl', {'k': 3.0}] in the tree\n"
    assert shown in capsys.readouterr().out


def test_differing_file_bytes_fail(capsys):
    tree = side(**{"dataset files byte-identical": [("data/manifest.jsonl", b"{} \n")]})
    assert not equivalence.compare(side(), tree, "REV")
    assert mismatch("dataset files byte-identical", 0, 1, 1, changed=1) in capsys.readouterr().out


DIGESTS = [[f"bench S2 er_{i:04d} 1", f"{i:064x}"] for i in range(6)]


def test_an_item_dropped_mid_way_is_only_at_rev_and_shifts_nothing_after_it(capsys):
    tree = side(**{PROMPTS: DIGESTS[:2] + DIGESTS[3:]})
    assert not equivalence.compare(side(**{PROMPTS: DIGESTS}), tree, "REV")
    out = capsys.readouterr().out
    shown = f"    only at REV, REV[2:3] tree[2:2]: ['bench S2 er_0002 1', '{2:064x}'] at REV, [] in the tree\n"
    assert mismatch(PROMPTS, 5, 6, 5, only_old=1) + shown in out
    assert "    changed, " not in out


def test_an_added_item_is_only_in_the_tree(capsys):
    s2 = side()[S2]
    tree = side(**{S2: [*s2[:2], ["gen data 1", "5 sat 3 a297c9c75cef"], s2[2]]})
    assert not equivalence.compare(side(), tree, "REV")
    out = capsys.readouterr().out
    shown = "    only in the tree, REV[2:2] tree[2:3]: [] at REV, ['gen data 1', '5 sat 3 a297c9c75cef'] in the tree\n"
    assert mismatch(S2, 3, 3, 4, only_new=1) + shown in out
    assert mismatch(STATUSES, 3, 3, 4, only_new=1) in out


def test_a_long_stream_aligns_its_repeated_items_too(capsys):
    # Over 200 items, one digest 4 times under one key: difflib's default junk rule would never start a match
    # on that item, so the repeats after the dropped item would align with nothing and read as changed.
    digests = keyed("solve", [f"{i:064x}" for i in range(201)] + ["f" * 64] * 4)
    assert not equivalence.compare(side(**{PROMPTS: digests}), side(**{PROMPTS: digests[:200] + digests[201:]}), "REV")
    out = capsys.readouterr().out
    assert mismatch(PROMPTS, 204, 205, 204, only_old=1) in out
    assert "    changed, " not in out


def test_runs_past_shown_are_counted_not_printed(capsys):
    digests = keyed("solve", [f"{i:064x}" for i in range(2 * equivalence.SHOWN + 4)])
    tree = [item if i % 2 else ["solve", "f" * 64] for i, item in enumerate(digests)]
    assert not equivalence.compare(side(**{PROMPTS: digests}), side(**{PROMPTS: tree}), "REV")
    out = capsys.readouterr().out
    assert out.count("    changed, REV[") == equivalence.SHOWN
    assert "    ... and 2 more runs\n" in out


def test_a_differing_run_of_long_items_prints_every_items_key(capsys):
    keys = [f"bench S1 er_n12_p0.5_{i:04d} 2" for i in range(3)]
    long = [{"kind": "not_solvable", "score": 0.0, "feedback": ["Error: " + "x" * 80], "signature": "s" * 40}]
    rev = [[key, long] for key in keys]
    assert not equivalence.compare(side(**{ROUNDS: rev}), side(**{ROUNDS: [[key, []] for key in keys]}), "REV")
    line = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("    changed, "))
    at_rev = line.split(" at REV, ")[0]
    assert all(f"['{key}', [{{'kind': 'not_solvable'" in at_rev for key in keys)
    assert at_rev.count("...") == 3  # each item cut on its own


def test_one_changed_call_among_calls_of_no_rounds_is_one_changed_item_under_its_key(capsys):
    # Memory answers and S2-only calls all log [] rounds.  One call ran a round at REV and none in the tree.
    keys = [f"bench SOFAI-v2 er_{i:04d} 2" for i in range(8)]
    rev = [[key, []] for key in keys]
    rev[2][1] = [{"kind": "assignment", "score": 0.92}]
    tree = [[key, []] for key in keys]
    assert not equivalence.compare(side(**{ROUNDS: rev}), side(**{ROUNDS: tree}), "REV")
    out = capsys.readouterr().out
    shown = f"    changed, REV[2:3] tree[2:3]: ['{keys[2]}', [{{'kind': 'assignment', 'score': 0.92}}]] at REV, "
    assert mismatch(ROUNDS, 7, 8, 8, changed=1) + shown + f"['{keys[2]}', []] in the tree\n" in out
    assert out.count("    changed, ") == 1 and "    only " not in out
