import dataclasses
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import myciel
from oracles import k_core, label_view
from strategies import er_graphs
from sofai_gc import (
    Graph,
    EpisodicRecord,
    GenSpec,
    RunConfig,
    build_dataset,
    chromatic_number,
    MemoryRejected,
    MemoryStore,
    OrchestratorConfig,
    PromptExample,
    IterationRecord,
    ProposerConfig,
    escalation_rule,
    format_feedback,
    gen_erdos_renyi,
    generate_example,
    parse_dimacs,
    render_prompt,
    solve_decision,
    solve_mc_s1_iN,
    solve_sofai_v2,
    serialize_dimacs,
    verdict,
    write_dataset,
)
from sofai_gc import bench, dsatur, metacognition, proposer
from sofai_gc.metacognition import (
    CONFLICT_TEMPLATE,
    MAX_ROUNDS,
    NOT_SOLVABLE_REJECTED_MESSAGE,
    OVER_COLOR_TEMPLATE,
    PRESETS,
)
from sofai_gc.proposer import ProposerResponse

PERFECT = ProposerConfig(kind="mock")
ALWAYS_UNSAT = ProposerConfig(kind="mock", unsat_rate=1.0)


def cfg_with(proposer=PERFECT, **kwargs):
    kwargs.setdefault("time_limit", 30.0)
    return OrchestratorConfig(proposer=proposer, **kwargs)


def recording_renders(renders):
    """A render_prompt that appends (graph, k, examples, history, prompt) to renders; the prompt holds copies."""
    render = metacognition.render_prompt

    def recording(graph, k, examples, history):
        prompt = render(graph, k, examples, history)
        renders.append((prompt.graph, prompt.k, prompt.examples, prompt.history, prompt))
        return prompt

    return recording


def test_only_a_search_builds_the_neighbour_masks():
    # Graph.neighbour_masks is built on first read and then kept with the
    # graph, so S1 rounds, memory and answers found by peeling must not read it.
    graph = gen_erdos_renyi(20, 0.4, 3)
    k = 8  # above the degeneracy, so S2 answers by peeling
    assert solve_decision(graph, k).is_sat
    verdict(graph, {graph.vertices[0]: 1}, k)
    generate_example(graph)
    proposer.MockProposer(ProposerConfig(noise=0.5, seed=1)).propose(render_prompt(graph, k))
    store = MemoryStore()
    noisy = ProposerConfig(noise=1.0, seed=2)
    twin = Graph(graph.vertices, graph.edges[::-1])  # another graph, shown graph's record
    for query in (graph, twin):
        outcome, trace = metacognition.run_preset("SOFAI-v2", query, k, cfg_with(noisy, store=store))
        assert outcome.is_sat and trace.s1_calls > 1
    outcome, trace = metacognition.run_preset("SOFAI-v2", graph, k, cfg_with(noisy, store=store))
    assert outcome.is_sat and trace.source == "memory"  # the repeat trial is answered by the stored record
    assert "neighbour_masks" not in vars(graph) and "neighbour_masks" not in vars(twin)
    chi = chromatic_number(graph)
    assert solve_decision(graph, chi - 1).is_unsat and "neighbour_masks" in vars(graph)


def test_a_mock_benchmark_renders_no_prompt_text(tmp_path, monkeypatch):
    # The mock reads a prompt's graph, k and feedback_rounds, so no text, failed coloring,
    # worked example or edge list is rendered in a whole run.
    write_dataset(build_dataset(GenSpec(n=30, p=0.5, count=4, seed=7, mix=(50, 50)), 30), tmp_path)
    loaded, renders, formatted, built = [], [], [], []
    load, fmt, example = bench.load_dataset, proposer.format_assignment, metacognition.generate_example
    monkeypatch.setattr(bench, "load_dataset", lambda path: loaded.extend(load(path)) or loaded)
    monkeypatch.setattr(metacognition, "render_prompt", recording_renders(renders))
    monkeypatch.setattr(proposer, "format_assignment", lambda *a: formatted.append(a) or fmt(*a))
    monkeypatch.setattr(metacognition, "generate_example", lambda g: built.append(g) or example(g))
    noisy = ProposerConfig(kind="mock", noise=0.5, noise_decay=0.8)
    results = bench.run_benchmark(RunConfig("SOFAI-v2", str(tmp_path), trials=2, workers=1, proposer=noisy, seed=3))
    assert len(results) == 8 and all(r.error is None for r in results)
    assert any(len(examples) == 1 and history for _, _, examples, history, _ in renders)  # a later round
    assert all("text" not in vars(prompt) for *_, prompt in renders)
    assert formatted == [] and built == []
    assert len(loaded) == 4 and all("edge_text" not in vars(rec.graph) for rec in loaded)


def test_no_prompt_of_a_memory_run_shows_its_own_instance(tmp_path, monkeypatch):
    # Every prompt's text is read, as a remote proposer reads it.  Each SAT instance is stored after its
    # first trial, so its later trials would see its own record if anything showed it to them.
    write_dataset(build_dataset(GenSpec(n=12, p=0.5, count=6, seed=4, mix=(50, 50)), 30), tmp_path / "data")
    reads = []
    monkeypatch.setattr(metacognition, "make_proposer", lambda config: _ReadsText(config, reads))
    noisy = ProposerConfig(kind="mock", noise=0.5, noise_decay=0.8)
    memory = tmp_path / "memory.jsonl"
    results = bench.run_benchmark(RunConfig("SOFAI-v2", str(tmp_path / "data"), trials=3, workers=1,
                                            proposer=noisy, seed=3, memory_path=str(memory)))
    assert len(results) == 18 and all(r.correct for r in results)
    stored = MemoryStore(memory).records()
    assert len(stored) == 3
    assert any(record.example.text in prompt.text for prompt in reads for record in stored)
    for prompt in reads:
        for record in stored:
            if record.graph == prompt.graph:
                assert record.example.text not in prompt.text


@pytest.mark.parametrize("solver", [solver for solver, preset in PRESETS.items() if preset.memory])
def test_a_held_instance_is_answered_from_memory(petersen, monkeypatch, solver):
    # colours 1 and 3 of S2's coloring swapped: a proper coloring that neither S1 nor S2 gives
    stored = {v: 4 - c for v, c in solve_decision(petersen, 3).assignment.items()}
    record = EpisodicRecord.make(petersen, 3, stored, "S2")
    store = MemoryStore()
    store.append(record)
    checked = []
    real = metacognition.verdict
    monkeypatch.setattr(metacognition, "verdict", lambda *a: checked.append(a) or real(*a))
    for name in ("make_proposer", "retrieve_memory", "solve_decision"):
        monkeypatch.setattr(metacognition, name, lambda *a, **kw: pytest.fail("the trial went past memory"))
    query = parse_dimacs(serialize_dimacs(petersen))  # an equal graph, not the stored object
    outcome, trace = bench.solve(solver, query, 3, cfg_with(store=store))
    assert outcome.is_sat and outcome.assignment == stored and outcome.assignment is not record.solution
    assert (trace.source, trace.s2_invoked, trace.s1_calls) == ("memory", False, 0)
    assert checked == [(query, record.solution, 3)]
    assert store.records() == (record,)
    outcome.assignment.clear()  # the answer is the caller's copy
    assert record.solution == stored


@pytest.mark.parametrize("proposer, source", [(PERFECT, "S1"), (ALWAYS_UNSAT, "S2")], ids=["S1", "S2"])
def test_a_held_instance_whose_stored_coloring_fails_is_solved_and_not_stored_again(triangle, proposer, source):
    # the stored coloring changed after it was stored: verdict rejects it, so S1 or S2 answers, and the
    # store, which holds the instance, is left as it was rather than sent a duplicate it would refuse
    record = EpisodicRecord.make(triangle, 3, {"A": 1, "B": 2, "C": 3}, "S2")
    store = MemoryStore()
    store.append(record)
    record.solution["C"] = 1
    outcome, trace = solve_sofai_v2(triangle, 3, cfg_with(proposer, store=store))
    assert outcome.is_sat and trace.source == source
    assert verdict(triangle, outcome.assignment, 3).valid
    assert store.records() == (record,)


def test_a_held_instance_past_its_deadline_is_a_timeout(triangle, monkeypatch):
    store = MemoryStore()
    store.append(EpisodicRecord.make(triangle, 3, {"A": 1, "B": 2, "C": 3}, "S2"))
    outcome, trace = solve_sofai_v2(triangle, 3, cfg_with(store=store))
    assert trace.source == "memory"
    clock = iter(range(100))  # each read of the clock is one second later: the 0.5 s limit has passed at once
    monkeypatch.setattr(metacognition, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    outcome, trace = solve_sofai_v2(triangle, 3, cfg_with(store=store, time_limit=0.5))
    assert outcome.is_timeout
    assert (trace.source, trace.s2_invoked, trace.s1_calls) == (None, False, 0)


class TestFormatFeedback:
    def test_conflict_messages_worked_example(self, fig2_graph):
        items = format_feedback(fig2_graph, {"A": 1, "B": 1, "C": 2, "D": 2, "E": 1}, 2)
        assert [i.message for i in items] == [
            "Error: Vertices A and B are adjacent but have the same color.",
            "Error: Vertices C and D are adjacent but have the same color.",
        ]
        assert all(i.kind == "conflict" for i in items)

    def test_over_color_message_worked_example(self, triangle):
        items = format_feedback(triangle, {"A": 1, "B": 2, "C": 3}, 2)
        assert [i.message for i in items] == [
            "Error: Only 2 colors are allowed. 3 colors were used."
        ]
        assert items[0].kind == "over_color"

    def test_conflicts_precede_over_color(self, triangle):
        items = format_feedback(triangle, {"A": 1, "B": 1, "C": 3}, 1)
        assert [i.kind for i in items] == ["conflict", "over_color"]

    def test_proper_within_budget_is_empty(self, triangle):
        assert format_feedback(triangle, {"A": 1, "B": 2, "C": 3}, 3) == []

    def test_partial_assignment_names_uncolored_vertices(self):
        path = Graph(("A", "B", "C"), (("A", "B"), ("B", "C")))
        items = format_feedback(path, {"A": 1, "B": 2}, 2)
        assert [(i.kind, i.message) for i in items] == [
            ("uncolored", "Error: No color was given for vertices C.")
        ]

    def test_uncolored_vertices_come_last_in_vertex_order(self, triangle):
        items = format_feedback(triangle, {"B": 1}, 1)
        assert [i.message for i in items] == ["Error: No color was given for vertices A, C."]
        items = format_feedback(triangle, {"A": 1, "B": 1}, 1)
        assert [i.kind for i in items] == ["conflict", "uncolored"]

    def test_templates_are_exact_strings(self):
        assert CONFLICT_TEMPLATE == "Error: Vertices {u} and {v} are adjacent but have the same color."
        assert OVER_COLOR_TEMPLATE == "Error: Only {k} colors are allowed. {used} colors were used."


class TestGenerateExample:
    def test_picks_high_degree_triangle(self, fig2_graph):
        ex = generate_example(fig2_graph)
        assert ex.graph.vertices == ("A", "B", "C")
        assert ex.graph.edges == (("A", "B"), ("A", "C"), ("B", "C"))
        assert ex.solution == {"A": 1, "B": 2, "C": 3}  # greedy may exceed k

    def test_edgeless_two_vertex_graph(self):
        ex = generate_example(Graph(("A", "B"), ()))
        assert ex.solution == {"A": 1, "B": 1}

    def test_path_alternates(self):
        path = Graph(("A", "B", "C"), (("A", "B"), ("B", "C")))
        ex = generate_example(path)
        assert ex.solution == {"A": 1, "B": 2, "C": 1}

    def test_single_vertex(self):
        ex = generate_example(Graph(("X",), ()))
        assert ex.graph.vertices == ("X",)
        assert ex.solution == {"X": 1}

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            generate_example(Graph((), ()))

    def test_coloring_is_proper(self, petersen):
        ex = generate_example(petersen)
        assert len(ex.graph.vertices) == 3
        assert verdict(ex.graph, ex.solution, max(ex.solution.values())).valid

    @settings(max_examples=150)
    @given(er_graphs(min_n=1), st.randoms(use_true_random=False))
    def test_matches_a_rank_by_degree_then_position(self, graph, rng):
        # Permuting the vertex list puts degree ties out of label order;
        # shuffling the edges and flipping some of them makes edge order and
        # orientation differ from vertex order, so only graph.edges keeps them.
        order = list(graph.vertices)
        rng.shuffle(order)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges]
        rng.shuffle(edges)
        graph = Graph(tuple(order), tuple(edges))
        adjacency = label_view(graph)
        ranked = sorted(enumerate(graph.vertices), key=lambda iv: (-len(adjacency[iv[1]]), iv[0]))
        kept = {v for _, v in ranked[:3]}
        sub = Graph(
            tuple(v for v in graph.vertices if v in kept),
            tuple((u, v) for u, v in graph.edges if u in kept and v in kept),
        )
        coloring, sub_adjacency = {}, label_view(sub)
        for v in sub.vertices:
            used = {coloring[u] for u in sub_adjacency[v] if u in coloring}
            coloring[v] = min(set(range(1, len(used) + 2)) - used)
        ex = generate_example(graph)
        assert ex.graph == sub and ex.solution == coloring
        assert ex.text == PromptExample(sub, coloring).text

    def test_degree_ties_keep_vertex_order(self):
        # Every vertex of a 6-cycle has degree 2: the example is the first three listed.
        edges = (("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "F"), ("F", "A"))
        ex = generate_example(Graph(tuple("FBDACE"), edges))
        assert ex.graph == Graph(("F", "B", "D"), ())
        assert ex.text == (
            "Problem:\nc vertices F B D\np edge 3 0\n\n"
            "Correct Solution:\n(F 1)\n(B 1)\n(D 1)\n\nEnd of Example"
        )

    def test_prompt_example_renders_fig_block(self, fig2_graph):
        rendered = generate_example(fig2_graph).text
        assert rendered.startswith("Problem:\np edge 3 3\ne A B\ne A C\ne B C")
        assert "Correct Solution:\n(A 1)\n(B 2)\n(C 3)" in rendered
        assert rendered.endswith("End of Example")

    def test_built_only_for_a_second_round(self, fig2_graph, monkeypatch):
        calls, reads = [], []
        real = metacognition.generate_example
        monkeypatch.setattr(metacognition, "generate_example", lambda g: calls.append((g, len(reads))) or real(g))
        # Every round fails, so each preset runs as many rounds as it may; the mock reads no text.
        for solver, preset in PRESETS.items():
            bench.solve(solver, fig2_graph, 3, cfg_with(ALWAYS_UNSAT, store=MemoryStore() if preset.memory else None))
        assert calls == []
        monkeypatch.setattr(metacognition, "make_proposer", lambda config: _ReadsText(config, reads))
        bench.solve("SOFAI-v1", fig2_graph, 3, cfg_with(ALWAYS_UNSAT))
        solve_mc_s1_iN(fig2_graph, 3, cfg_with(ALWAYS_UNSAT), 1)
        assert calls == [] and len(reads) == 2
        reads.clear()
        _, trace = solve_sofai_v2(fig2_graph, 3, cfg_with(ALWAYS_UNSAT))
        assert trace.s1_calls == 2 and calls == [(fig2_graph, 2)]  # built while round 2's text was read
        reads.clear()
        _, trace = solve_mc_s1_iN(fig2_graph, 3, cfg_with(ALWAYS_UNSAT), 3)
        assert trace.s1_calls == 3 and calls == [(fig2_graph, 2)] * 2  # round 3 shows the same example


class _ReadsText:
    """The mock, reading each prompt's text first as a remote proposer does; reads gets every prompt."""

    def __init__(self, config, reads):
        self.mock, self.reads = proposer.MockProposer(config), reads

    def propose(self, prompt, *, timeout=None):
        self.reads.append(prompt)
        assert prompt.text
        return self.mock.propose(prompt, timeout=timeout)


def failed_round(score, signature):
    return IterationRecord("assignment", score, (), signature, 0.0)


class TestEscalationRule:
    def test_iteration_budget(self):
        rounds = [failed_round(0.5, ("conflicts", ()))]
        assert escalation_rule(rounds * 5, T=5)
        assert not escalation_rule(rounds, T=5)

    def test_improving_does_not_escalate(self):
        rounds = [
            failed_round(0.5, ("conflicts", (("A", "B"),))),
            failed_round(0.7, ("conflicts", (("C", "D"),))),
        ]
        assert not escalation_rule(rounds, T=5)

    def test_no_improvement_escalates(self):
        rounds = [
            failed_round(0.5, ("conflicts", (("A", "B"),))),
            failed_round(0.5, ("conflicts", (("C", "D"),))),
        ]
        assert escalation_rule(rounds, T=5)

    def test_repeated_signature_escalates(self):
        rounds = [
            failed_round(0.5, ("conflicts", (("A", "B"),))),
            failed_round(0.9, ("conflicts", (("A", "B"),))),
        ]
        assert escalation_rule(rounds, T=5)

    def test_empty_rounds_rejected(self):
        with pytest.raises(ValueError):
            escalation_rule([], T=5)

    @settings(max_examples=60, deadline=None)
    @given(er_graphs(min_n=2), st.integers(1, 4), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
    def test_trace_alone_explains_escalation(self, graph, k, noise, seed):
        # A noisy SOFAI-v2 run that reaches S2: no proper prefix of its failed
        # rounds fires the rule, and the whole trace does.
        noisy = ProposerConfig(kind="mock", noise=noise, noise_decay=0.7, unsat_rate=0.2, seed=seed)
        outcome, trace = solve_sofai_v2(graph, k, cfg_with(noisy))
        assume(trace.s2_invoked and not outcome.is_timeout)
        assert 1 <= trace.s1_calls <= MAX_ROUNDS
        for t in range(1, trace.s1_calls):
            assert not escalation_rule(trace.iterations[:t], MAX_ROUNDS)
        assert escalation_rule(trace.iterations, MAX_ROUNDS)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            OrchestratorConfig(time_limit=0)

    def test_only_what_callers_set(self):
        assert [f.name for f in dataclasses.fields(OrchestratorConfig)] == ["proposer", "time_limit", "store"]


class TestSofaiV2:
    def test_perfect_mock_accepts_first_iteration(self):
        bipartite = Graph(("A", "B", "C", "D"), (("A", "B"), ("B", "C"), ("C", "D")))
        outcome, trace = solve_sofai_v2(bipartite, 2, cfg_with())
        assert outcome.is_sat
        assert verdict(bipartite, outcome.assignment, 2).valid
        assert trace.s1_calls == 1
        assert not trace.s2_invoked
        assert trace.source == "S1"

    def test_always_invalid_escalates_to_s2(self, fig2_graph):
        outcome, trace = solve_sofai_v2(fig2_graph, 3, cfg_with(ALWAYS_UNSAT))
        assert outcome.is_sat  # S2 rescues the instance
        assert trace.s2_invoked
        assert trace.source == "S2"
        assert trace.s1_calls <= 5
        assert all(it.kind == "not_solvable" for it in trace.iterations)

    def test_infeasible_instance_certified_unsat(self, triangle):
        outcome, trace = solve_sofai_v2(triangle, 2, cfg_with())
        assert outcome.is_unsat
        assert trace.s2_invoked

    def test_timeout_propagates(self):
        start = time.monotonic()
        outcome, _ = solve_sofai_v2(myciel(6), 6, cfg_with(ALWAYS_UNSAT, time_limit=0.3))
        assert outcome.is_timeout
        assert time.monotonic() - start < 1.3

    def test_s1_success_stored_in_memory(self):
        store = MemoryStore()
        bipartite = Graph(("A", "B"), (("A", "B"),))
        outcome, _ = solve_sofai_v2(bipartite, 2, cfg_with(store=store))
        assert outcome.is_sat
        assert len(store) == 1
        assert store.records()[0].solver == "S1"

    def test_s2_success_stored_in_memory(self, fig2_graph):
        store = MemoryStore()
        outcome, _ = solve_sofai_v2(fig2_graph, 3, cfg_with(ALWAYS_UNSAT, store=store))
        assert outcome.is_sat
        assert store.records()[0].solver == "S2"

    def test_memory_round_trip_parses_no_dimacs(self, petersen, monkeypatch):
        import sofai_gc.graphs as graphs
        import sofai_gc.metacognition as metacognition
        # Same n, e, density and k as petersen, another edge order: a distinct record.
        twin = Graph(petersen.vertices, petersen.edges[::-1])
        twin_coloring = solve_decision(twin, 3, time_limit=10.0).assignment
        store = MemoryStore()
        store.append(EpisodicRecord.make(twin, 3, twin_coloring, "S2"))
        parsed, renders = [], []
        monkeypatch.setattr(graphs, "parse_dimacs_instance", lambda *a: parsed.append(a))
        monkeypatch.setattr(metacognition, "render_prompt", recording_renders(renders))
        outcome, trace = solve_sofai_v2(petersen, 3, cfg_with(ALWAYS_UNSAT, store=store))
        assert outcome.is_sat and trace.source == "S2"
        assert renders[0][2] == (PromptExample(twin, twin_coloring),)  # the memory hit
        assert [(r.graph, r.solver) for r in store.records()] == [(twin, "S2"), (petersen, "S2")]
        assert parsed == []

    def test_unsat_not_stored(self, triangle):
        store = MemoryStore()
        solve_sofai_v2(triangle, 2, cfg_with(store=store))
        assert len(store) == 0

    def test_repeat_solve_hits_memory_and_keeps_single_record(self):
        store = MemoryStore()
        bipartite = Graph(("A", "B"), (("A", "B"),))
        solve_sofai_v2(bipartite, 2, cfg_with(store=store))
        outcome, trace = solve_sofai_v2(bipartite, 2, cfg_with(store=store))
        assert outcome.is_sat
        assert len(store) == 1  # the store holds the instance, so the second trial builds no record of it

    def test_a_trial_does_not_rebuild_the_record_memory_holds(self, monkeypatch):
        graph, k = gen_erdos_renyi(12, 0.4, 3), 4
        make, built = EpisodicRecord.make, []
        monkeypatch.setattr(EpisodicRecord, "make", lambda *a: built.append(make(*a)) or built[-1])
        store = MemoryStore()
        first, _ = solve_sofai_v2(graph, k, cfg_with(store=store))
        # an equal graph, not the same object: the store holds this instance, so memory answers it
        parsed = parse_dimacs(serialize_dimacs(graph))
        for seed in (1, 2):
            outcome, trace = solve_sofai_v2(parsed, k, cfg_with(ProposerConfig(kind="mock", seed=seed), store=store))
            assert outcome.is_sat and trace.source == "memory"
        assert len(built) == 1 and store.records() == (built[0],)
        assert (built[0].graph, built[0].k, built[0].solution) == (graph, k, first.assignment)

    def test_a_twin_ahead_in_memory_makes_no_trial_rebuild_its_record(self, petersen, monkeypatch):
        # Same n, e, density and k as petersen, another edge order, stored first: the twin is the
        # nearest hit of every petersen trial, yet the store knows it holds petersen after the first.
        twin = Graph(petersen.vertices, petersen.edges[::-1])
        store = MemoryStore()
        store.append(EpisodicRecord.make(twin, 3, solve_decision(twin, 3, time_limit=10.0).assignment, "S2"))
        make, built, append, refused = EpisodicRecord.make, [], MemoryStore.append, []
        monkeypatch.setattr(EpisodicRecord, "make", lambda *a: built.append(make(*a)) or built[-1])

        def counting_append(self, record):
            try:
                append(self, record)
            except MemoryRejected:
                refused.append(record)
                raise

        monkeypatch.setattr(MemoryStore, "append", counting_append)
        for _ in range(2):
            outcome, _ = solve_sofai_v2(petersen, 3, cfg_with(store=store))
            assert outcome.is_sat
        assert [r.graph for r in built] == [petersen] and refused == []
        assert [r.graph for r in store.records()] == [twin, petersen]

    def test_memory_example_is_rendered_once_per_record(self, monkeypatch):
        graph, k = gen_erdos_renyi(12, 0.4, 3), 4
        # the stored graph and the two queries share n, e, density, k and the vertex tuple, in three edge
        # orders, so the record stored first is the nearest other graph of both queries
        stored = Graph(graph.vertices, graph.edges[::-1])
        queries = (graph, Graph(graph.vertices, graph.edges[1:] + graph.edges[:1]))
        record = EpisodicRecord.make(stored, k, solve_decision(stored, k, time_limit=10.0).assignment, "S2")
        store = MemoryStore()
        store.append(record)
        formatted, renders = [], []
        fmt = proposer.format_assignment
        monkeypatch.setattr(proposer, "format_assignment", lambda *a: formatted.append(a) or fmt(*a))
        monkeypatch.setattr(metacognition, "render_prompt", recording_renders(renders))
        noisy = ProposerConfig(kind="mock", noise=1.0, noise_decay=0.5)
        for query, seed in zip(queries, (1, 2)):
            _, trace = solve_sofai_v2(query, k, cfg_with(dataclasses.replace(noisy, seed=seed), store=store))
            assert trace.s1_calls >= 2
        assert [r.graph for r in store.records()] == [stored, *queries]
        assert all(examples[0] is record.example for _, _, examples, _, _ in renders)
        assert formatted == []  # the mock reads no text, so nothing is formatted until a text is read
        for *_, prompt in renders * 2:
            assert prompt.text
        # the record's solution once in all, the worked example (a 3-vertex graph) once per trial
        assert sum(a is record.solution for a, _ in formatted) == 1
        assert sum(order is not graph.vertices for _, order in formatted) == 2
        for g, at_k, examples, history, prompt in renders:
            fresh = [PromptExample(record.graph, dict(record.solution))] + [generate_example(g)] * (len(examples) - 1)
            assert prompt.text == proposer.render_prompt(g, at_k, fresh, history).text

    def test_accept_s1_unsat_flag(self, fig2_graph):
        # SOFAI-v2 rejects the declaration; only the S1 preset takes it as final.
        _, v2_trace = solve_sofai_v2(fig2_graph, 3, cfg_with(ALWAYS_UNSAT))
        assert v2_trace.s2_invoked
        outcome, trace = bench.solve("S1", fig2_graph, 3, cfg_with(ALWAYS_UNSAT))
        assert outcome.is_unsat  # declaration accepted as final
        assert not trace.s2_invoked
        assert trace.source == "S1"
        assert [it.kind for it in trace.iterations] == ["not_solvable"]

    def test_transport_failure_is_survivable(self, triangle, no_retries):
        dead = ProposerConfig(kind="remote", endpoint="http://127.0.0.1:1/v1")
        outcome, trace = solve_sofai_v2(triangle, 3, cfg_with(dead))
        assert outcome.is_sat  # S2 answers despite a dead proposer
        first = trace.iterations[0]
        assert first.kind == "error"
        assert first.feedback == ()
        assert first.signature == ("error",)
        assert first.error

    def test_feedback_recorded_in_trace(self, fig2_graph):
        # greedy at k=2 over-colors; the trace must carry the message
        outcome, trace = solve_sofai_v2(fig2_graph, 2, cfg_with())
        assert outcome.is_unsat
        first = trace.iterations[0]
        assert first.kind == "assignment"
        assert first.score == 1.0  # proper coloring, just over budget
        assert first.feedback == ("Error: Only 2 colors are allowed. 3 colors were used.",)
        assert first.signature == ("conflicts", ())

    def test_not_solvable_iterations_record_rejection_message(self, triangle):
        outcome, trace = solve_sofai_v2(triangle, 3, cfg_with(ALWAYS_UNSAT))
        assert trace.iterations[0].kind == "not_solvable"
        assert trace.iterations[0].feedback == (NOT_SOLVABLE_REJECTED_MESSAGE,)
        assert trace.iterations[0].signature == ("not_solvable",)

    def test_conflict_vertices_recorded(self):
        # noisy proposals at k=2 on an odd cycle produce conflicts
        c5 = Graph(tuple("ABCDE"), (("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "A")))
        noisy = ProposerConfig(kind="mock", noise=1.0, seed=3)
        _, trace = solve_sofai_v2(c5, 2, cfg_with(noisy))
        with_conflicts = [it for it in trace.iterations if it.signature and it.signature[0] == "conflicts"]
        assert any(it.signature[1] for it in with_conflicts)
        for it in with_conflicts:
            edges = it.signature[1]
            assert set(edges) <= set(c5.edges)
            # the round's feedback names exactly those edges, in edge order, before any other message
            assert it.feedback[: len(edges)] == tuple(CONFLICT_TEMPLATE.format(u=u, v=v) for u, v in edges)
            assert not any(m.startswith("Error: Vertices") for m in it.feedback[len(edges):])

    def test_one_verdict_per_assignment_round(self, monkeypatch):
        import sofai_gc.metacognition as metacognition
        calls = []
        real = metacognition.verdict
        monkeypatch.setattr(metacognition, "verdict", lambda *a: calls.append(a) or real(*a))
        c5 = Graph(tuple("ABCDE"), (("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "A")))
        noisy = ProposerConfig(kind="mock", noise=1.0, seed=3)
        outcome, trace = solve_sofai_v2(c5, 2, cfg_with(noisy))
        assert outcome.is_unsat and trace.s2_invoked
        assert [it.kind for it in trace.iterations] == ["assignment"] * trace.s1_calls
        assert len(calls) == trace.s1_calls

    def test_completeness_matches_s2_on_random_instances(self):
        rng = random.Random(0)
        noisy = ProposerConfig(kind="mock", noise=0.8, unsat_rate=0.3, seed=5)
        for _ in range(15):
            graph = gen_erdos_renyi(rng.randint(2, 8), 0.5, seed=rng.getrandbits(32))
            k = rng.randint(1, 4)
            expected = solve_decision(graph, k, time_limit=10.0)
            got, trace = solve_sofai_v2(graph, k, cfg_with(noisy))
            assert got.status in ("sat", "unsat")
            assert got.status == expected.status
            if got.is_sat:
                assert verdict(graph, got.assignment, k).valid
            assert trace.s1_calls <= 5

    def test_k_validation(self, triangle):
        with pytest.raises(ValueError):
            solve_sofai_v2(triangle, 0, cfg_with())


class TestSofaiV1:
    def test_single_shot_then_accept(self):
        bipartite = Graph(("A", "B"), (("A", "B"),))
        outcome, trace = bench.solve("SOFAI-v1", bipartite, 2, cfg_with())
        assert outcome.is_sat
        assert trace.s1_calls == 1 and not trace.s2_invoked

    def test_failure_goes_straight_to_s2(self, fig2_graph):
        outcome, trace = bench.solve("SOFAI-v1", fig2_graph, 3, cfg_with(ALWAYS_UNSAT))
        assert outcome.is_sat
        assert trace.s1_calls == 1 and trace.s2_invoked

    def test_unsat_instance(self, triangle):
        outcome, trace = bench.solve("SOFAI-v1", triangle, 2, cfg_with())
        assert outcome.is_unsat

    def test_no_memory_reads_or_writes(self, tmp_path):
        # a store for a row that reads no memory is refused by every entry point, not ignored
        memoryless = [solver for solver, preset in PRESETS.items() if not preset.memory]
        assert memoryless == ["S2", "SOFAI-v1"]
        bipartite = Graph(("A", "B"), (("A", "B"),))
        path = tmp_path / "memory.jsonl"
        store = MemoryStore(path)
        for solver in memoryless:
            refused = f"--memory is not used by {solver}, which reads no episodic memory"
            with pytest.raises(ValueError, match=refused):
                bench.solve(solver, bipartite, 2, cfg_with(store=store))
            with pytest.raises(ValueError, match=refused):
                metacognition.run_preset(solver, bipartite, 2, cfg_with(store=store))
            with pytest.raises(ValueError, match=refused):
                bench.RunConfig(solver=solver, dataset="x", memory_path=str(path))
        assert len(store) == 0 and not path.exists()

    def test_no_feedback_in_single_iteration(self, fig2_graph):
        _, trace = bench.solve("SOFAI-v1", fig2_graph, 2, cfg_with())
        assert trace.s1_calls == 1


class TestMcS1IN:
    def test_always_invalid_runs_exactly_n(self, fig2_graph):
        for n in (1, 2, 3, 5):
            outcome, trace = solve_mc_s1_iN(fig2_graph, 3, cfg_with(ALWAYS_UNSAT), n)
            assert outcome.is_failure and outcome.reason == "s1-exhausted"
            assert trace.s1_calls == n
            assert not trace.s2_invoked

    def test_perfect_mock_stops_at_one(self, fig2_graph):
        for n in (1, 3, 5):
            outcome, trace = solve_mc_s1_iN(fig2_graph, 3, cfg_with(), n)
            assert outcome.is_sat
            assert trace.s1_calls == 1

    def test_n_validation(self, triangle):
        with pytest.raises(ValueError):
            solve_mc_s1_iN(triangle, 3, cfg_with(), 0)
        with pytest.raises(ValueError):
            solve_mc_s1_iN(triangle, 3, cfg_with(), 6)

    def test_noise_decay_lets_later_iterations_succeed(self):
        # heavy first-shot noise that vanishes after one feedback round:
        # I1 fails, I2+ recovers, demonstrating refinement value
        c5 = Graph(tuple("ABCDE"), (("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "A")))
        wobbly = ProposerConfig(kind="mock", noise=1.0, noise_decay=0.0, seed=11)
        one, trace1 = solve_mc_s1_iN(c5, 3, cfg_with(wobbly), 1)
        two, trace2 = solve_mc_s1_iN(c5, 3, cfg_with(wobbly), 2)
        assert one.is_failure
        assert two.is_sat and trace2.s1_calls == 2

    def test_accepts_declaration_when_configured(self, triangle):
        # MC-S1-IN feeds back every declaration; S1 stops at the first.
        capped, capped_trace = solve_mc_s1_iN(triangle, 2, cfg_with(ALWAYS_UNSAT), 3)
        assert capped.is_failure and capped_trace.s1_calls == 3
        outcome, trace = bench.solve("S1", triangle, 2, cfg_with(ALWAYS_UNSAT))
        assert outcome.is_unsat
        assert trace.s1_calls == 1


def test_empty_graph_is_answered_by_s1():
    # the empty assignment colors a graph with no vertices, so S1 answers it
    empty = Graph((), ())
    runs = [
        bench.solve("S1", empty, 1, cfg_with()),
        solve_mc_s1_iN(empty, 1, cfg_with(), 2),
        solve_sofai_v2(empty, 1, cfg_with()),
    ]
    for outcome, trace in runs:
        assert outcome.is_sat and outcome.assignment == {}
        assert [it.kind for it in trace.iterations] == ["assignment"]
        assert trace.source == "S1" and not trace.s2_invoked


class TestS2:
    def test_answers_without_building_a_proposer(self, fig2_graph, monkeypatch):
        built = []
        make = metacognition.make_proposer
        monkeypatch.setattr(metacognition, "make_proposer", lambda config: built.append(config) or make(config))
        outcome, trace = bench.solve("S2", fig2_graph, 3, cfg_with())
        assert outcome.is_sat and trace.s2_invoked and trace.s1_calls == 0
        assert built == []
        bench.solve("SOFAI-v1", fig2_graph, 3, cfg_with())
        assert len(built) == 1


class _FixedReply:
    """Sleeps for delay seconds, then gives the same reply to every prompt."""

    def __init__(self, reply, delay):
        self.reply, self.delay = reply, delay

    def propose(self, prompt, *, timeout=None):
        time.sleep(self.delay)
        return self.reply


_BAD = ProposerResponse("assignment", raw="", assignment={"A": 1, "B": 1, "C": 1})
_VALID = ProposerResponse("assignment", raw="", assignment={"A": 1, "B": 2, "C": 3})
_NOT_SOLVABLE = ProposerResponse("not_solvable", raw="NOT SOLVABLE")


@pytest.mark.parametrize(
    "solver, reply, delay, status, source, s2_invoked, rounds",
    [
        # the reply lands after the 0.1 s deadline
        ("SOFAI-v2", _BAD, 0.15, "timeout", None, False, 1),
        ("MC-S1-I1", _BAD, 0.15, "timeout", None, False, 1),
        ("MC-S1-I3", _BAD, 0.15, "timeout", None, False, 1),
        ("SOFAI-v1", _BAD, 0.15, "timeout", None, False, 1),
        ("SOFAI-v2", _VALID, 0.15, "sat", "S1", False, 1),
        ("S1", _NOT_SOLVABLE, 0.15, "unsat", "S1", False, 1),
        # the reply lands at once
        ("MC-S1-I2", _BAD, 0.0, "failure", None, False, 2),
        ("SOFAI-v1", _BAD, 0.0, "sat", "S2", True, 1),
    ],
)
def test_every_way_a_trial_ends(triangle, monkeypatch, solver, reply, delay, status, source, s2_invoked, rounds):
    monkeypatch.setattr(metacognition, "make_proposer", lambda config: _FixedReply(reply, delay))
    outcome, trace = bench.solve(solver, triangle, 3, cfg_with(time_limit=0.1))
    assert outcome.status == status
    assert (trace.source, trace.s2_invoked, trace.s1_calls) == (source, s2_invoked, rounds)
    if status == "failure":
        assert outcome.reason == "s1-exhausted"


@pytest.mark.parametrize("solver", bench.SOLVERS)
def test_no_time_at_all_is_a_timeout_with_no_rounds(triangle, monkeypatch, solver):
    monkeypatch.setattr(metacognition, "make_proposer", lambda config: _FixedReply(_VALID, 0.0))
    outcome, trace = bench.solve(solver, triangle, 3, cfg_with(time_limit=1e-9))
    assert outcome.is_timeout
    assert (trace.source, trace.s2_invoked, trace.s1_calls) == (None, False, 0)


@pytest.mark.parametrize("solver", PRESETS)
def test_every_row_runs_as_its_table_says(fig2_graph, solver):
    # Every S1 round declares NOT SOLVABLE on a colorable graph, so each row runs as far as its switches let it.
    preset = PRESETS[solver]
    store = MemoryStore() if preset.memory else None
    outcome, trace = bench.solve(solver, fig2_graph, 3, cfg_with(ALWAYS_UNSAT, store=store))
    assert (outcome.is_unsat and trace.source == "S1") == preset.accept_unsat
    assert trace.s2_invoked == preset.fallback
    assert trace.s1_calls <= preset.rounds
    if not (preset.fallback or preset.accept_unsat):
        assert outcome.is_failure and trace.s1_calls == preset.rounds
    if store is not None:  # a row that reads memory records what it solved
        assert len(store) == outcome.is_sat


# The fields an outcome of each status carries: (type of assignment, type of reason).
OUTCOME_SHAPES = {
    "sat": (dict, type(None)),
    "unsat": (type(None), type(None)),
    "timeout": (type(None), type(None)),
    "failure": (type(None), str),
}


def assert_shaped(outcome, graph, k, source="S2"):
    """The outcome carries just its status's fields, exactly one status predicate holds, and nodes is a count."""
    assert (type(outcome.assignment), type(outcome.reason)) == OUTCOME_SHAPES[outcome.status]
    predicates = [outcome.is_sat, outcome.is_unsat, outcome.is_timeout, outcome.is_failure]
    assert predicates == [status == outcome.status for status in OUTCOME_SHAPES]
    assert type(outcome.nodes) is int and outcome.nodes >= 0
    if source == "S1" or outcome.is_sat and not k_core(graph, k):  # no search: S1's answer, or a peeled Sat
        assert outcome.nodes == 0


class TestOutcomeShapes:
    @settings(max_examples=200, deadline=None)
    @given(er_graphs(), st.integers(1, 5), st.sampled_from([30.0, 0.0]), st.booleans())
    def test_every_s2_outcome(self, graph, k, time_limit, rejected):
        # a rejected certificate is S2's one failure
        with pytest.MonkeyPatch.context() as patch:
            if rejected:
                patch.setattr(dsatur, "verdict", lambda *args: dataclasses.replace(verdict(*args), valid=False))
            assert_shaped(solve_decision(graph, k, time_limit), graph, k)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(list(PRESETS)),
        er_graphs(),
        st.integers(1, 5),
        st.sampled_from([0.0, 0.5, 1.0]),  # noise
        st.sampled_from([0.0, 0.5, 1.0]),  # unsat_rate
        st.integers(0, 2**32 - 1),
        st.sampled_from([30.0, 1e-9]),
    )
    def test_every_trial_outcome(self, solver, graph, k, noise, unsat_rate, seed, time_limit):
        config = ProposerConfig(kind="mock", noise=noise, unsat_rate=unsat_rate, seed=seed)
        store = MemoryStore() if PRESETS[solver].memory else None
        cfg = cfg_with(config, time_limit=time_limit, store=store)
        outcome, trace = metacognition.run_preset(solver, graph, k, cfg)
        assert_shaped(outcome, graph, k, trace.source)
