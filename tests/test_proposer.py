import hashlib
import json
import random
import re
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sofai_gc import (
    Graph,
    MockProposer,
    OrchestratorConfig,
    PromptExample,
    ProposerConfig,
    RemoteProposer,
    derive_seed,
    format_feedback,
    gen_erdos_renyi,
    make_proposer,
    parse_dimacs,
    parse_response,
    render_prompt,
    serialize_dimacs,
    solve_sofai_v2,
    verdict,
)
from sofai_gc.graphs import LABEL
from sofai_gc.metacognition import UNPARSEABLE_MESSAGE
from sofai_gc.proposer import format_assignment

from oracles import reference_mock_reply
from strategies import er_graphs

# The full base prompt for the five-vertex worked example at k=2, frozen
# so template drift is caught character-for-character.
EXPECTED_FIG2_PROMPT = """New Problem to Solve:
You are given an undirected graph with 2 colors available. Your task is to assign a color to each vertex such that no two adjacent vertices share the same color.

Graph Representation:
- Number of vertices and edges: p edge 5 5.
- Edges between vertices are listed as follows:
e A B
e A C
e B C
e C D
e D E

Objective:
Assign a unique color to each vertex, ensuring that no two vertices connected by an edge have the same color. Use no more than 2 distinct colors. Provide the color assignments for each vertex in the format:
(Vertex Color)

Example Format:
(A 1)
(B 2)
(C 1)

Please provide the color assignment for the new problem to solve, or respond with "NOT SOLVABLE" if it cannot be solved."""


class TestRenderPrompt:
    def test_base_template_verbatim(self, fig2_graph):
        assert render_prompt(fig2_graph, 2).text == EXPECTED_FIG2_PROMPT

    def test_deterministic(self, fig2_graph):
        assert render_prompt(fig2_graph, 2).text == render_prompt(fig2_graph, 2).text

    def test_empty_graph_well_formed(self):
        text = render_prompt(Graph((), ()), 1).text
        assert "p edge 0 0." in text
        assert text.endswith('if it cannot be solved.')

    def test_example_block_format(self, fig2_graph):
        square = Graph(("X", "Y", "Z", "A"), (("X", "Y"), ("Y", "Z"), ("Z", "A"), ("X", "A")))
        example = PromptExample(square, {"X": 1, "Y": 2, "Z": 1, "A": 2})
        text = render_prompt(fig2_graph, 2, examples=[example]).text
        block = (
            "Problem:\n"
            "p edge 4 4\n"
            "e X Y\n"
            "e Y Z\n"
            "e Z A\n"
            "e X A\n"
            "\n"
            "Correct Solution:\n"
            "(X 1)\n"
            "(Y 2)\n"
            "(Z 1)\n"
            "(A 2)\n"
            "\n"
            "End of Example"
        )
        assert block in text
        # examples sit between the format section and the closing request
        assert text.index("Example Format:") < text.index("Problem:") < text.index("Please provide")

    def test_feedback_history_most_recent_last(self, fig2_graph):
        history = [
            ("(A 1)\n(B 1)", ("Error: Vertices A and B are adjacent but have the same color.",)),
            ("(A 1)\n(B 2)\n(C 2)", ("Error: Vertices B and C are adjacent but have the same color.",)),
        ]
        text = render_prompt(fig2_graph, 2, feedback_history=history).text
        first = text.index("Vertices A and B")
        second = text.index("Vertices B and C")
        assert first < second < text.index("Please provide")
        assert "Incorrect Coloring Submitted:\n(A 1)\n(B 1)" in text
        assert "Feedback Provided:\nError: Vertices A and B" in text

    def test_a_coloring_attempt_is_written_in_vertex_order_on_first_read(self, fig2_graph):
        history = [({"C": 2, "A": 1, "B": 1}, ("Error: Vertices A and B are adjacent but have the same color.",))]
        prompt = render_prompt(fig2_graph, 2, feedback_history=history)
        history.clear()  # the prompt keeps its own copy
        assert prompt.feedback_rounds == 1 and "text" not in vars(prompt)
        assert "Incorrect Coloring Submitted:\n(A 1)\n(B 1)\n(C 2)\n\nFeedback Provided:\nError" in prompt.text

    def test_k_validation(self, fig2_graph):
        with pytest.raises(ValueError):
            render_prompt(fig2_graph, 0)


class TestParseResponse:
    def test_plain_pairs(self, fig2_graph):
        resp = parse_response("(A 1)\n(B 2)\n(C 3)\n(D 1)\n(E 2)", fig2_graph)
        assert resp.is_assignment
        assert resp.assignment == {"A": 1, "B": 2, "C": 3, "D": 1, "E": 2}

    def test_pairs_embedded_in_prose(self, fig2_graph):
        text = "Sure! Here is my coloring:\n( A 1 ), (B 2)... and (C 1) completes it."
        resp = parse_response(text, fig2_graph)
        assert resp.assignment == {"A": 1, "B": 2, "C": 1}

    def test_unknown_vertices_ignored(self, triangle):
        resp = parse_response("(A 1)(Z 2)(B 2)(C 3)", triangle)
        assert resp.assignment == {"A": 1, "B": 2, "C": 3}

    def test_color_zero_ignored(self, triangle):
        resp = parse_response("(A 0)", triangle)
        assert resp.kind == "unparseable"

    def test_color_of_more_digits_than_int_reads_ignored(self, triangle):
        # int() refuses a numeral longer than sys.get_int_max_str_digits(), 4300 by default
        resp = parse_response("(A 1)\n(B " + "9" * 4301 + ")", triangle)
        assert resp.assignment == {"A": 1}

    def test_last_pair_wins(self, triangle):
        resp = parse_response("(A 1)(A 2)", triangle)
        assert resp.assignment == {"A": 2}

    def test_not_solvable_detection(self, triangle):
        assert parse_response("NOT SOLVABLE", triangle).is_not_solvable
        assert parse_response("This is not solvable, sorry.", triangle).is_not_solvable

    def test_garbage_is_unparseable(self, triangle):
        resp = parse_response("I don't know.", triangle)
        assert resp.kind == "unparseable" and resp.error

    def test_pairs_take_precedence_over_declaration(self, triangle):
        resp = parse_response("(A 1) but maybe NOT SOLVABLE", triangle)
        assert resp.is_assignment

    def test_keys_are_the_graphs_own_strings(self):
        graph = parse_dimacs("p edge 3 2\ne v10 v20\ne v20 v30")
        resp = parse_response("(v30 1)\n(v10 1)\n(v20 2)\n(v30 3)", graph)
        assert resp.assignment == {"v30": 3, "v10": 1, "v20": 2}
        own = {id(v) for v in graph.vertices}
        assert all(id(v) in own for v in resp.assignment)

    def test_labels_with_balanced_parentheses(self):
        graph = Graph(("v(1)", "B"), (("v(1)", "B"),))
        assert parse_response("(v(1) 1)\n(B 2)", graph).assignment == {"v(1)": 1, "B": 2}
        assert parse_response("((B 1))", graph).assignment == {"B": 1}

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.text(alphabet="ab() \t", max_size=5), min_size=1, max_size=5, unique=True),
        st.lists(st.integers(min_value=1, max_value=10**12), min_size=5, max_size=5),
    )
    def test_every_label_a_graph_holds_reads_back(self, labels, colors):
        # Graph refuses the first label that breaks LABEL; a reply can name every label it keeps
        bad = next((v for v in labels if not re.fullmatch(LABEL, v)), None)
        if bad is not None:
            with pytest.raises(ValueError, match=re.escape(f"vertex label {bad!r} is not one DIMACS token")):
                Graph(tuple(labels), ())
            return
        graph = Graph(tuple(labels), ())
        assignment = dict(zip(graph.vertices, colors))
        assert parse_response(format_assignment(assignment, graph.vertices), graph).assignment == assignment


class TestMockProposer:
    def test_greedy_is_proper_and_deterministic(self, fig2_graph):
        cfg = ProposerConfig(kind="mock", seed=7)
        a = MockProposer(cfg).propose(render_prompt(fig2_graph, 3))
        b = MockProposer(cfg).propose(render_prompt(fig2_graph, 3))
        assert a.assignment == b.assignment
        assert verdict(fig2_graph, a.assignment, 3).valid

    def test_greedy_ignores_budget(self, fig2_graph):
        # at k=2 greedy still produces its 3-color assignment: the
        # over-color feedback path must be reachable
        resp = MockProposer(ProposerConfig(kind="mock")).propose(render_prompt(fig2_graph, 2))
        assert len(set(resp.assignment.values())) == 3

    def test_unsat_rate_one_declares(self, triangle):
        cfg = ProposerConfig(kind="mock", unsat_rate=1.0)
        assert MockProposer(cfg).propose(render_prompt(triangle, 3)).is_not_solvable

    def test_noise_corrupts_within_budget(self, petersen):
        cfg = ProposerConfig(kind="mock", noise=1.0, seed=1)
        resp = MockProposer(cfg).propose(render_prompt(petersen, 3))
        assert set(resp.assignment.values()) <= {1, 2, 3}
        assert not verdict(petersen, resp.assignment, 3).valid  # overwhelmingly likely

    def test_noise_decay_zero_restores_greedy_after_feedback(self, fig2_graph):
        cfg = ProposerConfig(kind="mock", noise=1.0, noise_decay=0.0, seed=1)
        history = [("(A 1)", ("Error: something",))]
        resp = MockProposer(cfg).propose(render_prompt(fig2_graph, 3, feedback_history=history))
        assert verdict(fig2_graph, resp.assignment, 3).valid

    def test_colours_a_label_a_text_reply_cannot_carry(self):
        # The mock hands over the colouring it built, not its own reply read
        # back: it writes no "(v(1) 1)" pair for a label such as "v(1)".
        graph = Graph(("v(1)", "B"), (("v(1)", "B"),))
        resp = MockProposer(ProposerConfig()).propose(render_prompt(graph, 2))
        assert resp.raw == ""  # the mock sends no text; the controller writes a failed coloring itself
        assert resp.assignment == {"v(1)": 1, "B": 2}
        assert verdict(graph, resp.assignment, 2).valid

    def test_replies_on_a_sparse_graph_are_pinned(self):
        # The first G(300, 0.03) of perfbench's s1-memory suite, loaded from
        # DIMACS as a dataset is, at k = greedy colors + 1, with that
        # workload's noise: three rounds, each prompt carrying the feedback
        # so far.  Trial 2's replies fail twice and then succeed, so all
        # three reach the controller.  The replies must not depend on the
        # order of graph.neighbours or on which string objects hold the labels.
        graph = parse_dimacs(serialize_dimacs(gen_erdos_renyi(300, 0.03, random.Random(0).getrandbits(63))))
        greedy = MockProposer(ProposerConfig()).propose(render_prompt(graph, len(graph.vertices))).assignment
        k = max(greedy.values()) + 1
        seed = derive_seed(1, f"sp000_k{k}", 2)
        proposer = MockProposer(ProposerConfig(kind="mock", noise=0.02, noise_decay=0.5, seed=seed))
        history = []
        digest = hashlib.sha256()
        for _ in range(3):
            reply = proposer.propose(render_prompt(graph, k, (), history))
            messages = tuple(item.message for item in format_feedback(graph, reply.assignment, k))
            attempt = format_assignment(reply.assignment, graph.vertices)
            digest.update(attempt.encode() + b"\n\n" + "\n".join(messages).encode() + b"\n\n")
            history.append((attempt, messages))
        assert [bool(m) for _, m in history] == [True, True, False]
        assert digest.hexdigest() == "39dd90828ab33f9de5df97e583eead5560220239ce4dbde2951d02aba5d5f1f8"

    @settings(max_examples=300, deadline=None)
    @given(er_graphs(max_n=9), st.integers(1, 14), st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([0.0, 0.25]),
           st.integers(0, 2**32))
    def test_replies_match_a_set_based_first_fit(self, graph, k, noise, unsat_rate, seed):
        # k both below and above n, so some noisy colors exceed every first fit
        proposer = MockProposer(ProposerConfig(noise=noise, noise_decay=0.5, unsat_rate=unsat_rate, seed=seed))
        rng = random.Random(seed)
        history = []
        for rounds in range(3):
            reply = proposer.propose(render_prompt(graph, k, (), history))
            expected = reference_mock_reply(graph, k, noise * 0.5**rounds, unsat_rate, rng)
            if expected is None:
                assert reply.is_not_solvable
            else:
                assert list(reply.assignment.items()) == list(expected.items())
            assert reply.raw == ""
            history.append((reply.raw, ("Error: something",)))

    def test_a_huge_k_allocates_nothing_sized_by_k(self, petersen):
        # A noisy color is drawn from 1..k, and k comes from the command line
        # or an instance's `c k` line; only colors up to n can block a first fit.
        tracemalloc.start()
        try:
            MockProposer(ProposerConfig(noise=1.0)).propose(render_prompt(petersen, 10**8))
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
        reply = MockProposer(ProposerConfig(noise=1.0, seed=4)).propose(render_prompt(petersen, 10**12))
        expected = reference_mock_reply(petersen, 10**12, 1.0, 0.0, random.Random(4))
        assert reply.assignment == expected and max(expected.values()) > 10**6

    def test_config_validation(self):
        for name, value in (("noise", 1.5), ("noise_decay", -0.1), ("noise_decay", 1.5), ("unsat_rate", -0.1),
                            ("unsat_rate", 1.5)):
            with pytest.raises(ValueError, match=f"{name} must be in"):
                ProposerConfig(kind="mock", **{name: value})
        with pytest.raises(ValueError):
            ProposerConfig(kind="other")
        with pytest.raises(ValueError):
            ProposerConfig(kind="remote")  # endpoint required
        # a NaN or inf temperature made every remote round's request body not JSON (NaN, Infinity)
        for value in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="temperature"):
                ProposerConfig(kind="remote", endpoint="http://example.test/v1", temperature=value)


class _ChatHandler(BaseHTTPRequestHandler):
    """Scripted chat-completions endpoint; behavior set per test."""

    # mutated by tests: list of (status, content) steps; content given as
    # bytes is sent as the raw body, and a third item, when present, is how
    # many seconds the endpoint waits before it answers
    script: list = []
    seen: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append(
            {"auth": self.headers.get("Authorization"), "body": body}
        )
        step = self.script.pop(0) if self.script else (200, "(A 1)")
        status, content = step[:2]
        if len(step) > 2:
            time.sleep(step[2])
        if isinstance(content, bytes):
            payload = content
        elif status == 200:
            payload = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": content}}]}
            ).encode()
        else:
            payload = b""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def handle_one_request(self):
        try:
            super().handle_one_request()
        except ConnectionError:
            pass  # a client that timed out has gone

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    # shutdown waits for serve_forever's next poll, by default 0.5 s away
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    _ChatHandler.script = []
    _ChatHandler.seen = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join()


class TestRemoteProposer:
    def test_make_proposer_dispatch(self):
        assert isinstance(make_proposer(ProposerConfig(kind="mock")), MockProposer)
        remote = ProposerConfig(kind="remote", endpoint="http://example.test")
        assert isinstance(make_proposer(remote), RemoteProposer)

    def test_a_mock_config_is_refused(self):
        with pytest.raises(ValueError, match="RemoteProposer requires a remote config"):
            RemoteProposer(ProposerConfig())

    def test_success_parses_reply(self, chat_server, triangle):
        _ChatHandler.script = [(200, "(A 1)\n(B 2)\n(C 3)")]
        cfg = ProposerConfig(
            kind="remote", endpoint=chat_server, api_key="sk-test", model="test-model"
        )
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3))
        assert resp.assignment == {"A": 1, "B": 2, "C": 3}
        sent = _ChatHandler.seen[0]
        assert sent["auth"] == "Bearer sk-test"
        assert sent["body"]["model"] == "test-model"
        assert sent["body"]["temperature"] == 0.0
        assert sent["body"]["messages"][0]["role"] == "user"
        assert "New Problem to Solve:" in sent["body"]["messages"][0]["content"]

    def test_retries_after_server_error(self, chat_server, triangle):
        _ChatHandler.script = [(500, ""), (200, "(A 1)\n(B 2)\n(C 3)")]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server)
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3))
        assert resp.is_assignment
        assert len(_ChatHandler.seen) == 2

    def test_a_huge_color_is_not_retried(self, chat_server, triangle):
        # a reply whose text parses is an answer, whatever its colors, so the good pair survives
        _ChatHandler.script = [(200, "(A 1)\n(B " + "9" * 4301 + ")")]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server)
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3))
        assert resp.assignment == {"A": 1}
        assert len(_ChatHandler.seen) == 1

    def test_exhausted_retries_reported(self, chat_server, triangle):
        _ChatHandler.script = [(500, ""), (500, ""), (500, "")]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server)
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3))
        assert resp.kind == "error"
        assert "HTTPError" in resp.error

    def test_unreachable_endpoint(self, triangle, no_retries):
        cfg = ProposerConfig(kind="remote", endpoint="http://127.0.0.1:1/v1")
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3), timeout=0.5)
        assert resp.kind == "error"
        assert resp.error

    def test_zero_budget_short_circuits(self, chat_server, triangle):
        cfg = ProposerConfig(kind="remote", endpoint=chat_server)
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3), timeout=0)
        assert resp.kind == "error"
        assert _ChatHandler.seen == []

    def test_retries_share_one_deadline(self, chat_server, triangle):
        # each attempt used to get the full budget, then a backoff: 4.5 s in all
        _ChatHandler.script = [(200, "(A 1)\n(B 2)\n(C 3)", 1.5)] * 3
        cfg = ProposerConfig(kind="remote", endpoint=chat_server)
        start = time.monotonic()
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3), timeout=1.0)
        assert time.monotonic() - start < 1.3
        assert resp.kind == "error"
        assert "Timeout" in resp.error

    def test_the_request_cap_bounds_a_longer_timeout(self, chat_server, triangle, monkeypatch):
        # the cap, not the caller's 5 s, ends the call: one attempt, no retry once the cap is spent
        monkeypatch.setattr("sofai_gc.proposer._REQUEST_TIMEOUT", 0.2)
        _ChatHandler.script = [(200, "(A 1)\n(B 2)\n(C 3)", 1.0)] * 3
        start = time.monotonic()
        resp = RemoteProposer(ProposerConfig(kind="remote", endpoint=chat_server)).propose(
            render_prompt(triangle, 3), timeout=5
        )
        assert time.monotonic() - start < 0.6
        assert resp.kind == "error"
        assert "timed out" in resp.error
        assert len(_ChatHandler.seen) == 1

    def test_backoff_is_clipped_to_the_deadline(self, chat_server, triangle):
        _ChatHandler.script = [(500, ""), (500, ""), (500, "")]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server)
        start = time.monotonic()
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3), timeout=0.3)
        assert time.monotonic() - start < 0.45  # the first backoff alone is 0.5 s
        assert "HTTPError" in resp.error
        assert len(_ChatHandler.seen) == 1  # no attempt starts once the time is spent

    def test_transport_error_round_leaves_no_history(self, chat_server, triangle, no_retries):
        _ChatHandler.script = [(500, ""), (200, "(A 1)\n(B 2)\n(C 3)")]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server)
        outcome, trace = solve_sofai_v2(triangle, 3, OrchestratorConfig(proposer=cfg, time_limit=30.0))
        assert outcome.is_sat and trace.source == "S1"
        assert [it.kind for it in trace.iterations] == ["error", "assignment"]
        assert "HTTPError" in trace.iterations[0].error
        second_prompt = _ChatHandler.seen[1]["body"]["messages"][0]["content"]
        assert "Incorrect Coloring Submitted" not in second_prompt

    def test_a_reply_with_no_pairs_is_fed_back(self, chat_server, triangle):
        prose = "I think vertex A should be red."
        _ChatHandler.script = [(200, prose), (200, "(A 1)\n(B 2)\n(C 3)")]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server)
        outcome, trace = solve_sofai_v2(triangle, 3, OrchestratorConfig(proposer=cfg, time_limit=30.0))
        assert outcome.is_sat and trace.source == "S1"
        assert [it.kind for it in trace.iterations] == ["unparseable", "assignment"]
        second_prompt = _ChatHandler.seen[1]["body"]["messages"][0]["content"]
        assert f"Incorrect Coloring Submitted:\n{prose}\n\nFeedback Provided:\n{UNPARSEABLE_MESSAGE}" in second_prompt

    @pytest.mark.parametrize("label", ["a b", " a", ""])
    def test_a_label_no_reply_can_name_sends_no_request(self, chat_server, label):
        # Graph refuses it, naming the first such label, before any prompt exists
        with pytest.raises(ValueError, match=re.escape(f"vertex label {label!r} is not one DIMACS token")):
            Graph(("A", label, "z)"), (("A", label),))
        assert _ChatHandler.seen == []

    def test_a_label_with_balanced_parentheses_still_gets_a_request(self, chat_server):
        graph = Graph(("v(1)", "B"), (("v(1)", "B"),))
        _ChatHandler.script = [(200, "(v(1) 1)\n(B 2)")]
        resp = RemoteProposer(ProposerConfig(kind="remote", endpoint=chat_server)).propose(render_prompt(graph, 2))
        assert resp.assignment == {"v(1)": 1, "B": 2}
        assert len(_ChatHandler.seen) == 1

    def test_not_solvable_reply(self, chat_server, triangle):
        _ChatHandler.script = [(200, "NOT SOLVABLE")]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server)
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3))
        assert resp.is_not_solvable

    @pytest.mark.parametrize(
        "body, error",
        [
            (b"[]", "TypeError"),
            (b'{"choices": null}', "TypeError"),
            (b'{"choices": [{"message": null}]}', "TypeError"),
            (b'"text"', "TypeError"),
            (b'{"choices": [{"message": {"content": ["(A 1)"]}}]}', "ValueError: message content is not text"),
        ],
        ids=["list", "null-choices", "null-message", "string", "list-content"],
    )
    def test_wrong_json_shape_is_an_error(self, chat_server, triangle, body, error, no_retries):
        _ChatHandler.script = [(200, body)]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server)
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3))
        assert resp.kind == "error"
        assert resp.error.startswith(error)

    def test_wrong_json_shape_round_is_survivable(self, chat_server, triangle, no_retries):
        _ChatHandler.script = [(200, b"[]"), (200, "(A 1)\n(B 2)\n(C 3)")]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server)
        outcome, trace = solve_sofai_v2(triangle, 3, OrchestratorConfig(proposer=cfg, time_limit=30.0))
        assert outcome.is_sat and trace.source == "S1"
        assert [it.kind for it in trace.iterations] == ["error", "assignment"]
        assert trace.iterations[0].error.startswith("TypeError")


class TestFormatAssignment:
    def test_orders_by_vertex_list(self):
        text = format_assignment({"B": 2, "A": 1}, ("A", "B"))
        assert text == "(A 1)\n(B 2)"

    def test_skips_unassigned(self):
        assert format_assignment({"A": 1}, ("A", "B")) == "(A 1)"
