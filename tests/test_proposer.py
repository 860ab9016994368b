import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from sofai_gc import (
    Graph,
    MockProposer,
    OrchestratorConfig,
    PromptExample,
    ProposerConfig,
    RemoteProposer,
    make_proposer,
    parse_response,
    render_prompt,
    solve_sofai_v2,
    verdict,
)
from sofai_gc.proposer import format_assignment

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

    def test_unsolvable_example_block(self, fig2_graph):
        example = PromptExample(Graph(("A", "B"), (("A", "B"),)), None)
        text = render_prompt(fig2_graph, 2, examples=[example]).text
        assert "Correct Solution:\nNOT SOLVABLE" in text

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProposerConfig(kind="mock", noise=1.5)
        with pytest.raises(ValueError):
            ProposerConfig(kind="other")
        with pytest.raises(ValueError):
            ProposerConfig(kind="remote")  # endpoint required


class TestFromEnv:
    def test_remote_when_endpoint_set(self):
        cfg = ProposerConfig.from_env(
            {"S1_ENDPOINT": "http://example.test/v1", "S1_API_KEY": "sk-x", "S1_MODEL": "m"}
        )
        assert cfg.kind == "remote"
        assert cfg.endpoint == "http://example.test/v1"
        assert cfg.api_key == "sk-x"
        assert cfg.model == "m"

    def test_mock_when_unset(self):
        assert ProposerConfig.from_env({}).kind == "mock"

    def test_overrides_win(self):
        cfg = ProposerConfig.from_env({}, noise=0.25)
        assert cfg.noise == 0.25

    def test_make_proposer_dispatch(self):
        assert isinstance(make_proposer(ProposerConfig(kind="mock")), MockProposer)
        remote = ProposerConfig(kind="remote", endpoint="http://example.test")
        assert isinstance(make_proposer(remote), RemoteProposer)


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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ChatHandler.script = []
    _ChatHandler.seen = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join()


class TestRemoteProposer:
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
        cfg = ProposerConfig(kind="remote", endpoint=chat_server, retries=2)
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3))
        assert resp.is_assignment
        assert len(_ChatHandler.seen) == 2

    def test_exhausted_retries_reported(self, chat_server, triangle):
        _ChatHandler.script = [(500, ""), (500, ""), (500, "")]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server, retries=2)
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3))
        assert resp.kind == "error"
        assert "HTTPError" in resp.error

    def test_unreachable_endpoint(self, triangle):
        cfg = ProposerConfig(
            kind="remote", endpoint="http://127.0.0.1:1/v1", retries=0, timeout=0.5
        )
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3))
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
        cfg = ProposerConfig(kind="remote", endpoint=chat_server, retries=2)
        start = time.monotonic()
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3), timeout=1.0)
        assert time.monotonic() - start < 1.3
        assert resp.kind == "error"
        assert "Timeout" in resp.error

    def test_backoff_is_clipped_to_the_deadline(self, chat_server, triangle):
        _ChatHandler.script = [(500, ""), (500, ""), (500, "")]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server, retries=2)
        start = time.monotonic()
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3), timeout=0.3)
        assert time.monotonic() - start < 0.45  # the first backoff alone is 0.5 s
        assert "HTTPError" in resp.error
        assert len(_ChatHandler.seen) == 1  # no attempt starts once the time is spent

    def test_transport_error_round_leaves_no_history(self, chat_server, triangle):
        _ChatHandler.script = [(500, ""), (200, "(A 1)\n(B 2)\n(C 3)")]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server, retries=0)
        outcome, trace = solve_sofai_v2(triangle, 3, OrchestratorConfig(proposer=cfg, time_limit=30.0))
        assert outcome.is_sat and trace.source == "S1"
        assert [it.kind for it in trace.iterations] == ["error", "assignment"]
        assert "HTTPError" in trace.iterations[0].error
        second_prompt = _ChatHandler.seen[1]["body"]["messages"][0]["content"]
        assert "Incorrect Coloring Submitted" not in second_prompt

    def test_not_solvable_reply(self, chat_server, triangle):
        _ChatHandler.script = [(200, "NOT SOLVABLE")]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server)
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3))
        assert resp.is_not_solvable

    @pytest.mark.parametrize(
        "body", [b"[]", b'{"choices": null}', b'{"choices": [{"message": null}]}', b'"text"'],
        ids=["list", "null-choices", "null-message", "string"],
    )
    def test_wrong_json_shape_is_an_error(self, chat_server, triangle, body):
        _ChatHandler.script = [(200, body)]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server, retries=0)
        resp = RemoteProposer(cfg).propose(render_prompt(triangle, 3))
        assert resp.kind == "error"
        assert resp.error.startswith("TypeError")

    def test_wrong_json_shape_round_is_survivable(self, chat_server, triangle):
        _ChatHandler.script = [(200, b"[]"), (200, "(A 1)\n(B 2)\n(C 3)")]
        cfg = ProposerConfig(kind="remote", endpoint=chat_server, retries=0)
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
