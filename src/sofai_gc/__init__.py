"""Graph coloring with a fast proposer, an exact solver, and a metacognitive loop.

The decision problem: given an undirected graph and a color budget k,
find a proper k-coloring or certify that none exists.  A cheap proposer
(a remote language model or a seeded mock) guesses first; a verifier
scores each guess; a metacognitive controller feeds structured errors
back, consults episodic memory, and escalates to an exact
DSATUR-with-backtracking solver when the fast path stalls.
"""

from .graphs import (
    ColorAssignment,
    Conflict,
    DimacsError,
    Graph,
    Verdict,
    parse_dimacs,
    parse_dimacs_instance,
    serialize_dimacs,
    verdict,
)
from .dsatur import DeadlineExceeded, SolveOutcome, chromatic_number, solve_decision
from .generate import (
    Dataset,
    GenSpec,
    InstanceRecord,
    build_dataset,
    gen_erdos_renyi,
    load_dataset,
    write_dataset,
)
from .memory import EpisodicRecord, MemoryRejected, MemoryStore, retrieve_memory, update_memory
from .metacognition import (
    FeedbackItem,
    IterationRecord,
    OrchestratorConfig,
    SolveTrace,
    escalation_rule,
    format_feedback,
    generate_example,
    solve_mc_s1_iN,
    solve_s1,
    solve_sofai_v1,
    solve_sofai_v2,
)
from .proposer import (
    MockProposer,
    Prompt,
    PromptExample,
    ProposerConfig,
    ProposerResponse,
    RemoteProposer,
    make_proposer,
    parse_response,
    render_prompt,
)
from .bench import (
    SOLVERS,
    AggregateRow,
    RunConfig,
    TrialResult,
    aggregate,
    derive_seed,
    report,
    run_benchmark,
)

__version__ = "0.1.0"
