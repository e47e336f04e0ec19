"""Model metrics: quantitative summaries of extracted models.

Used by the Markdown report and handy when comparing specification
revisions: how big is the automaton, how constrained is the protocol,
how much behavior does the composite actually exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.kernel import determinize_bitset, minimize_bitset
from repro.core.behavior import behavior_nfa
from repro.core.dependency import extract_dependency_graph
from repro.core.spec import ClassSpec
from repro.frontend.model_ast import ParsedClass
from repro.lang.ast import size as program_size


@dataclass(frozen=True)
class ModelMetrics:
    """Quantitative summary of one class's extracted model."""

    class_name: str
    operations: int
    initial_operations: int
    final_operations: int
    exit_points: int
    dependency_arcs: int
    spec_states_minimal: int
    behavior_states_minimal: int
    body_ir_nodes: int
    lifecycles_up_to_6: int
    constrainedness: float
    """Fraction of (state, op) pairs the minimal spec DFA *rejects* —
    1.0 would forbid everything, 0.0 would allow any order."""

    def format(self) -> str:
        lines = [
            f"model metrics for {self.class_name}:",
            f"  operations            {self.operations} "
            f"({self.initial_operations} initial, {self.final_operations} final)",
            f"  exit points           {self.exit_points}",
            f"  dependency arcs       {self.dependency_arcs}",
            f"  spec DFA states       {self.spec_states_minimal} (minimal)",
            f"  behavior DFA states   {self.behavior_states_minimal} (minimal)",
            f"  body IR nodes         {self.body_ir_nodes}",
            f"  lifecycles (len<=6)   {self.lifecycles_up_to_6}",
            f"  constrainedness       {self.constrainedness:.2f}",
        ]
        return "\n".join(lines)


def collect_metrics(
    parsed: ParsedClass, lifecycle_bound: int = 6, tracer=None
) -> ModelMetrics:
    """Compute :class:`ModelMetrics` for one parsed class.

    ``tracer`` (optional) records the minimization work under a
    ``minimize`` phase span — the one pipeline phase ``repro check``
    itself never runs — so ``repro profile --model-metrics`` can show
    where report-generation time goes.
    """
    from repro.obs.tracer import NULL_TRACER

    tracer = tracer or NULL_TRACER
    spec = ClassSpec.of(parsed)
    graph = extract_dependency_graph(parsed)
    with tracer.span("phase", "minimize"):
        spec_minimal = minimize_bitset(
            determinize_bitset(spec.bitnfa()), tracer=tracer
        )
        behavior_minimal = minimize_bitset(
            determinize_bitset(behavior_nfa(parsed)), tracer=tracer
        )

    # Constrainedness over the *live* part of the minimal spec DFA: the
    # fraction of (live state, operation) pairs whose move leads nowhere
    # useful (into the dead sink; a minimal DFA is total, and every one
    # of its states is reachable).
    from repro.testing.paths import shortest_suffixes

    live = set(shortest_suffixes(spec_minimal))
    k = len(spec_minimal.alphabet)
    total_pairs = max(1, len(live) * k)
    allowed_pairs = sum(
        1
        for index, target in enumerate(spec_minimal.delta)
        if index // k in live and target in live
    )
    constrainedness = 1.0 - allowed_pairs / total_pairs

    lifecycles = sum(1 for _ in spec_minimal.accepted_words(lifecycle_bound))
    return ModelMetrics(
        class_name=parsed.name,
        operations=len(parsed.operations),
        initial_operations=len(spec.initial_operations()),
        final_operations=len(spec.final_operations()),
        exit_points=len(graph.exits),
        dependency_arcs=graph.arc_count,
        spec_states_minimal=spec_minimal.n,
        behavior_states_minimal=behavior_minimal.n,
        body_ir_nodes=sum(program_size(op.body) for op in parsed.operations),
        lifecycles_up_to_6=lifecycles,
        constrainedness=constrainedness,
    )
