"""Figure 4 — syntax, semantics and behavior inference, via the paper's
worked Examples 1–3.

* Example 1: ``0 ⊢ [a, c, a, c] ∈ loop(*) {a(); if(*) {b(); return} else {c()}}``
* Example 2: ``R ⊢ [a, c, a, b] ∈`` (same program)
* Example 3: ``⟦p⟧ = ((a·((b·∅)+c))*, {(a·((b·∅)+c))*·a·b})`` which our
  canonical constructors print as ``((a . c)*, {(a . c)* . a . b})`` —
  the same language (``b·∅ = ∅``).

Times the derivation checks and the inference.
"""

from repro.lang.builder import paper_example_program
from repro.lang.inference import behavior, infer
from repro.lang.semantics import ONGOING, RETURNED, derivable
from repro.regex.ast import format_regex
from repro.regex.enumerate_words import words_up_to
from repro.lang.semantics import language


def test_examples_1_and_2_derivations(benchmark):
    program = paper_example_program()

    def derive_both():
        example_1 = derivable(ONGOING, ("a", "c", "a", "c"), program)
        example_2 = derivable(RETURNED, ("a", "c", "a", "b"), program)
        # Negative controls: statuses must not be interchangeable.
        wrong_1 = derivable(RETURNED, ("a", "c", "a", "c"), program)
        wrong_2 = derivable(ONGOING, ("a", "c", "a", "b"), program)
        return example_1, example_2, wrong_1, wrong_2

    example_1, example_2, wrong_1, wrong_2 = benchmark(derive_both)
    assert example_1 and example_2
    assert not wrong_1 and not wrong_2
    print("\nExample 1: 0 |- [a,c,a,c] in p  ->", example_1)
    print("Example 2: R |- [a,c,a,b] in p  ->", example_2)


def test_example_3_inference(benchmark):
    program = paper_example_program()

    def run_inference():
        return behavior(program)

    inferred = benchmark(run_inference)
    assert format_regex(inferred.ongoing) == "(a . c)*"
    returned = [format_regex(regex) for _exit, regex in inferred.returned]
    assert returned == ["(a . c)* . a . b"]
    print("\nExample 3: [[p]] = ( (a . c)* , { (a . c)* . a . b } )")
    print(f"           infer(p) = {format_regex(infer(program))}")


def test_inference_matches_semantics_on_example(benchmark):
    """The defining property of Figure 4 on the running example: the
    inferred regex and the trace semantics agree word for word."""
    program = paper_example_program()

    def compare():
        inferred_words = words_up_to(infer(program), 6)
        derived_words = language(program, 6)
        assert inferred_words == derived_words
        return len(inferred_words)

    count = benchmark(compare)
    # eps, ac, acac, acacac (ongoing) + ab, acab, acacab (returned).
    assert count == 7
