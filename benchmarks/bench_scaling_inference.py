"""Ablation — behavior-inference cost vs. program size.

The paper's inference is a single structural pass (Figure 4); this sweep
confirms the implementation scales accordingly on random programs from
tens to thousands of IR nodes.
"""

import random

import pytest

from repro.lang.ast import size as program_size
from repro.lang.generator import random_program_of_size
from repro.lang.inference import behavior

SIZES = [10, 100, 500, 2000]


@pytest.mark.parametrize("target_size", SIZES)
def test_inference_scaling(benchmark, target_size):
    program = random_program_of_size(random.Random(99), target_size)
    actual_size = program_size(program)
    assert actual_size >= target_size

    def run():
        return behavior(program)

    result = benchmark(run)
    assert result is not None
    print(f"\nprogram size {actual_size} nodes -> inference ran")


@pytest.mark.parametrize("target_size", [10, 100, 500])
def test_trace_semantics_scaling(benchmark, target_size):
    """The semantics side (bounded trace enumeration) for comparison —
    exponential in the bound, which is why verification runs on the
    inferred regex instead."""
    from repro.lang.semantics import _traces, traces

    program = random_program_of_size(random.Random(7), target_size)

    def run():
        _traces.cache_clear()
        return traces(program, 3)

    result = benchmark(run)
    assert isinstance(result, frozenset)
