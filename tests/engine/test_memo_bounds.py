"""A long-lived checker stays bounded: no process-wide memo on the check
path grows with the number of distinct projects it has checked.

Every project here is fresh: its operation names carry a tag of its own
(``step3`` becomes ``step_p7_3``), the way the benchmark's serve
workload makes its cold jobs, so a memo keyed by method bodies, claim
formulas or class digests would gain entries on each one.  The projects
go through ``verify_path`` with an on-disk cache, as a ``repro serve``
job does.  Then every ``functools.lru_cache`` bound in a loaded
``repro`` module is inspected: an unbounded one must not have grown,
and a bounded one must sit at or under its bound.  The verdict cache's
memory tier and the negated-claim memo, lowered here so the run
overflows them, must stay at or under their bounds too.

The project count scales with ``REPRO_FUZZ_MULTIPLIER`` (the nightly
workflow sets it to 20).
"""

import os
import re
import sys
from collections import OrderedDict

from repro.engine import cache as cache_module
from repro.engine.engine import open_cache, verify_path
from repro.lang.inference import exit_behaviors
from repro.ltlf import translate
from repro.workloads.hierarchy import HierarchyShape, lifecycle_claim, project_files

_MULTIPLIER = max(1, int(os.environ.get("REPRO_FUZZ_MULTIPLIER", "1")))
PROJECTS = 12 * _MULTIPLIER

#: Operation names of the hierarchy generator (``step3``, ``run0``).
_OPERATION = re.compile(r"\b(step|run)(\d+)\b")


def fresh_project(index, root):
    """A generated two-pair project whose operation names are its own;
    every third one plants a usage bug."""
    shape = HierarchyShape(
        base_operations=3 + index % 3,
        subsystems=1 + index % 2,
        composite_operations=1 + index % 3,
        seed=index,
    )
    written = project_files(
        shape, 2, root, correct=index % 3 != 0, claim=lifecycle_claim(shape)
    )
    for path in written:
        text = path.read_text(encoding="utf-8")
        path.write_text(_OPERATION.sub(rf"\1_p{index}_\2", text), encoding="utf-8")
    return root


def lru_memos():
    """``{qualified name: wrapper}`` of every ``lru_cache`` bound at the
    top level of a loaded ``repro`` module."""
    memos = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_parameters", None)):
                memos[f"{value.__module__}.{value.__qualname__}"] = value
    return memos


def test_no_memo_on_the_check_path_grows(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "MEMORY_TIER_SIZE", 8)
    monkeypatch.setattr(translate, "NEGATION_MEMO_SIZE", 4)
    monkeypatch.setattr(translate, "_negations", OrderedDict())
    cache = open_cache(tmp_path / "cache")
    # One project first, so every module the check path imports is loaded.
    verify_path(str(fresh_project(PROJECTS, tmp_path / "warm")), cache=cache)
    before = {name: memo.cache_info().currsize for name, memo in lru_memos().items()}
    inferred = exit_behaviors.cache_info().misses

    for index in range(PROJECTS):
        root = fresh_project(index, tmp_path / f"project{index}")
        batch = verify_path(str(root), cache=cache)
        assert len(batch.class_results) == 4
        assert batch.merged().ok is (index % 3 != 0)

    # The fresh bodies did reach inference: at least one miss per project.
    assert exit_behaviors.cache_info().misses >= inferred + PROJECTS
    for name, memo in lru_memos().items():
        size = memo.cache_info().currsize
        bound = memo.cache_parameters()["maxsize"]
        if bound is None:
            assert size == before.get(name, 0), f"unbounded memo {name} grew"
        else:
            assert size <= bound, f"{name} holds {size} > {bound}"
    assert cache.stats.writes > cache_module.MEMORY_TIER_SIZE
    assert len(cache._memory) <= cache_module.MEMORY_TIER_SIZE
    assert len(translate._negations) <= translate.NEGATION_MEMO_SIZE
