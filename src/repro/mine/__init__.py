"""Passive model mining: learn lifecycle automata from monitored runs.

The pipeline inverts the static extractor: instead of deriving the
automaton from annotations, it observes monitored executions
(:mod:`repro.runtime`), folds the recorded traces into a prefix-tree
acceptor, generalizes with evidence-gated RPNI merges, and diffs the
mined machine against the statically extracted one via the bitset
kernel's inclusion search.  See docs/mining.md.
"""

import importlib

#: Each public name by the module that defines it.  A name is imported on
#: first use, so the CLI reads :mod:`repro.mine.config` (``repro mine``'s
#: flags) without loading the miner into every command.
_EXPORTS = {
    "repro.mine.api": (
        "ClassMineResult", "MineError", "MineReport", "load_implementations",
        "mine_path", "mine_source",
    ),
    "repro.mine.config": ("CollectConfig",),
    "repro.mine.collect": (
        "CollectError", "collect_corpus", "random_lifecycles", "transition_coverage",
    ),
    "repro.mine.corpus": (
        "KIND_COVER", "KIND_RANDOM", "KIND_REPLAY", "StepEvidence", "TraceCorpus",
        "TraceSample",
    ),
    "repro.mine.diff": ("DiffResult", "diff_mined", "static_bitdfa"),
    "repro.mine.learn": ("MinedModel", "MineStats", "learn", "mine_corpus"),
    "repro.mine.pta": ("PrefixTreeAcceptor", "PTANode"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
