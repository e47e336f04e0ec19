"""Mining output pinned across changes: ``tests/golden/mine_reports.json``.

Every input is re-mined (``mine_source(..., diff=True)``) and compared
with the golden: the full :meth:`MineReport.format` text, and per class
the SHA-256 of ``json.dumps(corpus.to_payload(), sort_keys=True)``, so a
corpus that changes by one evidence entry or one RNG draw fails here
even when the report reads the same.

The inputs are generated modules over 3–7 base operations, 1–3
subsystems and 1–3 composite operations (one collection without random
walks, one with a two-sequence cover, one at the default settings), plus
edge sources: undeclared next-method names (``LAMP``), a repeated
operation name (``DOOR``), two exits declaring one list (one monitor
state holding two exit bits), an operation body that crashes and a
return no exit declares.

To re-record after a deliberate change to mining output::

    PYTHONPATH=src python -m tests.mine.test_mine_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.mine.api import mine_source
from repro.mine.config import CollectConfig
from repro.workloads.hierarchy import HierarchyShape, module_source
from tests.mine.test_cli_mine import DOOR, LAMP

GOLDEN = Path(__file__).parent.parent / "golden" / "mine_reports.json"

#: (base operations, subsystems, composite operations, shape seed).
SHAPES = (
    (3, 1, 1, 11),
    (3, 2, 3, 12),
    (4, 1, 2, 13),
    (4, 3, 1, 14),
    (4, 2, 3, 15),
    (5, 2, 2, 16),
    (5, 3, 3, 17),
    (6, 1, 3, 18),
    (6, 2, 1, 19),
    (6, 3, 2, 20),
    (7, 1, 1, 21),
    (7, 3, 2, 22),
)

#: ``start``'s two exits declare the same list, so after ``start`` the
#: monitor's state set holds both exit bits.
TWIN = """\
from repro.frontend.decorators import op_final, op_initial, sys


@sys
class Twin:
    def __init__(self):
        self.turns = 0

    @op_initial
    def start(self):
        self.turns += 1
        if self.turns % 2:
            return ["stop"]
        return ["stop"]

    @op_final
    def stop(self):
        return ["start"]
"""

#: ``fire`` crashes from its third call on (a ``crash in`` note), and
#: ``Drift.go`` is replaced after the class statement by a function
#: whose return no exit declares once ``stop`` ran (a ``spec mismatch``
#: note).
FAULTY = """\
from repro.frontend.decorators import op, op_final, op_initial, sys


@sys
class Flaky:
    def __init__(self):
        self.calls = 0

    @op_initial
    def arm(self):
        return ["fire", "reset"]

    @op
    def fire(self):
        self.calls += 1
        if self.calls > 2:
            int("jammed")
        return ["reset"]

    @op_final
    def reset(self):
        return ["arm"]


@sys
class Drift:
    def __init__(self):
        self.mode = ["stop"]

    @op_initial
    def go(self):
        return ["stop"]

    @op_final
    def stop(self):
        self.mode = ["go", "stop"]
        return ["go"]


def _drifting_go(self):
    return self.mode


Drift.go = _drifting_go
"""


def inputs() -> dict[str, tuple[str, CollectConfig]]:
    """Every golden input by name: ``(source, collect settings)``."""
    cases: dict[str, tuple[str, CollectConfig]] = {}
    for operations, subsystems, composites, seed in SHAPES:
        shape = HierarchyShape(operations, subsystems, composites, seed=seed)
        source = module_source(shape, correct=True)
        name = f"shape-{operations}-{subsystems}-{composites}-{seed}"
        cases[f"{name}/no-random"] = (source, CollectConfig(seed=seed, random_runs=0))
        cases[f"{name}/two-sequences"] = (
            source,
            CollectConfig(seed=seed + 100, max_sequences=2),
        )
        cases[f"{name}/default"] = (source, CollectConfig(seed=seed + 200))
    for name, source in (("lamp", LAMP), ("door", DOOR), ("twin", TWIN), ("faulty", FAULTY)):
        for seed in (0, 7):
            cases[f"{name}/seed-{seed}"] = (source, CollectConfig(seed=seed))
    return cases


INPUTS = inputs()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mine(source: str, config: CollectConfig) -> dict:
    """The golden entry of one input."""
    report = mine_source(source, config=config, diff=True)
    return {
        "report": report.format(),
        "corpora": {
            result.class_name: _digest(
                json.dumps(result.corpus.to_payload(), sort_keys=True)
            )
            for result in report.results
        },
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_names_every_input():
    assert sorted(_golden()) == sorted(INPUTS)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_mining_matches_golden(name):
    source, config = INPUTS[name]
    assert mine(source, config) == _golden()[name]


def test_golden_covers_both_kinds_of_note():
    reports = "\n".join(entry["report"] for entry in _golden().values())
    assert "note: crash in fire" in reports
    assert "note: spec mismatch" in reports
    assert "declares no operation 'dim'" in reports


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {name: mine(*case) for name, case in sorted(INPUTS.items())},
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
