"""The ``repro`` argument parser, pinned against a golden description.

Every subcommand and sub-subcommand of :func:`repro.cli.build_parser`
is described by its actions in declaration order: option strings,
dest, default, choices, type, nargs, required and action class, plus
its mutually exclusive groups.  Help text is deliberately left out, so
rewording ``--help`` never touches the golden; anything a script could
observe (a flag, a default, a choice, an exit on a missing option) does.
The golden holds one action per line, so a deliberate parser change
edits exactly the lines of the flags it changes.
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

GOLDEN = Path(__file__).parent / "golden" / "cli_parser.json"


def _value(value):
    """A JSON-stable rendering of a default or a choice."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def describe(parser: argparse.ArgumentParser, path: str = "repro") -> dict:
    """``{command path: {"actions": [...], "exclusive": [...]}}`` for
    ``parser`` and every parser below it.

    Each parser also renders its ``--help``: argparse %-formats help
    text only then, so a stray ``%`` in a generated help string would
    otherwise fail only when a user asks for help.
    """
    parser.format_help()
    actions = []
    below = {}
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in sorted(action.choices.items()):
                below.update(describe(sub, f"{path} {name}"))
            choices = sorted(choices)
        actions.append(
            {
                "options": list(action.option_strings),
                "dest": action.dest,
                "default": _value(action.default),
                "choices": (
                    None if choices is None else [_value(c) for c in choices]
                ),
                "type": None if action.type is None else action.type.__name__,
                "nargs": action.nargs,
                "required": action.required,
                "action": type(action).__name__,
            }
        )
    exclusive = [
        [option for member in group._group_actions for option in member.option_strings]
        for group in parser._mutually_exclusive_groups
    ]
    return {path: {"actions": actions, "exclusive": exclusive}, **below}


def test_parser_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert describe(build_parser()) == golden

