"""Config settings that carry their command-line flag.

A config dataclass declares each setting once with :func:`option`: the
default on the field, and the flag, metavar and help that set it from
the command line in the field's metadata.  ``repro``'s parser adds the
flags in field order and builds the config from the parsed arguments
(``repro.cli``), so no default is written twice.
"""

from __future__ import annotations

from dataclasses import field
from typing import Any


def option(
    default: Any,
    flag: str,
    help: str | None = None,
    *,
    metavar: str | None = None,
    unset: str | None = None,
) -> Any:
    """A dataclass field that ``flag`` sets; the flag's dest is its name.

    ``help`` leaves the default out: the parser appends "(default: X)",
    where X words a ``None`` default as ``unset``.  A field without
    ``help`` is set by one of the engine flags, which ``repro.cli``
    declares once for every command that shares it.
    """
    return field(
        default=default,
        metadata={"flag": flag, "help": help, "metavar": metavar, "unset": unset},
    )
