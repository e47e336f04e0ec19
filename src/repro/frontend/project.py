"""Multi-file projects: parse and merge every module of a directory.

Real controllers split their classes across files (drivers in one,
controllers in another); cross-file composition must still resolve —
``Sector`` in ``controller.py`` may use ``Valve`` from ``drivers.py``.
This module walks a directory, parses every ``*.py`` file, and merges
the results into one :class:`ParsedModule` whose class namespace spans
the project (duplicate class names across files are reported).
"""

from __future__ import annotations

import os
from fnmatch import fnmatch
from pathlib import Path

from repro.frontend.model_ast import (
    FrontendError,
    ParsedClass,
    ParsedModule,
    SubsetViolation,
)
from repro.frontend.parse import parse_file


def project_files(root: str | Path) -> list[Path]:
    """The ``*.py`` files of a project directory, in path order (part by
    part: ``a/b.py`` sorts before ``a.b/c.py``).

    Hidden directories and common non-source trees (``__pycache__``,
    ``.git``, ``venv``-likes) are pruned before the walk enters them,
    and hidden files are skipped.  Only files are listed: a directory
    named ``pkg.py`` is walked, not parsed.  Names match ``*.py`` with
    the platform's case rule, as :meth:`Path.rglob` matches them.
    """
    skipped_directories = {"__pycache__", ".git", ".hg", "venv", ".venv", "node_modules"}
    files = []
    for directory, subdirectories, names in os.walk(root):
        subdirectories[:] = [
            name
            for name in subdirectories
            if not name.startswith(".") and name not in skipped_directories
        ]
        files.extend(
            Path(directory, name)
            for name in names
            if fnmatch(name, "*.py") and not name.startswith(".")
        )
    return sorted(files)


def parse_project(root: str | Path) -> tuple[ParsedModule, list[SubsetViolation]]:
    """Parse every module under ``root`` and merge the ``@sys`` classes.

    Syntax errors in individual files become ``syntax-error`` violations
    rather than aborting the whole project; duplicate class names
    produce a ``duplicate-class`` violation and the *first* definition
    (in path order) wins.
    """
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")
    merged_classes: list[ParsedClass] = []
    seen: dict[str, str] = {}
    violations: list[SubsetViolation] = []
    for path in project_files(root):
        try:
            module, file_violations = parse_file(path)
        except FrontendError as error:
            violations.extend(error.violations)
            continue
        violations.extend(file_violations)
        for parsed in module.classes:
            if parsed.name in seen:
                violations.append(
                    SubsetViolation(
                        code="duplicate-class",
                        message=(
                            f"@sys class {parsed.name} defined in both "
                            f"{seen[parsed.name]} and {path}"
                        ),
                        lineno=parsed.lineno,
                        class_name=parsed.name,
                    )
                )
                continue
            seen[parsed.name] = str(path)
            merged_classes.append(parsed)
    return (
        ParsedModule(classes=tuple(merged_classes), source_name=str(root)),
        violations,
    )


def parse_path(path: str | Path) -> tuple[ParsedModule, list[SubsetViolation]]:
    """Parse a project directory (:func:`parse_project`) or one module
    file (:func:`parse_file`); every command and engine entry point
    loads its target through here."""
    if Path(path).is_dir():
        return parse_project(path)
    return parse_file(path)


def check_project(root: str | Path):
    """Parse and verify a whole project directory."""
    from repro.core.checker import Checker

    module, violations = parse_project(root)
    return Checker(module, violations).check()
