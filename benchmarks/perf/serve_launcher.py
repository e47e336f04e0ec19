"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Usage::

    python serve_launcher.py SPANS.json [--keep-spans] serve --port 0 ...

Installs :mod:`layers` in this process, runs ``repro.cli.main`` with the
remaining arguments and, once the daemon has drained and returned,
writes the recorder's per-request folds (and, with ``--keep-spans``,
every span) to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import layers


def main(argv: list[str]) -> int:
    dump_path, *rest = argv
    keep = rest[:1] == ["--keep-spans"]
    if keep:
        rest = rest[1:]
    recorder = layers.Recorder(keep=keep)
    layers.install(recorder)
    from repro.cli import main as repro_main

    code = repro_main(rest)
    Path(dump_path).write_text(json.dumps(recorder.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
