"""Visualization of extracted models (the tool of Figures 1–3).

DOT output in :mod:`repro.viz.dot`, terminal-friendly text twins in
:mod:`repro.viz.ascii_art`.
"""

from repro.viz.ascii_art import dependency_text, spec_text, summary_table
from repro.viz.dot import dependency_diagram, dfa_dot, spec_diagram
from repro.viz.report import render_report

__all__ = [
    "dependency_diagram",
    "dependency_text",
    "dfa_dot",
    "render_report",
    "spec_diagram",
    "spec_text",
    "summary_table",
]
