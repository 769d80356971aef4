"""Exact mod-p graded algebra with degree windows and stable module theory.

The package computes window-certified answers: every check reports, per
degree, whether it passed, failed with a witness, or could not be decided
inside the degree window.
"""

__version__ = "0.1.0"
