"""Probabilistic assumption-based reasoning for propositional knowledge bases.

Knowledge is a set of clauses over propositions and probability-weighted
assumptions. The package derives the minimal assumption terms that prove a
hypothesis (quasi-supports) or the inconsistency (contradictions), and
turns them into exact degrees of support by conditioning on consistency.

This module re-exports the library entry points; everything else is
imported from the submodules (`pabr.logic`, `pabr.consequence`,
`pabr.support`, `pabr.probability`, `pabr.oracle`, `pabr.kbfile`,
`pabr.errors`).
"""

from .consequence import parse_snapshot
from .errors import PabrError
from .kbfile import build_kb, parse_kb_file, parse_kb_text
from .logic import Clause, Literal, parse_formula
from .probability import evaluate
from .support import compiled_mqs, minimal_quasi_supports

__version__ = "0.1.0"
