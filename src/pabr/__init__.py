"""Probabilistic assumption-based reasoning for propositional knowledge bases.

Knowledge is a set of clauses over propositions and probability-weighted
assumptions. The package derives the minimal assumption terms that prove a
hypothesis (quasi-supports) or the inconsistency (contradictions), and
turns them into exact degrees of support by conditioning on consistency.
"""

from .consequence import (
    ALL_CLAUSES,
    ASSUMPTION_ONLY,
    CompiledState,
    ProductionField,
    compile_clauses,
    extend,
    parse_snapshot,
    pi_add,
    produce,
    read_snapshot,
    snapshot_text,
    write_snapshot,
)
from .errors import (
    BoundsPreconditionError,
    EnumerationLimitError,
    InconsistentTermError,
    NonAssumptionLiteralError,
    PabrError,
    ParseError,
    PivotError,
    TotalInconsistencyError,
    UndeclaredSymbolError,
)
from .kbfile import KbDocument, build_kb, parse_kb_file, parse_kb_text, serialize_kb
from .logic import (
    ASSUMPTION,
    EMPTY_CLAUSE,
    EMPTY_TERM,
    PROPOSITION,
    Alphabet,
    And,
    Atom,
    Clause,
    Formula,
    Implies,
    Literal,
    Not,
    Or,
    Symbol,
    Term,
    clause_to_formula,
    clause_value,
    formula_value,
    mu_minimize,
    parse_formula,
    resolve,
    resolvents,
    to_cnf,
)
from .oracle import (
    HintModel,
    build_hint,
    oracle_support,
    quasi_supporting_configs,
    term_configs,
)
from .probability import (
    AUTO,
    BOUNDS,
    DISJOINT_PRODUCTS,
    INCLUSION_EXCLUSION,
    AssumptionTable,
    SupportReport,
    bonferroni_bounds,
    degree_of_support,
    disjoint_products,
    evaluate,
    inclusion_exclusion,
    term_prob,
)
from .support import (
    KnowledgeBase,
    SupportSets,
    compile_kb,
    compiled_mqs,
    minimal_contradictions,
    minimal_quasi_supports,
    negate_clauses,
)

__version__ = "0.1.0"
