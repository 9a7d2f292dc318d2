"""Command line front end.

    pabr compile <kb> [-o SNAP] [--pi]
    pabr query   <kb> -q "<formula>" [--method M] [--l N] [--snapshot SNAP]
    pabr check   <kb>

Exit codes: 0 success (check: consistent), 1 check found contradictions or
an enumeration limit or work budget was hit, 2 parse errors,
unreadable/unwritable files, a snapshot compiled from other clauses or
symbol kinds, or a query formula nested too deeply, 3 total inconsistency,
4 bounds precondition violated.
Query output is a single JSON object, byte-identical across runs for
identical inputs; probabilities carry 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import consequence, kbfile, oracle, probability, support
from .errors import (
    BoundsPreconditionError,
    EnumerationLimitError,
    FormulaTooDeepError,
    ParseError,
    StaleSnapshotError,
    TotalInconsistencyError,
)
from .logic import Term, parse_formula

_METHODS = {
    "auto": probability.AUTO,
    "incexc": probability.INCLUSION_EXCLUSION,
    "sdp": probability.DISJOINT_PRODUCTS,
    "bounds": probability.BOUNDS,
    "oracle": "oracle",
}


# Bad input text, files that cannot be opened, decoded or written,
# snapshots that do not belong to the knowledge base, and query formulas
# nested past the recursion limit.
_INPUT_ERRORS = (
    ParseError, OSError, UnicodeDecodeError, StaleSnapshotError, FormulaTooDeepError
)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _term_json(term: Term) -> list[str]:
    return [str(lit) for lit in term.sorted_literals]


def _terms_json(terms) -> list[list[str]]:
    return [_term_json(t) for t in sorted(terms, key=lambda t: t.sort_key)]


def _formula_step(fn, *args, **kwargs):
    """Run a step that recurses once per nesting level of the query formula."""
    try:
        return fn(*args, **kwargs)
    except RecursionError:
        raise FormulaTooDeepError("formula nested too deeply") from None


def _load_state(args, kb) -> consequence.CompiledState:
    """Snapshot if given, else a fresh fold of the stable knowledge.

    A snapshot must have folded the knowledge base's `clause` lines, in any
    order (the fold does not depend on it), under the same symbol kinds:
    its carc is assumption-only and holds, for each assumption s, the seed
    s | -s or a unit or empty clause that subsumes it.
    """
    if args.snapshot:
        state = consequence.read_snapshot(args.snapshot, kb.alphabet)
        narrow = {c.symbols() for c in state.carc if len(c.symbols()) <= 1}
        same_kinds = all(c.is_assumption_only for c in state.carc) and (
            frozenset() in narrow
            or all(frozenset([s]) in narrow for s in kb.alphabet.assumptions)
        )
        if not same_kinds or set(state.processed) != set(kb.sigma_k):
            raise StaleSnapshotError(
                f"snapshot {args.snapshot} was not compiled from the clauses "
                f"and symbol kinds of {args.kb}"
            )
    else:
        state = consequence.compile_clauses(kb.alphabet, kb.sigma_k)
    for clause in kb.sigma_f:
        state = consequence.extend(state, clause)
    return state


def cmd_compile(args) -> int:
    try:
        doc = kbfile.parse_kb_file(args.kb)
        kb, _table = kbfile.build_kb(doc)
    except _INPUT_ERRORS as err:
        return _fail(str(err), 2)
    state = consequence.compile_clauses(kb.alphabet, kb.sigma_k, with_pi=args.pi)
    if state.is_plainly_inconsistent:
        return _fail("knowledge clauses are inconsistent without any assumptions", 3)
    out = args.out or (args.kb + ".snap")
    try:
        consequence.write_snapshot(state, out)
    except OSError as err:
        return _fail(str(err), 2)
    summary = f"compiled {len(kb.sigma_k)} clause(s): {len(state.carc)} characteristic clause(s)"
    if state.pi is not None:
        summary += f", {len(state.pi)} prime implicate(s)"
    print(summary)
    print(f"snapshot written to {out}")
    return 0


def cmd_query(args) -> int:
    try:
        doc = kbfile.parse_kb_file(args.kb)
        kb, table = kbfile.build_kb(doc)
        hypothesis = _formula_step(parse_formula, args.query, kb.alphabet)
        state = _load_state(args, kb)
        sets = _formula_step(support.minimal_quasi_supports, kb, hypothesis, state=state)
    except _INPUT_ERRORS as err:
        return _fail(str(err), 2)
    method = _METHODS[args.method]
    try:
        if method == "oracle":
            model = oracle.build_hint(kb, table)
            qs_prob, contra_prob, sp = oracle.oracle_support(model, hypothesis)
            report = probability.SupportReport(
                hypothesis=hypothesis,
                mqs=sets.mqs,
                mc=sets.mc,
                qs_prob=qs_prob,
                contra_prob=contra_prob,
                support=sp,
                method="oracle",
            )
        else:
            report = probability.evaluate(
                sets, table, method=method, l=args.l, hypothesis=hypothesis
            )
    except TotalInconsistencyError as err:
        return _fail(str(err), 3)
    except BoundsPreconditionError as err:
        return _fail(str(err), 4)
    except EnumerationLimitError as err:
        return _fail(str(err), 1)
    payload = {
        "hypothesis": args.query,
        "mqs": _terms_json(report.mqs),
        "mc": _terms_json(report.mc),
        "qs_prob": _round12(report.qs_prob),
        "contradiction_prob": _round12(report.contra_prob),
        "support": _round12(report.support),
        "method": report.method,
    }
    if report.bounds is not None:
        payload["bounds"] = [_round12(report.bounds[0]), _round12(report.bounds[1])]
    print(json.dumps(payload))
    return 0


def cmd_check(args) -> int:
    try:
        doc = kbfile.parse_kb_file(args.kb)
        kb, _table = kbfile.build_kb(doc)
    except _INPUT_ERRORS as err:
        return _fail(str(err), 2)
    mc = support.minimal_contradictions(kb)
    if any(t.is_empty for t in mc):
        print("inconsistent without any assumptions")
        return 3
    if mc:
        print(f"inconsistent under {len(mc)} minimal assumption set(s):")
        for term in sorted(mc, key=lambda t: t.sort_key):
            print(f"  {term}")
        return 1
    print("consistent")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pabr",
        description="Assumption-based reasoning with probabilities over propositional knowledge bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="fold the stable knowledge into a snapshot file")
    p_compile.add_argument("kb", help="knowledge base file")
    p_compile.add_argument("-o", "--out", help="snapshot path (default: <kb>.snap)")
    p_compile.add_argument("--pi", action="store_true", help="also compile the prime implicates")
    p_compile.set_defaults(func=cmd_compile)

    p_query = sub.add_parser("query", help="degree of support for a hypothesis formula")
    p_query.add_argument("kb", help="knowledge base file")
    p_query.add_argument("-q", "--query", required=True, help="hypothesis formula")
    p_query.add_argument(
        "--method", choices=sorted(_METHODS), default="auto", help="probability method"
    )
    p_query.add_argument("--l", type=int, default=1, help="truncation order for --method bounds")
    p_query.add_argument("--snapshot", help="reuse a compiled snapshot instead of refolding")
    p_query.set_defaults(func=cmd_query)

    p_check = sub.add_parser("check", help="list the minimal contradicting assumption sets")
    p_check.add_argument("kb", help="knowledge base file")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
