"""Command line front end.

    pabr compile <kb> [-o SNAP] [--pi]
    pabr query   <kb> -q "<formula>" [--method M] [--l N] [--snapshot SNAP]
    pabr check   <kb>

Exit codes: 0 success (check: consistent); `check` also returns 1 when it
finds contradicting assumption sets and 3 when the knowledge is
inconsistent without any. The commands catch nothing: `main` alone maps a
failure to its exit code through `_EXIT_CODES` and prints `error:
<message>` on stderr. 1 an enumeration limit or work budget was hit, 3
total inconsistency, 4 bounds precondition violated, 2 any other package
error (a parse error, a snapshot whose fingerprint line is missing or does
not match, snapshot contents no query can read) or a file that cannot be
read, decoded or written.
Query formulas may nest to any depth.
Query output is a single JSON object, byte-identical across runs for
identical inputs; probabilities carry 12 significant digits. Terms print
from their masks through the alphabet's `text_of_bit`, literals and terms
in canonical order (`logic.canonical`).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import consequence, kbfile, oracle, probability, support
from .errors import (
    BoundsPreconditionError,
    EnumerationLimitError,
    PabrError,
    TotalInconsistencyError,
)
from .logic import bits, parse_formula

_METHODS = {
    "auto": probability.AUTO,
    "incexc": probability.INCLUSION_EXCLUSION,
    "sdp": probability.DISJOINT_PRODUCTS,
    "bounds": probability.BOUNDS,
    "oracle": "oracle",
}

# The exit code of a failure that reaches `main`: the first row whose
# exception class matches. The last row lists everything `main` catches.
_EXIT_CODES = (
    (EnumerationLimitError, 1),
    (TotalInconsistencyError, 3),
    (BoundsPreconditionError, 4),
    ((PabrError, OSError, UnicodeDecodeError), 2),
)


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _terms_json(masks, text_of_bit: dict[int, str]) -> list[list[str]]:
    """Term texts by literal, both in canonical order, read off the term masks.

    Each term's bits are listed once: lists of ascending powers of two
    sort in the order `logic.canonical` gives their masks.
    """
    return [[text_of_bit[b] for b in term] for term in sorted([*bits(m)] for m in masks)]


def _load_state(args, kb) -> consequence.CompiledState:
    """The snapshot with the facts folded onto it as one batch, or without
    one, the knowledge and the facts folded as one batch.

    A snapshot must carry the fingerprint of the knowledge base's
    declarations and `clause` lines and of its own sections.
    """
    if args.snapshot:
        state = consequence.read_snapshot(args.snapshot, kb.alphabet, kb.sigma_k)
        return consequence.fold(state, kb.sigma_f)
    return support.compile_kb(kb)


def cmd_compile(args) -> int:
    kb, _table = kbfile.build_kb(kbfile.parse_kb_file(args.kb))
    state = consequence.compile_clauses(kb.alphabet, kb.sigma_k, with_pi=args.pi)
    if state.is_plainly_inconsistent:
        raise TotalInconsistencyError("knowledge clauses are inconsistent without any assumptions")
    out = args.out or (args.kb + ".snap")
    consequence.write_snapshot(state, out)
    summary = (
        f"compiled {len(kb.sigma_k)} clause(s): "
        f"{len(state.carc_masks)} characteristic clause(s)"
    )
    if state.pi_masks is not None:
        summary += f", {len(state.pi_masks)} prime implicate(s)"
    print(summary)
    print(f"snapshot written to {out}")
    return 0


def cmd_query(args) -> int:
    kb, table = kbfile.build_kb(kbfile.parse_kb_file(args.kb))
    hypothesis = parse_formula(args.query, kb.alphabet)
    state = _load_state(args, kb)
    sets = support.minimal_quasi_supports(kb, hypothesis, state=state)
    method = _METHODS[args.method]
    if method == "oracle":
        probs = oracle.oracle_support(oracle.build_hint(kb), hypothesis)
        report = probability.SupportReport.of_sets(sets, *probs, "oracle")
    else:
        report = probability.evaluate(sets, table, method=method, l=args.l)
    payload = {
        "hypothesis": args.query,
        "mqs": _terms_json(report.sets.mqs_masks, kb.alphabet.text_of_bit),
        "mc": _terms_json(report.sets.mc_masks, kb.alphabet.text_of_bit),
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
    kb, _table = kbfile.build_kb(kbfile.parse_kb_file(args.kb))
    mc = support.minimal_contradictions(kb)
    if any(t.is_empty for t in mc):
        print("inconsistent without any assumptions")
        return 3
    if mc:
        print(f"inconsistent under {len(mc)} minimal assumption set(s):")
        for texts in _terms_json((t.mask for t in mc), kb.alphabet.text_of_bit):
            print("  " + " & ".join(texts))
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
    try:
        return args.func(args)
    except _EXIT_CODES[-1][0] as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(err, cls))


if __name__ == "__main__":
    sys.exit(main())
