"""One benchmark run of one workload, in a fresh process (started by run.py).

Set-up (import pabr.cli, generate the first inputs, warm up) is repeated
SETUPS times and its median reported. Then a closed loop with one client
runs the workload's ops in-process through `pabr.cli.main(argv)`, each under
a time and a memory budget, for the given number of seconds, and checks
each op's output against the independent reference as it returns.

With --trace 1 the loop runs for a third of the time untraced, then the
same ops are replayed twice, untraced and with spans around pabr's public
functions in turn; the traced replay reports per-layer self times, counts
and, against the untraced one, its own overhead.

The last stdout line is the result object; the exit code is 1 when any
answer was wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import traceback
from collections import Counter
import dataclasses
from dataclasses import dataclass
from time import perf_counter

import reference
import tracing
import workloads

# Per-op budgets: an op that runs longer, or lifts the process's resident
# memory more than BUDGET_MB above where it started, is stopped and fails.
# A runaway op (the sdp fragment explosion grows ~100 MB/s) hits the memory
# budget well within the time budget, so a run's peak RSS does not depend on
# how fast the machine was; after a stopped op the freed memory is handed
# back to the OS so that the next op starts from the same footprint. Both
# budgets are checked every BUDGET_POLL_S.
BUDGET_S = 1.0
BUDGET_MB = 32
BUDGET_POLL_S = 0.02
SETUPS = 3
# The machine's speed drifts by tens of percent over seconds on shared
# hosts. A fixed pure-Python loop, timed every CALIBRATE_EVERY_S between
# ops, tracks that drift; op times are rescaled to a machine on which the
# loop takes CALIBRATION_NOMINAL_S. pabr never runs inside the loop, so a
# slower pabr still reads slower. Raw medians are printed beside.
CALIBRATE_EVERY_S = 0.05
CALIBRATION_WINDOW = 3
CALIBRATION_NOMINAL_S = 0.0015
# Tail percentile per workload and op kind, fixed so that a faster commit
# (more samples) reports the same percentile: the highest that leaves well
# over ten samples beyond it in a run of the seed code and reads steadily
# across seeds (see README.md).
TAIL_PERCENTILE = {
    "alarm": {"query": 95.0, "compile": 75.0},
    "chain": {"query": 90.0, "compile": 90.0},
    "rand3": {"query": 75.0, "compile": 75.0},
    "diag": {"query": 90.0, "compile": 75.0},
}
END_TO_END_UNITS = {
    "query_ms_p50": "ms", "query_ms_tail": "ms",
    "compile_ms_p50": "ms", "compile_ms_tail": "ms",
    "ops_per_s": "1/s", "ok_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s",
}


def _calibration_loop() -> int:
    table: dict = {}
    acc = 0
    for i in range(1000):
        key = frozenset((i % 13, i % 7 + 20, -(i % 5)))
        table[key] = table.get(key, 0) + 1
        acc += len(sorted(key)) + (i * i) % 11
    return acc


class OverBudget(BaseException):
    """Raised inside the running op when it exceeds a budget."""


def resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


@dataclass
class Record:
    op: workloads.Op | None  # dropped once checked, unless the run replays it
    kind: str
    status: str  # done, timeout, memory, error
    rc: int | None
    latency: float
    stdout: str
    detail: str = ""  # traceback or stderr
    snapshot: str | None = None
    scaled: float = 0.0  # latency rescaled to the nominal machine
    mismatch: str | None = None

    @property
    def failed(self) -> bool:
        return self.status != "done" or self.mismatch is not None

    @property
    def finished(self) -> bool:
        return self.status == "done" and self.rc == 0


class Runner:
    """Runs ops one at a time under the budgets and tracks machine speed.

    Installs itself as the SIGALRM handler; while an op runs, the timer
    fires every BUDGET_POLL_S and the handler stops the op once it is over
    either budget.
    """

    def __init__(self):
        self.samples: list[float] = []  # calibration loop times
        self.last_sample = -math.inf
        self.deadline = math.inf
        self.rss_cap = math.inf
        libc = ctypes.util.find_library("c")
        self.malloc_trim = getattr(ctypes.CDLL(libc), "malloc_trim", None) if libc else None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def calibrate(self) -> None:
        start = perf_counter()
        _calibration_loop()
        self.last_sample = perf_counter()
        self.samples.append(self.last_sample - start)

    def scale(self, window: int = CALIBRATION_WINDOW) -> float:
        """Factor turning a wall time now into nominal-machine time."""
        return CALIBRATION_NOMINAL_S / statistics.median(self.samples[-window:])

    def _on_alarm(self, signum, frame):
        if perf_counter() >= self.deadline:
            raise OverBudget("time")
        if resident_bytes() > self.rss_cap:
            raise OverBudget("memory")

    def run(self, main, op: workloads.Op) -> Record:
        if perf_counter() - self.last_sample >= CALIBRATE_EVERY_S:
            self.calibrate()
        out, err = io.StringIO(), io.StringIO()
        rc, status, detail = None, "done", ""
        self.rss_cap = resident_bytes() + BUDGET_MB * 2**20
        start = perf_counter()
        self.deadline = start + BUDGET_S
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, BUDGET_POLL_S, BUDGET_POLL_S)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(op.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OverBudget as over:
            status = "timeout" if over.args[0] == "time" else "memory"
        except (Exception, SystemExit):
            status, detail = "error", traceback.format_exc()
        latency = perf_counter() - start
        if status != "done":
            gc.collect()
            if self.malloc_trim is not None:
                self.malloc_trim(0)
        record = Record(op, op.kind, status, rc, latency, out.getvalue(), detail or err.getvalue())
        record.scaled = latency * self.scale()
        if op.kind == "compile" and record.finished:
            with open(op.argv[3], encoding="ascii") as fh:
                record.snapshot = fh.read()
        return record


def measure(runner: Runner, checker: "Checker", main, ops, first, seconds: float, keep_ops: bool):
    """Closed loop over whole sessions until `seconds` have passed.

    Each op is checked as soon as it returns, so that the run holds only
    what its metrics need and its memory does not grow with its length.
    Returns (records, wall time minus checking time).
    """
    records = []
    checking = 0.0
    op = first
    start = perf_counter()
    while True:
        if op is None:
            if perf_counter() - start >= seconds:
                return records, perf_counter() - start - checking
            op = next(ops)
            continue
        records.append(runner.run(main, op))
        op = ops.send(records[-1].finished)
        checked = perf_counter()
        checker.settle(records[-1], keep_ops)
        checking += perf_counter() - checked


def setup(runner: Runner, root: str, workload: str, seed: int, k: int):
    """Import pabr afresh, generate the first inputs and warm up."""
    for _ in range(CALIBRATION_WINDOW):
        runner.calibrate()
    start = perf_counter()
    for name in [n for n in sys.modules if n == "pabr" or n.startswith("pabr.")]:
        del sys.modules[name]
    cli = importlib.import_module("pabr.cli")
    workdir = os.path.join(root, ".perfbench_work", f"{workload}-{seed}-{k}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    warm = workloads.alarm_kb(os.path.join(workdir, "warmup.pabr"))
    for argv in (["compile", warm.path], ["query", warm.path, "-q", "burglary"]):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    ops = workloads.WORKLOADS[workload](random.Random(seed), workdir)
    first = next(ops)
    return (perf_counter() - start) * runner.scale(), cli, ops, first, workdir


# --- checking ----------------------------------------------------------------

class Checker:
    """Judges records against reference answers.

    References are cached for the few knowledge bases a session uses.
    """

    def __init__(self):
        self.refs: dict[str, reference.KbReference] = {}

    def ref(self, kb: workloads.Kb) -> reference.KbReference:
        if kb.path not in self.refs:
            if len(self.refs) >= 4:
                self.refs.clear()
            self.refs[kb.path] = reference.KbReference(kb)
        return self.refs[kb.path]

    def settle(self, rec: Record, keep_op: bool) -> None:
        """Record the verdict, then drop the output (and the op) it came from."""
        err = self.mismatch(rec)
        if err:
            rec.mismatch = f"{' '.join(rec.op.argv)}: {err}"
        rec.stdout = ""
        if not (keep_op and rec.kind == "compile" and rec.op.with_pi):
            rec.snapshot = None
        if not keep_op:
            rec.op = None

    def mismatch(self, rec: Record) -> str | None:
        """None when the op answered correctly or ran out of budget."""
        if rec.status in ("timeout", "memory"):
            return None
        if rec.status == "error":
            return "exception: " + rec.detail.strip().splitlines()[-1]
        op = rec.op
        if op.kb.chain_n is not None:
            return self.chain_mismatch(rec)
        ref = self.ref(op.kb)
        if op.kind == "compile":
            want_rc = 3 if ref.clause_mask == 0 else 0
            if rec.rc != want_rc:
                return f"exit code {rec.rc}, expected {want_rc}"
            if want_rc:
                return None
            return self.summary_mismatch(rec) or ref.snapshot(rec.snapshot, op.with_pi)
        want_rc = 3 if ref.is_total_inconsistency() else 0
        if rec.rc != want_rc:
            return f"exit code {rec.rc}, expected {want_rc}: {rec.detail.strip()}"
        if want_rc:
            return None
        return ref.query(json.loads(rec.stdout), ref.u.formula(op.hypothesis))

    def summary_mismatch(self, rec: Record) -> str | None:
        """Check the compile summary line against the snapshot it wrote."""
        sections = reference.parse_sections(rec.snapshot)
        summary = (
            f"compiled {len(sections['processed'])} clause(s): "
            f"{len(sections['carc'])} characteristic clause(s)"
        )
        if "pi" in sections:
            summary += f", {len(sections['pi'])} prime implicate(s)"
        if not rec.stdout.startswith(summary + "\n"):
            return f"summary {rec.stdout.splitlines()[:1]} does not match the snapshot"
        if len(sections["processed"]) != len(rec.op.kb.clauses):
            return "processed section does not list every clause"
        return None

    def chain_mismatch(self, rec: Record) -> str | None:
        op = rec.op
        n = op.kb.chain_n
        if rec.rc != 0:
            return f"exit code {rec.rc}, expected 0"
        if op.kind == "compile":
            if op.with_pi:
                return self.summary_mismatch(rec) or self.ref(op.kb).snapshot(rec.snapshot, True)
            seeds = {frozenset((name, "-" + name)) for name, _ in op.kb.assumptions}
            carc = reference.parse_sections(rec.snapshot)["carc"]
            if {frozenset(c) for c in carc} != seeds or len(carc) != len(seeds):
                return "carc is not exactly the tautology seeds"
            return self.summary_mismatch(rec)
        payload = json.loads(rec.stdout)
        probs = dict(op.kb.assumptions)
        want = reference.chain_support(
            [probs[f"a{i}"] for i in range(1, n + 1)], [probs[f"b{i}"] for i in range(1, n + 1)]
        )
        for key, value in (("qs_prob", want), ("contradiction_prob", 0.0), ("support", want)):
            if abs(payload[key] - value) > reference.TOLERANCE:
                return f"{key} {payload[key]!r} != closed form {value!r}"
        got = {frozenset(t) for t in payload["mqs"]}
        if len(payload["mqs"]) != n + 1 or got != {frozenset(t) for t in reference.chain_mqs(n)}:
            return f"mqs are not the {n + 1} chain quasi-supports"
        if payload["mc"]:
            return "chain has no contradictions"
        return None


# --- metrics -----------------------------------------------------------------

def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail(values, p: float) -> tuple[float, float]:
    """(percentile used, value): p, or the highest below it with 10 samples beyond."""
    for q in (p, 99.0, 95.0, 90.0, 75.0, 50.0):
        if q <= p and len(values) - math.ceil(q / 100.0 * len(values)) >= 10:
            return q, percentile(values, q)
    return 100.0, max(values)


def end_to_end(workload, records, wall, speed, setup_s, lines) -> dict[str, float]:
    metrics = {}
    for kind in ("query", "compile"):
        # A failed op misses every latency limit below the budget.
        lat = [
            (max(r.latency, BUDGET_S) if r.failed else r.scaled) * 1000.0
            for r in records if r.kind == kind
        ]
        q, value = tail(lat, TAIL_PERCENTILE[workload][kind])
        metrics[f"{kind}_ms_p50"] = statistics.median(lat)
        metrics[f"{kind}_ms_tail"] = value
        raw = statistics.median(r.latency for r in records if r.kind == kind) * 1000.0
        lines.append(f"{kind}_ms_tail is p{q:g} of {len(lat)} {kind} ops; raw {kind} p50 {raw:.4g} ms")
    # Run wall time on the nominal machine: an op stopped by the time budget
    # took the budget on any machine; everything else scales.
    between = wall - sum(r.latency for r in records)
    nominal_wall = between * speed + sum(
        r.latency if r.status == "timeout" else r.scaled for r in records
    )
    correct = sum(not r.failed for r in records)
    metrics["ops_per_s"] = correct / nominal_wall
    metrics["ok_ratio"] = correct / len(records)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["setup_s"] = setup_s
    return metrics


def compiled_route_probe(tracer, records) -> list[str]:
    """Time support.compiled_mqs on unit clause hypotheses over each --pi snapshot.

    No command reads the [pi] section yet, so the benchmark calls the
    compiled route itself; its answers are checked like any other.
    """
    pabr = sys.modules["pabr"]
    calls = []
    for rec in records:
        if not (rec.op.with_pi and rec.finished):
            continue
        kb, _ = pabr.build_kb(pabr.parse_kb_file(rec.op.kb.path))
        state = pabr.parse_snapshot(rec.snapshot, kb.alphabet)
        ref = reference.KbReference(dataclasses.replace(rec.op.kb, facts=[]))
        for sym in kb.alphabet.symbols:
            for positive in (True, False):
                clause = pabr.Clause.of(pabr.Literal(sym, positive))
                calls.append((ref, state.pi, clause, (not positive, sym.name)))
    probe = tracer.wrap("probe", lambda pi, clause: pabr.compiled_mqs(pi, clause))
    tracer.install()
    results = [probe(pi, clause) for _, pi, clause, _ in calls]
    tracer.uninstall()
    errors = []
    for (ref, _, _, lit), sets in zip(calls, results):
        payload = {key: [[str(l) for l in t.sorted_literals] for t in terms]
                   for key, terms in (("mqs", sets.mqs), ("mc", sets.mc))}
        err = ref.support_sets(payload, ref.clause_mask, ref.u.clause([lit]))
        if err:
            errors.append(f"compiled_mqs {lit}: {err}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)

    runner = Runner()
    setups = [setup(runner, args.root, args.workload, args.seed, k) for k in range(SETUPS)]
    setup_s = statistics.median(s[0] for s in setups)
    _, cli, ops, first, workdir = setups[-1]
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"pabr was imported from {cli.__file__}, not from {src}")
    for _, _, _, _, old in setups[:-1]:
        shutil.rmtree(old)

    checker = Checker()
    lines: list[str] = []
    seconds = args.seconds / 3 if args.trace else args.seconds
    records, wall = measure(runner, checker, cli.main, ops, first, seconds, keep_ops=bool(args.trace))
    speed = runner.scale(window=len(runner.samples))
    runs = [records]
    mismatches: list[str] = []
    if args.trace:
        # Replay each op twice back to back, untraced and traced, so that
        # both runs see the same machine state and the ratio of their times
        # is the tracing overhead; the order alternates, because a second run
        # finds warmer caches.
        tracer = tracing.Tracer()
        traced_main = tracer.wrap(tracing.ROOT, cli.main)
        untraced, traced = [], []
        for op_id, rec in enumerate(records):
            tracer.op_id = op_id
            for traced_turn in (False, True) if op_id % 2 else (True, False):
                if traced_turn:
                    tracer.install()
                    traced.append(runner.run(traced_main, rec.op))
                    tracer.uninstall()
                else:
                    untraced.append(runner.run(cli.main, rec.op))
        tracer.op_id = -1
        for rec in untraced + traced:
            checker.settle(rec, keep_op=True)
        mismatches += compiled_route_probe(tracer, traced)
        runs += [untraced, traced]

    mismatches += [rec.mismatch for run in runs for rec in run if rec.mismatch]
    failed = sum(rec.failed for run in runs for rec in run)
    attempted = sum(len(run) for run in runs)

    if args.trace:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = statistics.median(
            b.scaled / a.scaled
            for a, b in zip(untraced, traced) if a.status == b.status == "done"
        )
        units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
        units["trace.overhead_ratio"] = "ratio"
        spans = os.path.join(args.root, ".perfbench_work", f"spans-{args.workload}.jsonl")
        tracer.write(spans)
        lines.append(f"{len(tracer.spans)} spans written to {spans}")
    else:
        metrics = end_to_end(args.workload, records, wall, speed, setup_s, lines)
        units = END_TO_END_UNITS
    shutil.rmtree(workdir)

    statuses = Counter(rec.status for run in runs for rec in run)
    lines.append(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed "
                 f"({dict(statuses)}), budget {BUDGET_S:g} s per op, "
                 f"calibration loop median {statistics.median(runner.samples) * 1000:.3f} ms")
    lines += [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    for text in mismatches[:20]:
        lines.append("MISMATCH " + text)
    print("\n".join(lines))
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
