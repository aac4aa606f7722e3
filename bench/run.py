"""Benchmark for tautcalc.

    python3 bench/run.py --workload session --seed 1 --seconds 30 --trace 0

Runs whole rounds of a seeded workload (see workloads.py) for about
--seconds seconds in this one process, checks every answer against the
independent references in refs.py, and prints each metric by name with
its unit.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones of
tracing.py, taken from a fixed number of rounds.

Timings are drift-corrected: every block of operations, and every
cold-started cli command, is bracketed by a fixed pure-Python reference
loop, and a time is reported as
raw time * REF_NOMINAL_S / (mean of the two adjacent reference times).
See README.md for the workloads, the metrics and the steadiness runs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

import refs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# The reference loop and its nominal duration on the machine the bounds
# were set on (2-core x86-64 container, Python 3.11.7).  The nominal value
# only scales the reported times; it never changes between commits.
REF_ITERS = 6_000
REF_NOMINAL_S = 0.0035

BLOCK_S = 0.05  # close a timing block once its operations took this long
# untimed preparation at least this long (a cli cold start) gets its
# operation a block of its own, with a reference loop right before it
GAP_S = 0.005
SETUP_REPS = 30
TRACE_ROUNDS = {"session": 3, "oracles": 2, "cli": 1}
# the percentile reported as op_tail_ms: the highest one that keeps at
# least ten samples beyond it at half of today's throughput
TAIL_PERCENTILE = {"session": 99, "oracles": 98, "cli": 80}

# fresh-interpreter set-up: import, then the workload's first small answer
PROBES = {
    "session": "from tautcalc.exprparse import evaluate_integral as f;"
               " f('Delta<3>^4', 3)",
    "oracles": "from tautcalc.staircase import beta; beta(3)",
    "cli": "from tautcalc.cli import main; main(['alpha', '3'])",
}

MODULES = ("charpoly", "surface", "staircase", "polyoracle", "tautring",
           "exprparse", "schubert", "cli")


_REF_KEYS = tuple(f"k{i}" for i in range(4096))
_REF_TABLE = {key: i for i, key in enumerate(_REF_KEYS)}


def reference_loop() -> float:
    """Time a fixed loop of dict lookups, string building and integer gcds.

    These are the operations the program's dict- and Fraction-heavy code
    is made of, so the loop slows down about as much as the program when
    the machine is busy; a pure integer loop slows down less.  It
    allocates only strings and ints, which the garbage collector does not
    track, so it never triggers or feeds the program's collections.
    """
    keys, table, a = _REF_KEYS, _REF_TABLE, 1
    t0 = perf_counter()
    for i in range(REF_ITERS):
        key = keys[(i * 2654435761) & 4095]
        a = (a * (table[key] + 3) + i) % 1000000007
        key += "x"
        gcd(a * 1000003, 987654321987)
    return perf_counter() - t0


class Program:
    """The tautcalc modules, loaded from the checkout's src directory."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.modules = {}
        self.reload()

    def reload(self):
        """Drop every tautcalc module and import afresh: a cold start."""
        for name in [n for n in sys.modules
                     if n == "tautcalc" or n.startswith("tautcalc.")]:
            del sys.modules[name]
        self.modules = {m: importlib.import_module(f"tautcalc.{m}")
                        for m in MODULES}
        if self.tracer is not None:
            self.tracer.install(self.modules)
            self.tracer.new_program_state()

    def __getattr__(self, name):
        try:
            return self.__dict__["modules"][name]
        except KeyError:
            raise AttributeError(name) from None


@dataclass
class RoundResult:
    times: list = field(default_factory=list)  # corrected seconds per op
    raw: list = field(default_factory=list)  # raw seconds per op
    refs: list = field(default_factory=list)  # reference-loop seconds
    kinds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0  # ops that raised, or known faults whose check failed
    errors: list = field(default_factory=list)
    wrong: list = field(default_factory=list)  # answers that failed a check


@dataclass
class _Context:
    program: Program
    vals: dict


def run_round(ops, program, tracer=None) -> RoundResult:
    """Time every op in blocks bracketed by the reference loop, then check."""
    res = RoundResult()
    values = []
    gc.collect()
    prev_ref = reference_loop()
    res.refs.append(prev_ref)
    pending, block = [], 0.0

    def close_block():
        nonlocal prev_ref, pending, block
        ref = reference_loop()
        res.refs.append(ref)
        factor = REF_NOMINAL_S / ((prev_ref + ref) / 2)
        res.times.extend(dt * factor for dt in pending)
        prev_ref, pending, block = ref, [], 0.0

    for op in ops:
        b0 = perf_counter()
        call = op.bind(program)
        gap = perf_counter() - b0 >= GAP_S
        if gap:
            close_block()
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            value, error = call(), None
        except Exception as exc:  # a failing op is counted, not fatal
            value, error = None, exc
        dt = perf_counter() - t0
        res.kinds.append(op.kind)
        if tracer is not None:
            tracer.active = False
        pending.append(dt)
        res.raw.append(dt)
        values.append((value, error))
        block += dt
        if gap or block >= BLOCK_S:
            close_block()
    if pending:
        close_block()

    ctx = _Context(program, {})
    for op, (value, error) in zip(ops, values):
        if op.key is not None and error is None:
            ctx.vals[op.key] = value
    for op, (value, error) in zip(ops, values):
        res.attempted += 1
        if error is not None:
            res.failed += 1
            res.errors.append(f"{op.kind} {op.key}: {error!r}")
            continue
        try:
            ok = bool(op.check(value, ctx))
        except Exception as exc:  # an output the check cannot read is wrong
            ok, error = False, exc
        if ok:
            continue
        if op.fault:
            res.failed += 1
        else:
            res.wrong.append(f"{op.kind} {op.key}: "
                             + (repr(error) if error else "check failed"))
    return res


def make_round(workload: str, seed: int, r: int):
    if workload == "session":
        return workloads.session_round(seed, r)
    if workload == "oracles":
        return workloads.oracles_round(seed, r)
    return workloads.cli_round(seed, r, str(OUT), nsec3_reference())


def measure_setup(workload: str, reps: int) -> list:
    """Drift-corrected seconds from a fresh interpreter to a first answer."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {PROBES[workload]}"
    argv = [sys.executable, "-c", code]
    times = []
    for rep in range(reps + 1):
        before = reference_loop()
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        dt = perf_counter() - t0
        after = reference_loop()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if rep:  # the first one compiles the bytecode cache
            times.append(dt * REF_NOMINAL_S / ((before + after) / 2))
    return times


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def op_median(rounds) -> float:
    """Median over a round's operations of each one's median over the rounds.

    Every round holds the same operations in the same order.  Taking each
    operation's median over the rounds first removes its own jitter, so the
    figure stays put where the middle of a round falls between two
    operations of different cost, as in cli.
    """
    per_op = zip(*(rd.times for rd in rounds))
    return statistics.median(statistics.median(ts) for ts in per_op)


def end_to_end(workload: str, seed: int, seconds: float):
    setup = measure_setup(workload, SETUP_REPS)
    program = Program()
    rounds = []
    start = perf_counter()
    r = 0
    while perf_counter() - start < seconds or not rounds:
        rounds.append(run_round(make_round(workload, seed, r), program))
        r += 1
    wall = perf_counter() - start
    times = [t for rd in rounds for t in rd.times]
    tail = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (statistics.median(len(rd.times) / sum(rd.times)
                                        for rd in rounds), "1/s"),
        "op_p50_ms": (op_median(rounds) * 1e3, "ms"),
        "op_tail_ms": (percentile(times, tail) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    record = {
        "workload": workload, "seed": seed, "rounds": len(rounds),
        "wall_s": wall, "tail_percentile": tail, "setup_s": setup,
        "raw_op_s": sum(t for rd in rounds for t in rd.raw),
        "corrected_op_s": sum(times),
        "ref_s": [t for rd in rounds for t in rd.refs],
        "round_ops_per_s": [len(rd.times) / sum(rd.times) for rd in rounds],
        "raw_round_ops_per_s": [len(rd.raw) / sum(rd.raw) for rd in rounds],
        "rounds_detail": [{"raw": rd.raw, "times": rd.times, "kinds": rd.kinds,
                           "refs": rd.refs} for rd in rounds],
    }
    if workload == "session":
        record["repeated_word_share"] = repeated_word_share(seed, len(rounds))
    return rounds, metrics, record


def repeated_word_share(seed: int, n_rounds: int) -> float:
    """Share of integral ops all of whose words were evaluated before."""
    seen, repeated, total = set(), 0, 0
    for r in range(n_rounds):
        for op in workloads.session_round(seed, r):
            if not op.words:
                continue
            total += 1
            repeated += all(w in seen for w in op.words)
            seen.update(op.words)
    return repeated / total


def traced(workload: str, seed: int):
    """Per-layer metrics over the first TRACE_ROUNDS rounds.

    The same rounds run untraced first, from the same cold program state,
    so that traced / untraced corrected time gives the tracing overhead.
    """
    startup = statistics.median(measure_setup("cli", 3))
    n = TRACE_ROUNDS[workload]
    plain = Program()
    untraced = [run_round(make_round(workload, seed, r), plain)
                for r in range(n)]
    tracer = tracing.Tracer()
    program = Program(tracer)
    rounds = [run_round(make_round(workload, seed, r), program, tracer)
              for r in range(n)]
    overhead = (sum(sum(rd.times) for rd in rounds)
                / sum(sum(rd.times) for rd in untraced))
    values = tracer.metrics(startup, overhead)
    metrics = {name: (values[name], unit) for name, unit in tracing.METRICS}
    tracer.write(str(OUT / f"spans-{workload}-{seed}.json"),
                 {"workload": workload, "seed": seed, "rounds": n})
    return rounds, metrics, {"workload": workload, "seed": seed,
                             "trace_rounds": n, "overhead": overhead}


@lru_cache(maxsize=None)
def nsec3_reference() -> dict:
    with open(BENCH / "nsec3_reference.txt", encoding="utf-8") as handle:
        return refs.parse_poly(handle.read().strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("session", "oracles", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tautcalc" / "__init__.py").is_file():
        print(f"error: no tautcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    refs.self_test()
    OUT.mkdir(exist_ok=True)

    if args.trace:
        rounds, metrics, record = traced(args.workload, args.seed)
    else:
        rounds, metrics, record = end_to_end(args.workload, args.seed,
                                             args.seconds)
    attempted = sum(rd.attempted for rd in rounds)
    failed = sum(rd.failed for rd in rounds)
    wrong = [w for rd in rounds for w in rd.wrong]
    errors = [e for rd in rounds for e in rd.errors]
    record.update(attempted=attempted, failed=failed, wrong=wrong[:20],
                  errors=errors[:20],
                  metrics={k: v for k, (v, _u) in metrics.items()})
    tag = "trace" if args.trace else "run"
    with open(OUT / f"{tag}-{args.workload}-{args.seed}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for line in wrong[:20]:
        print(f"WRONG {line}", file=sys.stderr)
    for line in errors[:20]:
        print(f"ERROR {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}")
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
