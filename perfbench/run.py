"""The multifan benchmark: closed-loop CLI workloads with answer checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload todd-ladder --seed 1 --seconds 30 --trace 0

One client runs one operation at a time, in process: each operation is a
call to `multifan.cli.main(argv)` on a generated fan document with its
output captured, so every operation loads a fresh `MultiFan`, as a user
of the command does.  A pass runs every op of the workload once; passes
repeat until the next one would end after `--seconds`, and at least three
run, so that every report is compared with its first pass.  Each pass
follows set-up rounds that import the package afresh and generate the
documents again, so the set-up rounds whose median is `setup_s` are
spread over the run as the passes are.

Every time is scaled to reference speed by speed.SpeedMeter: a fixed
loop, run around and during each op and set-up round, measures how fast
the shared host runs at that moment.

With `--trace 1` the run makes one untraced pass and one traced pass over
the same ops (see tracing.py) and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  An op fails when it
raises, exits nonzero, fails a check in its report, disagrees with an
independent answer, or prints a report that differs from its first pass
(or, traced, from the untraced pass).  `correct` is false when one of the
last two happened: a wrong answer that the program did not flag.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from speed import SpeedMeter
from tracing import Tracer, leftover_wrappers
from workloads import GENERATORS, UNVERIFIABLE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "multifan"

MIN_PASSES = 3
# Set-up rounds before a pass repeat until they took this long together.
SETUP_BATCH_S = 0.5
WARM_CONDUCTORS = range(1, 65)
WARM_TERMS = range(1, 17)


class OpRecord:
    """Outcome of one execution of one op."""

    __slots__ = ("seconds", "scaled", "text", "failure", "wrong")

    def __init__(self, seconds, text, failure=None, wrong=False):
        self.seconds = seconds
        self.scaled = None  # seconds at reference speed, set by run_pass
        self.text = text
        self.failure = failure
        self.wrong = wrong

    @property
    def digest(self):
        return None if self.text is None else hashlib.sha256(self.text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# set-up


def purge_package():
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()  # free the last import now, so peak_rss_mb does not follow gc timing


def warm_module_caches(mf):
    """Fill the package's module-level caches, which outlive an op."""
    for n in WARM_CONDUCTORS:
        mf.cyclotomic.cyclotomic_polynomial(n)
    for terms in WARM_TERMS:
        mf.cyclotomic._todd_unit_coeffs(terms)


def setup_round(workload, seed, workdir, meter=None):
    """Import the package afresh, generate the documents, warm caches.

    Returns the time taken, that time at reference speed, the CLI module
    and the ops.
    """
    purge_package()
    meter = meter or SpeedMeter()

    def work():
        start = time.perf_counter()
        mf = importlib.import_module(PACKAGE)
        cli = importlib.import_module(PACKAGE + ".cli")
        ops = GENERATORS[workload](mf, ROOT, workdir, seed)
        warm_module_caches(mf)
        return time.perf_counter() - start, cli, ops

    (seconds, cli, ops), ticks, factor = meter.measure(work)
    seconds -= ticks
    return seconds, seconds * factor, cli, ops


# ---------------------------------------------------------------------------
# running ops


def describe_exception(exc) -> str:
    """Exception type plus the innermost package function it came from."""
    where = "?"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = os.path.abspath(frame.filename)
        if path.startswith(os.path.join(SRC, PACKAGE) + os.sep):
            module = os.path.splitext(os.path.basename(path))[0]
            where = f"{module}.{frame.name}"
    return f"{type(exc).__name__} in {where}"


def run_op(cli, op) -> OpRecord:
    out = io.StringIO()
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as exc:  # the CLI let a traceback through: a failed op
        return OpRecord(time.perf_counter() - start, None, describe_exception(exc))
    except SystemExit as exc:  # argparse rejected the command line
        return OpRecord(time.perf_counter() - start, None, f"SystemExit {exc.code}")
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if code == 2:
        return OpRecord(seconds, text, f"exit 2: {err.getvalue().strip()[:120]}")
    try:
        report = json.loads(text)
    except ValueError:
        return OpRecord(seconds, text, "report is not JSON")
    bad = [c["name"] for c in report.get("checks", []) if not c.get("ok")]
    if code != 0 or bad or not report.get("ok"):
        return OpRecord(seconds, text, f"exit {code}, failed checks: {','.join(bad)}")
    return OpRecord(seconds, text)


def run_pass(cli, ops, first=None) -> list:
    """Run every op once, then apply the answer checks of the pass.

    `first` holds the records of a reference pass; a report that differs
    from its reference is a failure.
    """
    records = []
    meter = SpeedMeter()
    for op in ops:
        rec, ticks, factor = meter.measure(lambda: run_op(cli, op))
        rec.seconds -= ticks
        rec.scaled = rec.seconds * factor
        records.append(rec)
    reports = {i: json.loads(r.text) for i, r in enumerate(records) if r.failure is None}
    for i, (op, rec) in enumerate(zip(ops, records)):
        if rec.failure is not None:
            continue
        for check in op.checks:
            try:
                message = check(reports[i], reports)
            except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
                message = f"report unreadable by the check: {type(exc).__name__} {exc}"
            if message:
                rec.wrong = not message.startswith(UNVERIFIABLE)
                rec.failure = message if not rec.wrong else f"wrong answer: {message}"
                break
        if rec.failure is None and first is not None and rec.digest != first[i].digest:
            rec.failure, rec.wrong = "report differs from the reference pass", True
    return records


def timed_pass(cli, ops, first=None):
    start = time.perf_counter()
    records = run_pass(cli, ops, first)
    return time.perf_counter() - start, records


# ---------------------------------------------------------------------------
# results


def percentile(values, q):
    """q-th percentile (0 < q < 100) by linear interpolation."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def failure_summary(ops, passes):
    kinds = {}
    for records in passes:
        for op, rec in zip(ops, records):
            if rec.failure is not None:
                entry = kinds.setdefault(rec.failure, [0, set()])
                entry[0] += 1
                entry[1].add(op.label)
    return kinds


def print_summary(workload, seed, ops, passes, metrics, samples):
    print(f"workload {workload}, seed {seed}: {len(ops)} ops a pass, {len(passes)} passes")
    for name, (value, unit) in metrics.items():
        extra = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:32s} {value:.6g} {unit}{extra}")
    for kind, (count, labels) in sorted(failure_summary(ops, passes).items()):
        shown = "; ".join(sorted(labels)[:4]) + (" ..." if len(labels) > 4 else "")
        print(f"  failed x{count}: {kind} [{shown}]")


def result_line(correct, passes, metrics):
    records = [r for p in passes for r in p]
    return json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r.failure is not None for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def measure(workload, seed, workdir, seconds):
    """Untraced closed loop: set-up rounds and whole passes, in turn.

    Passes run for about `seconds` seconds; set-up time is not counted in
    them.  Returns the ops, the records of each pass and the time of each
    set-up round at reference speed.
    """
    passes, times, setup_times = [], [], []
    meter = SpeedMeter()
    while True:
        batch_s = 0.0
        while batch_s < SETUP_BATCH_S:
            setup_s, scaled_s, cli, ops = setup_round(workload, seed, workdir, meter)
            setup_times.append(scaled_s)
            batch_s += setup_s
        elapsed, records = timed_pass(cli, ops, passes[0] if passes else None)
        passes.append(records)
        times.append(elapsed)
        if len(passes) >= MIN_PASSES and sum(times) + elapsed > seconds:
            return ops, passes, setup_times


def end_to_end(passes, setup_times):
    """End-to-end metrics, at reference speed.

    An op's time is the median of its times over the passes.  The
    percentiles are taken over these times of the ops verified in every
    pass, and `verified_per_s` is the verified ops of an average pass over
    the sum of these times of all ops.
    """
    records = [r for p in passes for r in p]
    per_op = [statistics.median(r.scaled for r in runs) for runs in zip(*passes)]
    verified_ops = [t for t, runs in zip(per_op, zip(*passes))
                    if all(r.failure is None for r in runs)]
    times = verified_ops or [0.0]  # no op verified in every pass: times read 0
    ok = sum(r.failure is None for r in records)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "verified_per_s": (ok / len(passes) / sum(per_op), "1/s"),
        "report_p50_s": (statistics.median(times), "s"),
        "report_p90_s": (percentile(times, 90), "s"),
        "verified_share": (ok / len(records), "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    over_ops = f"{len(verified_ops)} ops, each the median of {len(passes)} passes"
    wall = sum(statistics.median(r.seconds for r in runs) for runs in zip(*passes))
    samples = {"verified_per_s": f"{ok / len(passes):.1f} ops a pass in {sum(per_op):.2f} s "
                                 f"at reference speed, {wall:.2f} s of wall time",
               "report_p50_s": over_ops, "report_p90_s": over_ops,
               "setup_s": f"median of {len(setup_times)} rounds"}
    return metrics, samples


def traced(cli, ops):
    """One untraced and one traced pass; per-layer metrics of the second.

    The tracing overhead compares the op times of the two passes at
    reference speed.
    """
    base = run_pass(cli, ops)
    tracer = Tracer()
    try:
        tracer.install(PACKAGE)
        again = run_pass(cli, ops, base)
    finally:
        tracer.uninstall()
    leftovers = leftover_wrappers(PACKAGE)
    if leftovers:
        print(f"wrappers left after the traced pass: {leftovers}", file=sys.stderr)
    metrics = tracer.metrics(sum(r.scaled for r in again), sum(r.scaled for r in base))
    return [base, again], metrics, not leftovers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"perfbench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    try:
        if args.trace:
            _, _, cli, ops = setup_round(args.workload, args.seed, workdir)
            passes, metrics, clean = traced(cli, ops)
            samples = {}
        else:
            ops, passes, setup_times = measure(args.workload, args.seed, workdir,
                                               args.seconds)
            metrics, samples = end_to_end(passes, setup_times)
            clean = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    correct = clean and not any(r.wrong for p in passes for r in p)
    print_summary(args.workload, args.seed, ops, passes, metrics, samples)
    print(result_line(correct, passes, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
