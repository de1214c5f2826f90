"""Smoke tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, run.SRC)


def generate(workload, seed, workdir):
    _, _, cli, ops = run.setup_round(workload, seed, str(workdir))
    docs = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as handle:
            docs[name] = handle.read()
    argv = [[a.replace(os.path.relpath(workdir, run.ROOT), "<work>") for a in op.argv]
            for op in ops]
    return cli, ops, argv, docs


def small_ops(ops):
    """Cheap ops of the P(1,1,5) and P(1,1,11) rungs of todd-ladder."""
    return [op for op in ops if op.label.endswith(("P(1,1,5)", "P(1,1,11)"))]


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


@pytest.fixture(autouse=True)
def own_package_modules():
    """Put back the package modules other tests imported: set-up re-imports them."""
    saved = {name: module for name, module in sys.modules.items()
             if name == run.PACKAGE or name.startswith(run.PACKAGE + ".")}
    yield
    run.purge_package()
    sys.modules.update(saved)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    _, _, argv1, docs1 = generate(workload, 7, tmp_path / "a")
    _, _, argv2, docs2 = generate(workload, 7, tmp_path / "b")
    _, _, argv3, docs3 = generate(workload, 8, tmp_path / "c")
    assert argv1 == argv2 and docs1 == docs2
    assert (argv1, docs1) != (argv3, docs3)


def test_traced_reports_match_untraced_and_wrappers_are_removed(tmp_path):
    cli, ops, _, _ = generate("todd-ladder", 3, tmp_path)
    ops = small_ops(ops)
    passes, metrics, clean = run.traced(cli, ops)
    assert clean
    assert tracing.leftover_wrappers() == []
    untraced, traced = passes
    assert all(r.failure is None for r in untraced + traced)
    assert [r.digest for r in untraced] == [r.digest for r in traced]
    assert metrics["ihloop.pairs"][0] > 0
    assert metrics["cyclotomic.todd_factor_calls"][0] > 0


def test_wrappers_bind_every_importer_and_are_restored():
    import multifan.cyclotomic as cyc
    import multifan.polytopes as pol
    import multifan.todd as todd

    original = cyc.todd_factor_series
    mul = cyc.CyclotomicNumber.__dict__["__mul__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (cyc, pol, todd):
            assert getattr(module.todd_factor_series, tracing.WRAPPED) is original
        assert getattr(cyc.CyclotomicNumber.__dict__["__rmul__"], tracing.WRAPPED) is mul
        assert tracing.leftover_wrappers()
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    assert pol.todd_factor_series is todd.todd_factor_series is original
    assert cyc.CyclotomicNumber.__dict__["__mul__"] is mul


def test_injected_wrong_answer_counts_as_failure(tmp_path, monkeypatch):
    cli, ops, _, _ = generate("todd-ladder", 3, tmp_path)
    ops = small_ops(ops)
    wrong_volume = cli.volume
    monkeypatch.setattr(cli, "volume", lambda *a, **k: wrong_volume(*a, **k) + 1)
    records = run.run_pass(cli, ops)
    wrong = [op.label for op, r in zip(ops, records) if r.wrong]
    assert wrong and all(label.startswith("ehrhart") for label in wrong)
    assert all("a_0" in r.failure for r in records if r.wrong)


def test_exception_in_an_op_is_a_failure_not_an_abort(tmp_path, monkeypatch):
    cli, ops, _, _ = generate("todd-ladder", 3, tmp_path)
    ops = small_ops(ops)

    def broken(*args, **kwargs):
        raise AssertionError("injected")

    monkeypatch.setattr(cli, "todd_genus", broken)
    records = run.run_pass(cli, ops)
    failures = [r.failure for op, r in zip(ops, records) if op.argv[0] == "todd"]
    assert failures and all(f.startswith("AssertionError") for f in failures)
    assert all(r.failure is None for op, r in zip(ops, records)
               if op.argv[0] in ("volume", "subdivide-check"))


def test_report_that_changes_between_passes_is_a_failure(tmp_path):
    cli, ops, _, _ = generate("todd-ladder", 3, tmp_path)
    ops = small_ops(ops)
    first = run.run_pass(cli, ops)
    first[0].text += " "
    again = run.run_pass(cli, ops, first)
    assert again[0].wrong and "differs" in again[0].failure
    assert not any(r.wrong for r in again[1:])


def test_run_with_every_op_failing_still_prints_a_result(tmp_path, monkeypatch, capsys):
    cli, ops, _, _ = generate("todd-ladder", 3, tmp_path)
    ops = small_ops(ops)

    def broken(argv):
        raise AssertionError("injected")

    monkeypatch.setattr(cli, "main", broken)
    monkeypatch.setattr(run, "setup_round", lambda *args: (0.01, 0.01, cli, ops))
    assert run.main(["--workload", "todd-ladder", "--seed", "3", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["attempted"] == result["failed"] > 0
    assert result["metrics"]["verified_share"]["value"] == 0


def test_a_layer_name_the_package_lacks_stops_the_traced_run(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "todd", tracing.SPANS["todd"] + ["no_such_function"])
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError, match="no_such_function"):
        tracer.install()
    tracer.uninstall()
    assert tracing.leftover_wrappers() == []


def test_speed_meter_ticks_during_work_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    meter = speed.SpeedMeter()

    def work():
        start = time.perf_counter()
        while time.perf_counter() - start < 10 * speed.TICK_S:
            pass
        return "done"

    result, ticks, factor = meter.measure(work)
    assert result == "done" and ticks > 0 and factor > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
