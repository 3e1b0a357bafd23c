"""The benchmark's own tests.

    python3 -m pytest perfbench/bench_checks.py

The file name keeps these tests out of the package's default test run:
they start benchmark processes and take well under a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import qndcert.montecarlo  # noqa: E402
import qndcert.statistics  # noqa: E402
from tracing import Probe, Tracer  # noqa: E402
from workloads import Acquire, McValidate, Reanalyze, Sweep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result, stdout = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        line = (rf"^  {re.escape(metric['name'])} +\S+ "
                rf"+{re.escape(metric['unit'])}\b")
        assert re.search(line, stdout, re.MULTILINE), metric["name"]
    assert re.search(r"^  fail_frac +0 +ratio", stdout, re.MULTILINE)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_sources_fail_without_a_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_changed_record_byte_counts_as_failed(tmp_path):
    workload = Acquire(tmp_path, seed=3, n_shots=500)
    workload.setup()
    assert workload.check(workload.iterate()) == (1, 0)
    result = workload.iterate()
    path = tmp_path / "acquire.with_atoms.csv"
    data = bytearray(path.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    path.write_bytes(bytes(data))
    assert workload.check(result) == (1, 1)


def test_unreadable_record_set_counts_every_command(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    workload = Reanalyze(tmp_path, seed=3, n_shots=50_000)
    workload.setup()
    assert workload.check(workload.iterate()) == (3, 0)
    path = tmp_path / "reanalyze.with_atoms.csv"
    text = path.read_text()
    path.write_text(text[:200] + "x" + text[201:])
    assert workload.check(workload.iterate()) == (3, 3)


def _perturbed(fn, name, factor):
    def wrapper(*args, **kwargs):
        moments = fn(*args, **kwargs)
        values = dict(moments.entries())
        values[name] *= factor
        return qndcert.statistics.MomentSet(
            n_pulses=moments.n_pulses, n_shots=moments.n_shots,
            se=moments.se, **values)
    return wrapper


def test_perturbed_closed_form_counts_as_failed(tmp_path, monkeypatch):
    workload = Sweep(tmp_path, seed=3, n_models=20)
    workload.setup()
    assert workload.check(workload.iterate()) == (20, 0)
    monkeypatch.setattr(qndcert.statistics, "predicted_moments", _perturbed(
        qndcert.statistics.predicted_moments, "var_q", 1.0 + 1e-6))
    assert workload.check(workload.iterate()) == (20, 20)


def test_perturbed_oracle_fails_the_empirical_check(tmp_path, monkeypatch):
    workload = McValidate(tmp_path, seed=3, n_shots=20_000)
    workload.setup()
    assert workload.check(workload.iterate()) == (2, 0)
    monkeypatch.setattr(qndcert.montecarlo, "predicted_moments", _perturbed(
        qndcert.montecarlo.predicted_moments, "var_p", 1.2))
    assert workload.check(workload.iterate()) == (2, 2)


def test_self_time_excludes_children_and_absent_is_reported(monkeypatch):
    module = types.ModuleType("perfbench_fake")

    def inner():
        return sum(range(20000))

    def outer():
        return module.inner() + module.inner()

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "perfbench_fake", module)
    tracer = Tracer((Probe("perfbench_fake", "outer", "cli.command"),
                     Probe("perfbench_fake", "inner", "config.load"),
                     Probe("perfbench_fake", "gone", "report.json")))
    assert tracer.absent == ["perfbench_fake.gone"]
    with tracer.iteration(1):
        module.outer()
    assert module.outer is outer  # originals restored
    spans = {name: (span, parent, end - start)
             for span, parent, _, name, start, end in tracer.spans}
    outer_id, _, outer_ns = spans["cli.command"]
    children = [end - start for _, parent, _, _, start, end in tracer.spans
                if parent == outer_id]
    assert len(children) == 2
    metrics = tracer.layer_metrics()
    assert metrics["cli.calls"] == 1 and metrics["config.calls"] == 2
    assert metrics["cli.self_s"] == pytest.approx(
        (outer_ns - sum(children)) * 1e-9)
    assert metrics["config.load_s"] == pytest.approx(sum(children) * 1e-9)
