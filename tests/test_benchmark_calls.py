"""The benchmark's calls into the package, one iteration of each workload.

The benchmark's own tests (``perfbench/bench_checks.py``) start
benchmark processes and stay out of the default test run.  So here each
workload in ``perfbench/workloads.py`` runs set-up, one iteration and
its check in this process, at the smoke-test sizes ``workloads.TINY``:
a change to a signature or a result that the benchmark relies on fails
here, not first in a benchmark run.
"""

import importlib
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    # reanalyze writes its records with ``python -m qndcert``
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"), prepend=os.pathsep)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["acquire", "reanalyze", "mc-validate",
                                  "sweep"])
def test_one_iteration_fails_nothing(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](tmp_path, seed=5,
                                         **workloads.TINY[name])
    workload.setup()
    attempted, failed = workload.check(workload.iterate())
    assert attempted >= 1
    assert failed == 0
