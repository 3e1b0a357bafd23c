"""The benchmark's four workloads.

Each workload makes its inputs from the seed in ``setup``, runs one
timed iteration in ``iterate`` and judges that iteration's outputs in
``check``, which returns (operations attempted, operations failed).
Nothing in ``check`` is timed.  The programs are called through module
attributes (``cli.main``, ``dynamics.apply_pulse``, ...) so that the
tracer's wrappers see every call.

Sizes are constructor arguments whose defaults are the measured sizes;
``TINY`` holds the sizes of the benchmark's own smoke tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cpuspeed import interpreter_probe, numpy_probe
from qndcert import (
    cli,
    certification,
    conditioning,
    core,
    dynamics,
    estimation,
    montecarlo,
    statistics,
)
from qndcert.config import load_config
from qndcert.core import AtomicBlock, Layout, OpticalBlock, get_entry
from qndcert.dynamics import ExperimentParams, NoiseModel
from qndcert.errors import QndError
from qndcert.statistics import MomentSet

# The README's example run; the workload seed replaces "seed".
README_CONFIG = {
    "n_pulses": 3,
    "coupling": {"kappa": 1.0},
    "atoms": {"n_atoms": 100},
    "light": {"n_photons": 100},
    "r_a": 0.8,
    "r_l": 0.9,
    "noise": {"33": 2.0, "35": 0.5, "55": 4.0},
}
_TRUE_R_A = 0.8
_R_A_SIGMAS = 5.0

# Acceptance criterion 4's two configurations: ideal, and lossy with noise.
_IDEAL_CONFIG = {
    "n_pulses": 3,
    "coupling": {"kappa": 1.0},
    "atoms": {"n_atoms": 100},
    "light": {"n_photons": 100},
}
_LOSSY_CONFIG = dict(README_CONFIG, coupling={"g_tau": 0.02})

# Acceptance criterion 1's closed-form bound.
_CLOSED_FORM_RTOL = 1e-9


@dataclass(frozen=True)
class CommandResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CommandResult:
    """``qndc <argv>`` in this process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return CommandResult(code, out.getvalue(), err.getvalue())


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=2) + "\n")
    load_config(path)  # a config the program refuses is a set-up error
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report_failure(what: str) -> None:
    print(f"perfbench: {what}", file=sys.stderr)


class Acquire:
    """``qndc simulate`` on the README config: sample, then write CSVs."""

    name = "acquire"
    speed_probe = staticmethod(interpreter_probe)

    def __init__(self, workdir: Path, seed: int, n_shots: int = 50_000):
        self.workdir = workdir
        self.seed = seed
        self.n_shots = n_shots
        self.items_per_iteration = n_shots
        self.digests: dict[str, str] | None = None

    def setup(self) -> None:
        config = dict(README_CONFIG, n_shots=self.n_shots, seed=self.seed)
        self.config_path = _write_config(self.workdir / "acquire.json", config)
        self.prefix = self.workdir / "acquire"
        self.files = {role: self.workdir / f"acquire.{role}"
                      for role in ("with_atoms.csv", "no_atoms.csv",
                                   "meta.json")}

    def iterate(self) -> CommandResult:
        return run_cli(["simulate", "--config", self.config_path,
                        "--out", self.prefix])

    def check(self, result: CommandResult) -> tuple[int, int]:
        """Exit 0 and files byte-identical to the first iteration's; the
        first iteration's must hold one header plus one row per shot."""
        if result.code != 0:
            _report_failure(f"acquire: exit {result.code}: {result.stderr}")
            return 1, 1
        try:
            digests = {role: _sha256(path)
                       for role, path in self.files.items()}
            if self.digests is None:
                for role in ("with_atoms.csv", "no_atoms.csv"):
                    lines = self.files[role].read_bytes().count(b"\n")
                    if lines != self.n_shots + 1:
                        _report_failure(f"acquire: {role} has {lines} lines")
                        return 1, 1
                meta = json.loads(self.files["meta.json"].read_text())
                if (meta.get("n_shots"), meta.get("seed")) != (self.n_shots,
                                                               self.seed):
                    _report_failure(f"acquire: sidecar says {meta}")
                    return 1, 1
                self.digests = digests
        except (OSError, ValueError) as exc:
            _report_failure(f"acquire: {exc}")
            return 1, 1
        if digests != self.digests:
            _report_failure("acquire: records differ from the first iteration")
            return 1, 1
        return 1, 0

    def describe(self) -> dict:
        file_bytes = sum(path.stat().st_size for path in self.files.values()
                         if path.exists())
        return {
            "n_shots": self.n_shots,
            "item": "one shot (both arms)",
            "items_per_iteration": self.items_per_iteration,
            "sha256": self.digests,
            # records of both arms in memory plus the files written
            "working_set_bytes": 2 * self.n_shots * 3 * 8 + file_bytes,
        }


class Reanalyze:
    """``qndc stats``, ``estimate`` and ``certify`` on one record set."""

    name = "reanalyze"
    speed_probe = staticmethod(interpreter_probe)

    def __init__(self, workdir: Path, seed: int, n_shots: int = 50_000):
        self.workdir = workdir
        self.seed = seed
        self.n_shots = n_shots
        self.items_per_iteration = n_shots

    def setup(self) -> None:
        config = dict(README_CONFIG, n_shots=self.n_shots, seed=self.seed)
        self.config_path = _write_config(self.workdir / "reanalyze.json",
                                         config)
        prefix = self.workdir / "reanalyze"
        # A separate process writes the records, so this process's peak
        # memory is that of reading them.
        done = subprocess.run(
            [sys.executable, "-m", "qndcert", "simulate",
             "--config", str(self.config_path), "--out", str(prefix)],
            capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"writing the record set failed: {done.stderr}")
        self.records = [self.workdir / "reanalyze.with_atoms.csv",
                        self.workdir / "reanalyze.no_atoms.csv"]
        self.report = self.workdir / "reanalyze.report.json"
        self.sources = ["--records", self.records[0],
                        "--no-atoms-records", self.records[1]]

    def iterate(self) -> tuple[CommandResult, ...]:
        r_l = str(README_CONFIG["r_l"])
        return (
            run_cli(["stats", *self.sources, "--r-l", r_l]),
            run_cli(["estimate", *self.sources, "--r-l", r_l,
                     "--kappa", "1.0", "--j33", "25"]),
            run_cli(["certify", "--config", self.config_path, *self.sources,
                     "--out", self.report]),
        )

    def check(self, results: tuple[CommandResult, ...]) -> tuple[int, int]:
        """Exit 0 from all three commands, ``certified: yes``, and the
        estimated r_a within five of its standard errors of 0.8."""
        stats, estimate, certify = results
        failed = 0
        for name, result in zip(("stats", "estimate", "certify"), results):
            if result.code != 0:
                _report_failure(f"reanalyze: {name} exit {result.code}: "
                                f"{result.stderr}")
                failed += 1
        if estimate.code == 0:
            match = re.search(r"r_a \(covariance ratio\): (\S+) \+- (\S+)",
                              estimate.stdout)
            if match is None or not (abs(float(match[1]) - _TRUE_R_A)
                                     <= _R_A_SIGMAS * float(match[2])):
                _report_failure(f"reanalyze: r_a off: {estimate.stdout}")
                failed += 1
        if certify.code == 0 and "certified: yes" not in certify.stdout:
            _report_failure(f"reanalyze: not certified: {certify.stdout}")
            failed += 1
        return 3, failed

    def describe(self) -> dict:
        file_bytes = sum(path.stat().st_size for path in self.records)
        return {
            "n_shots": self.n_shots,
            "item": "one shot of the record set",
            "items_per_iteration": self.items_per_iteration,
            # the two CSVs plus the parsed (shot, p, q, r) arrays
            "working_set_bytes": file_bytes + 2 * self.n_shots * 4 * 8,
        }


class McValidate:
    """``montecarlo.empirical_check`` on acceptance criterion 4's configs."""

    name = "mc-validate"
    speed_probe = staticmethod(numpy_probe)

    def __init__(self, workdir: Path, seed: int, n_shots: int = 250_000):
        self.workdir = workdir
        self.seed = seed
        self.n_shots = n_shots
        # one shot per arm per configuration
        self.items_per_iteration = n_shots * 2 * 2

    def setup(self) -> None:
        self.cases = []
        for index, config in enumerate((_IDEAL_CONFIG, _LOSSY_CONFIG)):
            path = _write_config(self.workdir / f"mc-{index}.json", config)
            loaded = load_config(path)
            self.cases.append((loaded.params, loaded.noise,
                               loaded.initial_state(), 2 * self.seed + index))

    def iterate(self) -> list:
        return [montecarlo.empirical_check(params, noise, initial,
                                           self.n_shots, seed)
                for params, noise, initial, seed in self.cases]

    def check(self, checks: list) -> tuple[int, int]:
        """Every sampled moment within ``z_max`` of its closed form."""
        failed = 0
        for check in checks:
            if not check.passed:
                _report_failure(f"mc-validate: max |z| {check.max_abs_z}")
                failed += 1
        return len(checks), failed

    def describe(self) -> dict:
        return {
            "n_shots": self.n_shots,
            "item": "one shot per arm per configuration",
            "items_per_iteration": self.items_per_iteration,
            # one configuration's two arms, sampled then copied into records
            "working_set_bytes": 2 * 2 * self.n_shots * 3 * 8,
        }


def _random_correlated(rng, size: int) -> np.ndarray:
    raw = rng.standard_normal((size, size))
    second = raw @ raw.T
    scale = 1.0 / np.sqrt(np.diag(second))
    return second * np.outer(scale, scale)


def _random_cov(rng, size: int, lo: float, hi: float) -> np.ndarray:
    """PSD matrix with every diagonal entry uniform in [lo, hi]."""
    root = np.sqrt(rng.uniform(lo, hi, size=size))
    return _random_correlated(rng, size) * np.outer(root, root)


@dataclass(frozen=True)
class SweepModel:
    params: ExperimentParams
    noise: NoiseModel
    atomic: AtomicBlock
    optical: OpticalBlock
    j0: float


def random_model(rng, with_noise: bool) -> SweepModel:
    """One model drawn from acceptance criterion 1's ranges."""
    kappa = rng.uniform(0.1, 3.0)
    mean_sx = rng.uniform(20.0, 100.0)
    params = ExperimentParams(g_tau=kappa / mean_sx, mean_sx=mean_sx,
                              mean_jx=rng.uniform(0.0, 100.0),
                              r_a=rng.uniform(0.5, 1.0),
                              r_l=rng.uniform(0.5, 1.0))
    atomic = AtomicBlock(mean_jx=params.mean_jx,
                         cov=_random_cov(rng, 3, 1.0, 100.0))
    optical = OpticalBlock(mean_sx=mean_sx,
                           cov=_random_cov(rng, 9, 1.0, 100.0))
    noise = (NoiseModel(_random_cov(rng, 6, 0.0, 10.0)) if with_noise
             else NoiseModel.zero())
    return SweepModel(params, noise, atomic, optical, rng.uniform(1.0, 100.0))


def with_standard_errors(moments: MomentSet, n_shots: int) -> MomentSet:
    """``moments`` as if sampled from ``n_shots`` Gaussian shots: the
    standard errors ``sample_moments`` would attach, on exact values."""
    values = moments.entries()
    se = {}
    for name, value in values.items():
        a, b = name[-2:] if name.startswith("cov_") else name[-1] * 2
        product = values[f"var_{a}"] * values[f"var_{b}"]
        se[name] = math.sqrt((product + value * value) / (n_shots - 1))
    return MomentSet(n_pulses=moments.n_pulses, n_shots=n_shots, se=se,
                     **values)


@dataclass
class SweepOutcome:
    """What one model produced; ``error`` is set when a call raised an
    exception that is not a typed refusal."""

    initial: object = None
    states: tuple = ()
    predicted: MomentSet | None = None
    conditioned: object = None
    estimates: object = None
    refusal: QndError | None = None
    error: str | None = None


class Sweep:
    """Random three-pulse models through every closed-form layer."""

    name = "sweep"
    speed_probe = staticmethod(interpreter_probe)
    # Standard errors are attached as if each arm had this many shots, so
    # the gated certification and its error propagation run.
    NOMINAL_SHOTS = 1_000_000

    def __init__(self, workdir: Path, seed: int, n_models: int = 100):
        self.workdir = workdir
        self.seed = seed
        self.n_models = n_models
        self.items_per_iteration = n_models
        self.layout = Layout(3)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.models = [random_model(rng, with_noise=index % 4 != 0)
                       for index in range(self.n_models)]

    def _run_model(self, model: SweepModel) -> SweepOutcome:
        out = SweepOutcome()
        try:
            params, noise = model.params, model.noise
            out.initial = core.make_initial_state(model.atomic, model.optical,
                                                  self.layout)
            state, states = out.initial, []
            for pulse in (1, 2, 3):
                state = dynamics.apply_pulse(state, params, noise, pulse)
                states.append(state)
            out.states = tuple(states)
            out.predicted = statistics.predicted_moments(params, noise,
                                                         out.initial)
            reference = statistics.no_atoms_moments(params, out.initial)
            out.conditioned = conditioning.condition_on_component(states[0],
                                                                  "P_y")
            measured = with_standard_errors(out.predicted, self.NOMINAL_SHOTS)
            delta = statistics.delta_stats(
                measured, with_standard_errors(reference, self.NOMINAL_SHOTS),
                params.r_l)
            j33 = get_entry(out.initial, "J_z", "J_z")
            try:
                out.estimates = estimation.invert_three_pulse(
                    delta, measured.var_p, params.kappa, j33)
            except QndError as exc:
                out.refusal = exc
            certification.certify(
                delta, measured.var_p, params.kappa, j33, model.j0,
                var_p_se=measured.se["var_p"])
        except Exception:  # one model's failure must not end the run
            out.error = traceback.format_exc()
        return out

    def iterate(self) -> list[SweepOutcome]:
        return [self._run_model(model) for model in self.models]

    def check(self, outcomes: list[SweepOutcome]) -> tuple[int, int]:
        """Closed-form moments and conditional variance match the matrix
        pipeline within criterion 1's bound; a returned inversion recovers
        the true r_a within the same bound."""
        failed = 0
        for index, (model, out) in enumerate(zip(self.models, outcomes)):
            problem = out.error or self._model_problem(model, out)
            if problem:
                if failed == 0:
                    _report_failure(f"sweep: model {index}: {problem}")
                failed += 1
        return len(outcomes), failed

    def _model_problem(self, model: SweepModel, out: SweepOutcome) -> str:
        predicted = out.predicted
        final = out.states[-1]
        meters = final.layout.meter_labels
        names = "pqr"
        for k, row in enumerate(meters):
            for j in range(k + 1):
                name = (f"var_{names[k]}" if j == k
                        else f"cov_{names[j]}{names[k]}")
                matrix = get_entry(final, meters[j], row)
                err = (abs(getattr(predicted, name) - matrix)
                       / max(abs(matrix), 1e-3 * predicted.var_p))
                if err > _CLOSED_FORM_RTOL:
                    return f"{name} closed form off by {err:.3g} relative"
        j33 = get_entry(out.initial, "J_z", "J_z")
        closed = conditioning.conditional_variance_general(
            model.params, model.noise, j33,
            get_entry(out.initial, "P_y", "P_y"))
        direct = get_entry(out.conditioned, "J_z", "J_z")
        if abs(closed - direct) > _CLOSED_FORM_RTOL * max(abs(direct),
                                                          1e-3 * j33):
            return f"conditional variance {closed} vs matrix {direct}"
        if out.estimates is not None:
            r_a = model.params.r_a
            if abs(out.estimates.r_a - r_a) > _CLOSED_FORM_RTOL * r_a:
                return f"inversion gave r_a {out.estimates.r_a}, true {r_a}"
        elif out.refusal is None:
            return "inversion neither returned nor refused"
        return ""

    def describe(self) -> dict:
        # initial state, three propagated states and the conditioned one
        dim = self.layout.dimension
        return {
            "n_models": self.n_models,
            "nominal_shots": self.NOMINAL_SHOTS,
            "item": "one model",
            "items_per_iteration": self.items_per_iteration,
            "working_set_bytes": self.n_models * 5 * (dim + dim * dim) * 8,
        }


WORKLOADS = {cls.name: cls for cls in (Acquire, Reanalyze, McValidate, Sweep)}

# Sizes for the benchmark's own smoke tests.
TINY = {
    "acquire": {"n_shots": 2000},
    "reanalyze": {"n_shots": 50_000},
    "mc-validate": {"n_shots": 20_000},
    "sweep": {"n_models": 40},
}
