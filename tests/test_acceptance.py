"""Acceptance gate: the seven release criteria, one verdict line each.

Every test prints exactly one line of the form

    ACCEPTANCE <n> <label>: PASS|FAIL  [detail]

outside pytest's capture, so the verdicts stay visible in quiet runs.
The tests are independent; each builds what it needs from the public
API only.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from qndcert import (
    AtomicBlock,
    ExperimentParams,
    GaussianState,
    Layout,
    NoiseModel,
    OpticalBlock,
    apply_pulse,
    certify,
    closed_form_error,
    conditional_variance_general,
    conditional_variance_ideal,
    delta_stats,
    empirical_check,
    exit_code,
    get_entry,
    invert_three_pulse,
    make_initial_state,
    meter_moments,
    no_atoms_moments,
    predicted_moments,
    params_hash,
    propagate,
    read_records,
    run_selftest,
    simulate_moments,
    write_arms,
)
from qndcert.cli import main
from qndcert.montecarlo import arm_chunks


def _announce(capsys, number, label, word, detail):
    note = detail.get("note")
    extra = f"  [{note}]" if note else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {label}: {word}{extra}")


@contextlib.contextmanager
def _gate(capsys, number, label, detail):
    try:
        yield
    except BaseException:
        _announce(capsys, number, label, "FAIL", detail)
        raise
    _announce(capsys, number, label, "PASS", detail)


def _param_set_a():
    """Lossless, noiseless, kappa = 1, coherent 100-atom / 100-photon blocks."""
    params = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0)
    initial = make_initial_state(AtomicBlock.coherent(100.0),
                                 OpticalBlock.coherent(100.0, 3), Layout(3))
    return params, NoiseModel.zero(), initial


def _param_set_b():
    """Same blocks with r_a = 0.8, r_l = 0.9 and injected pulse noise."""
    params = ExperimentParams(g_tau=0.02, mean_sx=50.0, mean_jx=50.0,
                              r_a=0.8, r_l=0.9)
    noise = NoiseModel.from_entries({(3, 3): 2.0, (3, 5): 0.5, (5, 5): 4.0})
    initial = make_initial_state(AtomicBlock.coherent(100.0),
                                 OpticalBlock.coherent(100.0, 3), Layout(3))
    return params, noise, initial


def _random_correlated(rng, size):
    raw = rng.standard_normal((size, size))
    second = raw @ raw.T
    scale = 1.0 / np.sqrt(np.diag(second))
    return second * np.outer(scale, scale)


def _random_cov(rng, size, lo, hi):
    """PSD matrix with every diagonal entry drawn uniformly in [lo, hi].

    Off-diagonal magnitudes are then bounded by hi automatically.
    """
    diag = rng.uniform(lo, hi, size=size)
    root = np.sqrt(diag)
    return _random_correlated(rng, size) * np.outer(root, root)


def _random_set(rng, with_noise):
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
    noise = NoiseModel(_random_cov(rng, 6, 0.0, 10.0)) if with_noise \
        else NoiseModel.zero()
    initial = make_initial_state(atomic, optical, Layout(3))
    return params, noise, initial, rng.uniform(1.0, 100.0)


def test_criterion_1_closed_form_sweep(capsys):
    detail = {}
    with _gate(capsys, 1, "closed-form equivalence sweep", detail):
        rng = np.random.default_rng(20260819)
        start = time.perf_counter()
        worst = 0.0
        for index in range(1000):
            model = _random_set(rng, with_noise=index % 4 != 0)
            worst = max(worst, closed_form_error(*model))
        elapsed = time.perf_counter() - start
        detail["note"] = (f"1000 sets, max rel err {worst:.2e}, "
                          f"{elapsed:.2f} s")
        assert worst <= 1e-9
        assert elapsed < 10.0


def test_criterion_2_ideal_exact_values(capsys):
    detail = {}
    with _gate(capsys, 2, "ideal-case exact values", detail):
        params, noise, initial = _param_set_a()
        predicted = predicted_moments(params, noise, initial)
        delta = delta_stats(predicted, no_atoms_moments(params, initial),
                            params.r_l)
        report = certify(delta, predicted.var_p, 1.0, 25.0, 25.0)
        figures, ncl = report.figures, report.nonclassical
        checks = {
            "cond_ideal": (conditional_variance_ideal(25.0, 25.0, 1.0), 12.5),
            "cond_general": (
                conditional_variance_general(params, noise, 25.0, 25.0), 12.5),
            "cond_measured": (report.estimates.cond_var_jz, 12.5),
            "c2_in_out": (figures.c2_in_out, 1.0),
            "dx2_s": (ncl.dx2_s, 0.0),
            "dx2_m": (ncl.dx2_m, 1.0),
            "dx2_s_given_m": (ncl.dx2_s_given_m, 0.5),
        }
        worst = max(abs(got - want) for got, want in checks.values())
        verdict = report.squeezing
        detail["note"] = (f"{len(checks)} quantities, max abs err "
                          f"{worst:.2e}, squeezing margin {verdict.margin:g}")
        assert worst <= 1e-12
        assert verdict.squeezed is True


def test_criterion_3_inversion_round_trip(capsys):
    detail = {}
    with _gate(capsys, 3, "three-pulse inversion round trip", detail):
        params, noise, initial = _param_set_b()
        predicted = predicted_moments(params, noise, initial)
        delta = delta_stats(predicted, no_atoms_moments(params, initial),
                            params.r_l)

        # calibrate kappa from a deliberately displaced input spin:
        # <P_y> = kappa <J_z>
        mean = initial.mean.copy()
        mean[initial.layout.index("J_z")] = 2.5
        displaced = GaussianState(initial.layout, mean, initial.cov.copy())
        after = apply_pulse(displaced, params, noise, 1)
        kappa = after.mean[initial.layout.index("P_y")] / 2.5

        estimates = invert_three_pulse(delta, predicted.var_p, kappa, 25.0)
        recovered = {
            "kappa": (kappa, 1.0),
            "r_a": (estimates.r_a, 0.8),
            "n33": (estimates.noise.n33, 2.0),
            "n35": (estimates.noise.n35, 0.5),
            "n55": (estimates.noise.n55, 4.0),
        }
        worst = max(abs(got - want) / abs(want)
                    for got, want in recovered.values())
        detail["note"] = f"5 parameters, max rel err {worst:.2e}"
        assert worst <= 1e-9
        # the independent variance route agrees on the analytic data
        assert estimates.r_a_from_var == pytest.approx(0.8, rel=1e-9)


def test_criterion_4_monte_carlo_agreement(capsys):
    detail = {}
    with _gate(capsys, 4, "Monte Carlo oracle agreement", detail):
        start = time.perf_counter()
        worst_z = 0.0
        for seed, build in ((2026, _param_set_a), (2027, _param_set_b)):
            params, noise, initial = build()
            check = empirical_check(params, noise, initial, 1_000_000, seed)
            worst_z = max(worst_z, check.max_abs_z)
            assert check.passed, f"seed {seed}: max |z| = {check.max_abs_z}"

        # error of the sampled var(P_y) against its analytic value,
        # averaged over independent runs, one decade at a time
        params, noise, initial = _param_set_a()
        truth = predicted_moments(params, noise, initial).var_p
        sizes = (1_000, 10_000, 100_000, 1_000_000)
        errors = np.zeros((24, len(sizes)))
        column = np.empty(sizes[-1])
        for run in range(errors.shape[0]):
            filled = 0
            for chunk in arm_chunks(params, noise, initial, sizes[-1],
                                    seed=41_000 + run):
                column[filled:filled + len(chunk)] = chunk[:, 0]
                filled += len(chunk)
            for j, n in enumerate(sizes):
                errors[run, j] = abs(np.var(column[:n], ddof=1) - truth)
        slope = np.polyfit(np.log10(sizes),
                           np.log10(errors.mean(axis=0)), 1)[0]
        elapsed = time.perf_counter() - start
        detail["note"] = (f"max |z| = {worst_z:.2f} at 1e6 shots, "
                          f"convergence slope {slope:.3f}, {elapsed:.1f} s")
        assert -0.6 <= slope <= -0.4
        assert elapsed < 60.0


def test_criterion_5_end_to_end_certification(capsys, tmp_path):
    detail = {}
    with _gate(capsys, 5, "end-to-end certification", detail):
        def run(name, config):
            directory = tmp_path / name
            directory.mkdir()
            path = directory / "cfg.json"
            path.write_text(json.dumps(config))
            prefix = directory / "run"
            assert main(["simulate", "--config", str(path),
                         "--out", str(prefix)]) == 0
            report_path = directory / "report.json"
            code = main(["certify", "--config", str(path),
                         "--records", str(directory / "run.with_atoms.csv"),
                         "--no-atoms-records",
                         str(directory / "run.no_atoms.csv"),
                         "--out", str(report_path)])
            return code, json.loads(report_path.read_text())

        base = {
            "n_pulses": 3,
            "coupling": {"kappa": 1.0},
            "atoms": {"n_atoms": 100.0},
            "light": {"n_photons": 100.0},
            "n_shots": 100_000,
            "seed": 11,
        }
        code, report = run("ideal", base)
        assert code == 0
        verdicts = report["verdicts"]
        assert verdicts["state_prep"] is True
        assert verdicts["info_damage"] is True
        assert verdicts["full_qnd"] is True

        # spin-readout signal replaced by pure injected damage: the
        # cross-pulse covariance vanishes while var(Q_y) blows up
        damage = dict(base, coupling={"g_tau": 0.001},
                      noise={"33": 400.0}, seed=12)
        damage_code, damage_report = run("damage", damage)
        assert damage_code != 0
        assert damage_report["verdicts"]["state_prep"] is False
        detail["note"] = (f"ideal exit 0, all verdicts true; "
                          f"pure damage exit {damage_code}, state_prep false")


def _figure_bundle(params, noise, initial, j33, j0):
    predicted = predicted_moments(params, noise, initial)
    delta = delta_stats(predicted, no_atoms_moments(params, initial),
                        params.r_l)
    report = certify(delta, predicted.var_p, abs(params.kappa), j33, j0)
    figures = report.figures
    values = dict(predicted.entries())
    values["cond"] = report.estimates.cond_var_jz
    for name in ("c2_in_meter", "c2_in_out", "c2_out_meter"):
        values[name] = getattr(figures, name)
    ncl = report.nonclassical
    for name in ("dx2_s_given_m", "dx2_m", "dx2_s", "product_sm"):
        values[name] = getattr(ncl, name)
    values["squeezing_margin"] = report.squeezing.margin
    flags = (report.verdict_state_prep, report.verdict_info_damage,
             report.verdict_full_qnd, report.squeezing.squeezed,
             exit_code(report))
    return values, flags


def test_criterion_6_coupling_sign_insensitivity(capsys):
    detail = {}
    with _gate(capsys, 6, "coupling sign insensitivity", detail):
        diagonal_noise = NoiseModel.from_entries({(3, 3): 2.0, (5, 5): 4.0})
        worst = 0.0
        for build, noise_override in ((_param_set_a, None),
                                      (_param_set_b, diagonal_noise)):
            params, noise, initial = build()
            if noise_override is not None:
                noise = noise_override
            j33 = get_entry(initial, "J_z", "J_z")

            mirrored = ExperimentParams(
                g_tau=-params.g_tau, mean_sx=params.mean_sx,
                mean_jx=params.mean_jx, r_a=params.r_a, r_l=params.r_l)

            # the propagated matrices themselves
            forward = meter_moments(propagate(params, noise, initial))
            flipped = meter_moments(propagate(mirrored, noise, initial))
            for name, value in forward.entries().items():
                worst = max(worst, abs(value - getattr(flipped, name))
                            / max(1.0, abs(value)))

            # every closed-form quantity and every verdict
            values, flags = _figure_bundle(params, noise, initial, j33, 25.0)
            values_m, flags_m = _figure_bundle(mirrored, noise, initial,
                                               j33, 25.0)
            assert flags == flags_m
            for name, value in values.items():
                worst = max(worst, abs(value - values_m[name])
                            / max(1.0, abs(value)))
        detail["note"] = f"2 parameter sets, max rel diff {worst:.2e}"
        assert worst <= 1e-12


def test_criterion_7_determinism_and_persistence(capsys, tmp_path):
    detail = {}
    with _gate(capsys, 7, "determinism and persistence", detail):
        params, noise, initial = _param_set_b()
        model_hash = params_hash(params, noise, initial)

        def draw(role):
            return arm_chunks(params, noise, initial, 512, seed=77,
                              with_atoms=role == "with_atoms")

        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths = write_arms(draw, tmp_path / sub / "run", 3, 77,
                               model_hash)
        for name in ("run.with_atoms.csv", "run.no_atoms.csv",
                     "run.meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

        # 512 shots are one chunk per arm
        for role in ("with_atoms", "no_atoms"):
            loaded = np.loadtxt(paths[role], delimiter=",", skiprows=1)
            assert np.array_equal(loaded[:, 1:], next(draw(role)))
        drawn = simulate_moments(params, noise, initial, 512, seed=77)
        for meta in (paths["meta"], None):
            records = read_records(paths["with_atoms"], paths["no_atoms"],
                                   meta)
            assert records.moments_source == ("parsed" if meta is None
                                              else "sidecar")
            assert records.seed == (None if meta is None else 77)
            assert records.params_hash == (None if meta is None
                                           else model_hash)
            for got, want in zip(records.moments, drawn, strict=True):
                assert np.array_equal(got.cov, want.cov)

        suites = run_selftest()
        failed = [s.name for s in suites if not s.passed]
        assert not failed, f"failed suites: {failed}"
        detail["note"] = (f"byte-identical reruns, exact round trip, "
                          f"{len(suites)} suites pass")
