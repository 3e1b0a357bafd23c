"""Built-in validation: closed forms against brute-force propagation.

Every measurable formula in the package has a second, independent route:
propagate the full covariance matrix pulse by pulse, read the meter
moments off the matrix, condition on the first meter by the rank-1
update, and form the definitional correlation figures from matrix
entries.  The self-test drives randomized parameter sets (couplings,
losses, correlated input light, correlated added noise) through both
routes and insists they agree to near machine precision, then
cross-checks the sampler against the closed forms statistically.

Two debug hooks support mutation testing of the validation itself:
``flip_coupling_sign`` runs everything under the opposite interaction
sign convention (all suites must still pass), and ``corrupt_delta``
deliberately mis-scales the reference subtraction (the identity suite
must then fail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .certification import certify
from .conditioning import (
    condition_on_component,
    conditional_variance_general,
    conditional_variance_ideal,
)
from .core import (
    AtomicBlock,
    GaussianState,
    Layout,
    OpticalBlock,
    get_entry,
    make_initial_state,
)
from .dynamics import ExperimentParams, NoiseModel, apply_pulse, propagate
from .estimation import invert_three_pulse
from .montecarlo import empirical_check, simulate_moments
from .statistics import (
    delta_stats,
    meter_moments,
    no_atoms_moments,
    predicted_moments,
)

__all__ = ["SuiteResult", "closed_form_error", "run_selftest"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _random_psd(rng: np.random.Generator, size: int, scale: float) -> np.ndarray:
    root = rng.normal(size=(size, size + 2))
    matrix = root @ root.T
    # Normalize the largest diagonal entry to the requested scale.
    return matrix * (scale / matrix.diagonal().max())


def _random_model(rng: np.random.Generator, with_noise: bool,
                  sign: float, r_l_max: float = 1.0):
    layout = Layout(3)
    mean_sx = rng.uniform(10.0, 100.0)
    mean_jx = rng.uniform(5.0, 100.0)
    kappa = rng.uniform(0.2, 2.5)
    params = ExperimentParams(
        g_tau=sign * kappa / mean_sx,
        mean_sx=mean_sx,
        mean_jx=mean_jx,
        r_a=rng.uniform(0.55, 1.0),
        r_l=rng.uniform(0.55, r_l_max),
    )
    atomic = AtomicBlock(mean_jx=mean_jx,
                         cov=_random_psd(rng, 3, rng.uniform(1.0, 100.0)))
    optical = OpticalBlock(mean_sx=mean_sx,
                           cov=_random_psd(rng, 9, rng.uniform(1.0, 100.0)))
    noise = NoiseModel.zero()
    if with_noise:
        noise = NoiseModel(_random_psd(rng, 6, rng.uniform(0.1, 10.0)))
    initial = make_initial_state(atomic, optical, layout)
    j0 = rng.uniform(1.0, 100.0)
    return params, noise, initial, j0


def _informative(params: ExperimentParams, noise: NoiseModel,
                 initial: GaussianState) -> bool:
    # Keep ratio denominators well away from zero so both comparison
    # routes are numerically meaningful.
    kappa = params.kappa
    j33 = get_entry(initial, "J_z", "J_z")
    d_cov_pq = kappa * kappa * params.r_a * j33 + kappa * noise.n35
    return abs(d_cov_pq) > 0.1 and j33 > 0.5


def _draw_model(rng, with_noise, sign, r_l_max=1.0):
    for _ in range(200):
        model = _random_model(rng, with_noise, sign, r_l_max)
        if _informative(model[0], model[1], model[2]):
            return model
    raise RuntimeError("could not draw an informative random model")


def _err(got, expected, scale: float) -> float:
    """Relative disagreement; the largest entry's for matrices."""
    return float(np.max(abs(got - expected)
                        / np.maximum(abs(expected), abs(scale))))


def closed_form_error(params: ExperimentParams, noise: NoiseModel,
                      initial: GaussianState, j0: float) -> float:
    """Worst relative disagreement, on one model, between every closed form
    and its matrix route: meter moments against :func:`propagate`, the
    conditional spin variance (the model form, and the measured-statistics
    form of :func:`invert_three_pulse`) against rank-1 conditioning on the
    first meter, the inversion's survival and noise entries against the
    model's, and the correlation and uncertainty figures of one
    :func:`certify` report against their definitions in matrix entries.
    Each error is relative to the larger of the expected value and a
    small scale, so legitimate zeros do not blow it up.
    """
    kappa = params.kappa
    j33 = get_entry(initial, "J_z", "J_z")
    predicted = predicted_moments(params, noise, initial)
    var_p = predicted.var_p
    pipeline = meter_moments(propagate(params, noise, initial))
    worst = _err(predicted.cov, pipeline.cov, scale=1e-3 * var_p)

    # Conditioning: one pulse, condition on its meter, read var(J_z).
    after_one = apply_pulse(initial, params, noise, 1)
    conditioned = condition_on_component(after_one, "P_y")
    cond_direct = get_entry(conditioned, "J_z", "J_z")
    c22 = get_entry(initial, "P_y", "P_y")
    worst = max(worst, _err(
        conditional_variance_general(params, noise, j33, c22),
        cond_direct, scale=1e-3 * j33))
    delta = delta_stats(predicted, no_atoms_moments(params, initial),
                        params.r_l)
    model = invert_three_pulse(delta, var_p, kappa, j33)
    for got, want, scale in (
            (model.cond_var_jz, cond_direct, 1e-3 * j33),
            (model.r_a, params.r_a, 1e-3),
            (model.r_a_from_var, params.r_a, 1e-3),
            (model.noise.n33, noise.n33, 1e-3 * j33),
            (model.noise.n35, noise.n35, 1e-3 * math.sqrt(j33 * var_p)),
            (model.noise.n55, noise.n55, 1e-3 * var_p)):
        if got is not None:
            worst = max(worst, _err(got, want, scale))

    # Correlation figures against their matrix definitions.
    t33 = get_entry(after_one, "J_z", "J_z")
    t35 = get_entry(after_one, "J_z", "P_y")
    report = certify(delta, var_p, kappa, j33, j0)
    figures = report.figures
    worst = max(worst, _err(figures.c2_in_meter,
                            (kappa * j33) ** 2 / (j33 * var_p), 1e-3))
    worst = max(worst, _err(figures.c2_in_out,
                            (params.r_a * j33) ** 2 / (j33 * t33), 1e-3))
    worst = max(worst, _err(figures.c2_out_meter,
                            t35 * t35 / (t33 * var_p), 1e-3))

    # Uncertainty figures, compared in matrix units (times j0).
    ncl = report.nonclassical
    worst = max(worst, _err(ncl.dx2_s_given_m * params.r_a * j0,
                            cond_direct, scale=1e-3 * j33))
    worst = max(worst, _err(ncl.dx2_m * kappa * kappa * j0,
                            var_p - kappa * kappa * j33,
                            scale=1e-3 * var_p))
    worst = max(worst, _err(ncl.dx2_s * params.r_a * j0, t33 - j33,
                            scale=1e-3 * max(j33, t33)))
    return worst


def _suite_reference_values(sign: float) -> SuiteResult:
    layout = Layout(3)
    params = ExperimentParams.from_kappa(sign * 1.0, mean_sx=50.0,
                                         mean_jx=50.0)
    kappa = params.kappa
    noise = NoiseModel.zero()
    initial = make_initial_state(AtomicBlock.coherent(100.0),
                                 OpticalBlock.coherent(100.0, 3), layout)
    predicted = predicted_moments(params, noise, initial)
    reference = no_atoms_moments(params, initial)
    delta = delta_stats(predicted, reference, params.r_l)
    report = certify(delta, predicted.var_p, kappa, 25.0, 25.0)
    figures, ncl = report.figures, report.nonclassical
    checks = {
        "var_p": (predicted.var_p, 50.0),
        "var_q": (predicted.var_q, 50.0),
        "var_r": (predicted.var_r, 50.0),
        "cov_pq": (predicted.cov_pq, 25.0),
        "cov_pr": (predicted.cov_pr, 25.0),
        "d_var_q": (delta.d_var_q, 25.0),
        "d_cov_pr": (delta.d_cov_pr, 25.0),
        "cond_ideal": (conditional_variance_ideal(25.0, 25.0, 1.0), 12.5),
        "cond_stats": (invert_three_pulse(
            delta, predicted.var_p, kappa, 25.0).cond_var_jz, 12.5),
        "c2_in_meter": (figures.c2_in_meter, 0.5),
        "c2_in_out": (figures.c2_in_out, 1.0),
        "c2_out_meter": (figures.c2_out_meter, 0.5),
        "dx2_s_given_m": (ncl.dx2_s_given_m, 0.5),
        "dx2_m": (ncl.dx2_m, 1.0),
        "dx2_s": (ncl.dx2_s, 0.0),
        "squeezing_margin": (report.squeezing.margin, 625.0),
    }
    worst = max(abs(got - want) / max(abs(want), 1.0)
                for got, want in checks.values())
    return SuiteResult("reference-values", worst <= 1e-12,
                       f"{len(checks)} quantities, max rel err {worst:.2e}")


def _suite_closed_vs_pipeline(n_sets: int, seed: int, sign: float) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for index in range(n_sets):
        model = _draw_model(rng, with_noise=index % 3 != 0, sign=sign)
        worst = max(worst, closed_form_error(*model))
    return SuiteResult("closed-form-vs-pipeline", worst <= 1e-9,
                       f"{n_sets} parameter sets, max rel err {worst:.2e}")


def _suite_sign_invariance(n_sets: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for index in range(n_sets):
        params, noise, initial, _ = _draw_model(rng, with_noise=index % 2 == 0,
                                                sign=1.0)
        base = meter_moments(propagate(params, noise, initial))
        mirrored = replace(params, g_tau=-params.g_tau)
        if noise.n35 == 0.0:
            # The coupling sign alone is unobservable without cross noise.
            flipped = meter_moments(propagate(mirrored, noise, initial))
        else:
            # Full convention flip: coupling sign together with the sign
            # of the spin-light noise cross block.
            signs = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
            noise_flipped = NoiseModel(signs @ noise.matrix @ signs)
            flipped = meter_moments(propagate(mirrored, noise_flipped,
                                              initial))
        worst = max(worst, _err(flipped.cov, base.cov, scale=1e-3))
    return SuiteResult("coupling-sign-invariance", worst <= 1e-12,
                       f"{n_sets} parameter sets, max rel err {worst:.2e}")


def _suite_delta_identity(n_sets: int, seed: int, sign: float,
                          corrupt: bool) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for index in range(n_sets):
        params, noise, initial, j0 = _draw_model(
            rng, with_noise=index % 3 != 0, sign=sign, r_l_max=0.9)
        j33 = get_entry(initial, "J_z", "J_z")
        c22 = get_entry(initial, "P_y", "P_y")
        predicted = predicted_moments(params, noise, initial)
        reference = no_atoms_moments(params, initial)
        r_l = math.sqrt(params.r_l) if corrupt else params.r_l
        delta = delta_stats(predicted, reference, r_l)
        cond = invert_three_pulse(delta, predicted.var_p, params.kappa,
                                  j33).cond_var_jz
        worst = max(worst, _err(
            cond, conditional_variance_general(params, noise, j33, c22),
            scale=1e-3 * j33))
        margin = certify(delta, predicted.var_p, params.kappa, j33,
                         j0).squeezing.margin
        # Same inequality, two forms: margin > 0 iff conditioned < input.
        if abs(margin) > 1e-6 * predicted.var_p * j33:
            if (margin > 0.0) != (cond < j33):
                worst = max(worst, 1.0)
    return SuiteResult("delta-subtraction-identity", worst <= 1e-9,
                       f"{n_sets} parameter sets, max rel err {worst:.2e}")


def _suite_sampling(n_shots: int, seed: int, sign: float) -> SuiteResult:
    layout = Layout(3)
    configurations = (
        (ExperimentParams.from_kappa(sign * 1.0, mean_sx=50.0, mean_jx=50.0),
         NoiseModel.zero()),
        (ExperimentParams.from_kappa(sign * 1.0, mean_sx=50.0, mean_jx=50.0,
                                     r_a=0.8, r_l=0.9),
         NoiseModel.from_entries({(3, 3): 2.0, (3, 5): 0.5, (5, 5): 4.0})),
    )
    initial = make_initial_state(AtomicBlock.coherent(100.0),
                                 OpticalBlock.coherent(100.0, 3), layout)
    checks = [empirical_check(params, noise, initial, n_shots, seed + offset)
              for offset, (params, noise) in enumerate(configurations)]
    worst = float(np.max([check.max_abs_z for check in checks]))
    return SuiteResult("sampling-agreement",
                       all(check.passed for check in checks),
                       f"2 configurations x {n_shots} shots, max |z| {worst:.2f}")


def _suite_sampled_ratio(n_shots: int, seed: int, sign: float) -> SuiteResult:
    # Sampled moments survive the full delta pipeline end to end.
    layout = Layout(3)
    params = ExperimentParams.from_kappa(sign * 1.0, mean_sx=50.0,
                                         mean_jx=50.0, r_a=0.8, r_l=0.9)
    initial = make_initial_state(AtomicBlock.coherent(100.0),
                                 OpticalBlock.coherent(100.0, 3), layout)
    measured, reference = simulate_moments(params, NoiseModel.zero(), initial,
                                           n_shots, seed)
    delta = delta_stats(measured, reference, params.r_l)
    ratio = delta.d_cov_pr / delta.d_cov_pq
    ok = abs(ratio - params.r_a) < 0.15
    return SuiteResult("sampled-delta-ratio", ok,
                       f"r_a from covariance ratio {ratio:.3f} vs true "
                       f"{params.r_a}")


def run_selftest(n_sets: int = 150, n_shots: int = 20000,
                 seed: int = 20250819, flip_coupling_sign: bool = False,
                 corrupt_delta: bool = False) -> list[SuiteResult]:
    """Run all suites; the hooks are for mutation-testing the validation."""
    sign = -1.0 if flip_coupling_sign else 1.0
    suites = (
        ("reference-values", lambda: _suite_reference_values(sign)),
        ("closed-form-vs-pipeline",
         lambda: _suite_closed_vs_pipeline(n_sets, seed, sign)),
        ("coupling-sign-invariance",
         lambda: _suite_sign_invariance(max(20, n_sets // 5), seed + 1)),
        ("delta-subtraction-identity",
         lambda: _suite_delta_identity(n_sets, seed + 2, sign, corrupt_delta)),
        ("sampling-agreement", lambda: _suite_sampling(n_shots, seed + 3, sign)),
        ("sampled-delta-ratio",
         lambda: _suite_sampled_ratio(n_shots, seed + 4, sign)),
    )
    results = []
    for name, suite in suites:
        try:
            results.append(suite())
        except Exception as exc:  # a crashed suite is a failed suite
            results.append(SuiteResult(name, False, f"crashed: {exc!r}"))
    return results
