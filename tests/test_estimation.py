import numpy as np
import pytest

from qndcert import (
    DegenerateCaseError,
    DeltaStats,
    InconsistentDataError,
    UndefinedInputError,
    UninformativeCouplingError,
    delta_stats,
    estimate_noise,
    estimate_ra_from_cov,
    estimate_ra_from_var,
    invert_three_pulse,
    no_atoms_moments,
    predicted_moments,
    simulate_moments,
)
from qndcert.estimation import _route_se


def _analytic_delta(param_set):
    params, noise, initial = param_set
    measured = predicted_moments(params, noise, initial)
    return delta_stats(measured, no_atoms_moments(params, initial),
                       params.r_l), measured


class TestSurvivalEstimators:
    def test_covariance_ratio_recovers_exactly(self, noisy_set):
        delta, _ = _analytic_delta(noisy_set)
        assert estimate_ra_from_cov(delta) == pytest.approx(0.8, rel=1e-12)

    def test_variance_ratio_recovers_exactly(self, noisy_set):
        delta, _ = _analytic_delta(noisy_set)
        assert estimate_ra_from_var(delta) == pytest.approx(0.8, rel=1e-12)

    def test_both_routes_agree_without_noise(self, lossy_set):
        delta, _ = _analytic_delta(lossy_set)
        assert estimate_ra_from_cov(delta) == pytest.approx(0.8, rel=1e-12)
        assert estimate_ra_from_var(delta) == pytest.approx(0.8, rel=1e-12)

    def test_uninformative_coupling_raises(self):
        delta = DeltaStats(n_pulses=3, d_var_p=1.0, d_var_q=1.0, d_var_r=1.0,
                           d_cov_pq=0.001, d_cov_pr=0.0005)
        with pytest.raises(UninformativeCouplingError):
            estimate_ra_from_cov(delta, noise_floor=0.01)

    def test_variance_route_degenerate_for_ideal_run(self, ideal_set):
        # lossless noiseless data: both differences are exactly zero
        delta, _ = _analytic_delta(ideal_set)
        with pytest.raises(DegenerateCaseError):
            estimate_ra_from_var(delta)

    def test_variance_route_rejects_contradiction(self):
        delta = DeltaStats(n_pulses=3, d_var_p=10.0, d_var_q=10.0,
                           d_var_r=14.0, d_cov_pq=5.0, d_cov_pr=4.0)
        with pytest.raises(InconsistentDataError):
            estimate_ra_from_var(delta)

    def test_variance_route_rejects_negative_square(self):
        delta = DeltaStats(n_pulses=3, d_var_p=10.0, d_var_q=16.0,
                           d_var_r=10.0, d_cov_pq=5.0, d_cov_pr=4.0)
        with pytest.raises(InconsistentDataError):
            estimate_ra_from_var(delta)

    def test_needs_three_pulses(self):
        delta = DeltaStats(n_pulses=2, d_var_p=1.0, d_var_q=2.0, d_cov_pq=1.0)
        with pytest.raises(UndefinedInputError):
            estimate_ra_from_cov(delta)


class TestNoiseInversion:
    def test_recovers_injected_entries(self, noisy_set):
        delta, _ = _analytic_delta(noisy_set)
        noise = estimate_noise(delta, kappa=1.0, j33=25.0, r_a=0.8)
        assert noise.n33 == pytest.approx(2.0, rel=1e-12)
        assert noise.n35 == pytest.approx(0.5, rel=1e-12)
        assert noise.n55 == pytest.approx(4.0, rel=1e-12)
        assert noise.negative_entries == ()

    def test_zero_noise_comes_back_zero(self, lossy_set):
        delta, _ = _analytic_delta(lossy_set)
        noise = estimate_noise(delta, kappa=1.0, j33=25.0, r_a=0.8)
        assert noise.n33 == pytest.approx(0.0, abs=1e-12)
        assert noise.n35 == pytest.approx(0.0, abs=1e-12)
        assert noise.n55 == pytest.approx(0.0, abs=1e-12)

    def test_negative_diagonals_flagged_not_hidden(self):
        delta = DeltaStats(n_pulses=3, d_var_p=20.0, d_var_q=19.0,
                           d_var_r=18.4, d_cov_pq=20.0, d_cov_pr=16.0)
        noise = estimate_noise(delta, kappa=1.0, j33=25.0, r_a=0.8)
        assert noise.n55 == pytest.approx(-5.0)
        assert "n55" in noise.negative_entries

    def test_needs_nonzero_kappa(self, noisy_set):
        delta, _ = _analytic_delta(noisy_set)
        with pytest.raises(UndefinedInputError):
            estimate_noise(delta, kappa=0.0, j33=25.0, r_a=0.8)


class TestFullInversion:
    def test_analytic_round_trip(self, noisy_set):
        delta, measured = _analytic_delta(noisy_set)
        model = invert_three_pulse(delta, measured.var_p, kappa=1.0, j33=25.0)
        assert model.r_a == pytest.approx(0.8, rel=1e-12)
        assert model.r_a_from_var == pytest.approx(0.8, rel=1e-12)
        assert model.noise.n33 == pytest.approx(2.0, rel=1e-12)
        assert model.noise.n35 == pytest.approx(0.5, rel=1e-12)
        assert model.noise.n55 == pytest.approx(4.0, rel=1e-12)
        assert model.cond_var_jz == pytest.approx(9.467005076142131, rel=1e-12)
        assert model.r_a_se is None  # analytic input carries no errors
        assert model.warnings == ()

    def test_ideal_input_degrades_gracefully(self, ideal_set):
        # the variance route is 0/0 for a perfect run; the primary
        # route must still deliver and the failure must be explained
        delta, measured = _analytic_delta(ideal_set)
        model = invert_three_pulse(delta, measured.var_p, kappa=1.0, j33=25.0)
        assert model.r_a == pytest.approx(1.0, rel=1e-12)
        assert model.r_a_from_var is None
        assert any("variance route" in w for w in model.warnings)

    def test_sampling_floors_silence_spurious_routes(self):
        # tiny variance differences within 3 se of zero: treated as zero
        se = {name: 0.5 for name in
              ("d_var_p", "d_var_q", "d_var_r", "d_cov_pq", "d_cov_pr")}
        delta = DeltaStats(n_pulses=3, d_var_p=25.3, d_var_q=25.1,
                           d_var_r=24.9, d_cov_pq=25.2, d_cov_pr=24.8,
                           se=se)
        model = invert_three_pulse(delta, 50.0, kappa=1.0, j33=25.0)
        assert model.r_a_from_var is None
        assert model.r_a == pytest.approx(24.8 / 25.2)
        assert model.r_a_se is not None

    def test_standard_errors_propagate(self, noisy_set):
        delta, measured = _analytic_delta(noisy_set)
        se = {name: 0.1 for name in delta.entries()}
        noisy_delta = DeltaStats(n_pulses=3, se=se, **delta.entries())
        model = invert_three_pulse(noisy_delta, measured.var_p,
                                   kappa=1.0, j33=25.0)
        expected = np.hypot(0.1 / 20.5, 16.4 * 0.1 / 20.5 ** 2)
        assert model.r_a_se == pytest.approx(expected, rel=1e-9)

    def test_discrepant_routes_are_reported(self):
        se = {name: 0.01 for name in
              ("d_var_p", "d_var_q", "d_var_r", "d_cov_pq", "d_cov_pr")}
        # covariance ratio says 0.8, variance ratio says ~0.95
        delta = DeltaStats(n_pulses=3, d_var_p=29.0, d_var_q=22.0,
                           d_var_r=15.7, d_cov_pq=20.5, d_cov_pr=16.4,
                           se=se)
        model = invert_three_pulse(delta, 49.25, kappa=1.0, j33=25.0)
        assert any("disagree" in w for w in model.warnings)

    def test_variance_route_error_counts_d_var_q_once(self):
        # r_a**2 = num / den with num = d_var_r - d_var_q and
        # den = d_var_q - d_var_p: both differences hold d_var_q, so its
        # slope is -(num + den) / den**2, not two independent terms
        se = {name: 0.01 for name in
              ("d_var_p", "d_var_q", "d_var_r", "d_cov_pq", "d_cov_pr")}
        delta = DeltaStats(n_pulses=3, d_var_p=29.0, d_var_q=22.0,
                           d_var_r=15.7, d_cov_pq=20.5, d_cov_pr=16.4,
                           se=se)
        model = invert_three_pulse(delta, 49.25, kappa=1.0, j33=25.0)
        num, den = 15.7 - 22.0, 22.0 - 29.0
        grad = np.array([num / den ** 2, -(num + den) / den ** 2, 1.0 / den])
        ratio_se = 0.01 * np.sqrt(grad @ grad)
        expected = ratio_se / (2.0 * np.sqrt(num / den))
        assert expected == pytest.approx(0.001753, abs=5e-7)
        assert model.r_a_from_var_se == pytest.approx(expected, rel=1e-6)

    def test_unphysical_survival_flagged(self):
        delta = DeltaStats(n_pulses=3, d_var_p=25.0, d_var_q=25.0,
                           d_var_r=25.0, d_cov_pq=20.0, d_cov_pr=22.0)
        model = invert_three_pulse(delta, 50.0, kappa=1.0, j33=25.0)
        assert model.r_a > 1.0
        assert any("outside [0, 1]" in w for w in model.warnings)


class TestJointStandardErrors:
    """Both r_a routes, their difference and the variance floor against
    hand gradients over the deltas' joint error covariance."""

    def test_route_errors_match_hand_gradients(self, noisy_set):
        params, noise, initial = noisy_set
        measured, reference = simulate_moments(params, noise, initial,
                                               20_000, 3)
        delta = delta_stats(measured, reference, params.r_l)
        names = ("d_var_p", "d_var_q", "d_var_r", "d_cov_pq", "d_cov_pr")
        sigma = np.array(delta._sigma(names))
        assert np.count_nonzero(sigma) == sigma.size  # the inputs correlate
        p, q, r, c_pq, c_pr = (getattr(delta, name) for name in names)
        num, den = r - q, q - p
        root = np.sqrt(num / den)
        grads = {
            "r_a": np.array([0.0, 0.0, 0.0, -c_pr / c_pq ** 2, 1.0 / c_pq]),
            "d_var_q - d_var_p": np.array([-1.0, 1.0, 0.0, 0.0, 0.0]),
            "r_a_from_var": np.array([num / den ** 2, -(num + den) / den ** 2,
                                      1.0 / den, 0.0, 0.0]) / (2.0 * root),
        }
        grads["r_a - r_a_from_var"] = grads["r_a"] - grads["r_a_from_var"]
        se = _route_se(delta)
        assert list(se) == list(grads)
        for key, grad in grads.items():
            assert se[key] == pytest.approx(np.sqrt(grad @ sigma @ grad),
                                            rel=1e-6), key
        model = invert_three_pulse(delta, measured.var_p, 1.0, 25.0)
        assert model.r_a_se == se["r_a"]
        assert model.r_a_from_var_se == se["r_a_from_var"]
        # the shared shots shrink r_a's error well below the
        # independent-input figure
        independent = np.sqrt(grads["r_a"] ** 2 @ np.diag(sigma))
        assert se["r_a"] < 0.9 * independent
