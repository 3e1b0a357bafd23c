import math

import numpy as np
import pytest

from qndcert import (
    DeltaStats,
    UndefinedInputError,
    UninformativeCouplingError,
    certify,
    delta_stats,
    invert_three_pulse,
    no_atoms_moments,
    predicted_moments,
    simulate_moments,
)
from qndcert import estimation, statistics
from qndcert.estimation import _INPUTS, _INVERSION, _carried, _inputs
from qndcert.statistics import _propagate_se


def _analytic_delta(param_set):
    params, noise, initial = param_set
    measured = predicted_moments(params, noise, initial)
    return delta_stats(measured, no_atoms_moments(params, initial),
                       params.r_l), measured


def _invert(delta, var_p=50.0, kappa=1.0, j33=25.0):
    return invert_three_pulse(delta, var_p, kappa=kappa, j33=j33)


class TestSurvivalEstimators:
    """Both r_a routes of the inversion, and each way the variance route
    can fail without failing the inversion."""

    def test_covariance_ratio_recovers_exactly(self, noisy_set):
        delta, measured = _analytic_delta(noisy_set)
        assert _invert(delta, measured.var_p).r_a == pytest.approx(
            0.8, rel=1e-12)

    def test_variance_ratio_recovers_exactly(self, noisy_set):
        delta, measured = _analytic_delta(noisy_set)
        assert _invert(delta, measured.var_p).r_a_from_var == pytest.approx(
            0.8, rel=1e-12)

    def test_both_routes_agree_without_noise(self, lossy_set):
        delta, measured = _analytic_delta(lossy_set)
        model = _invert(delta, measured.var_p)
        assert model.r_a == pytest.approx(0.8, rel=1e-12)
        assert model.r_a_from_var == pytest.approx(0.8, rel=1e-12)
        assert model.r_a_discrepancy == pytest.approx(0.0, abs=1e-12)

    def test_uninformative_coupling_raises(self):
        # |d_cov_pq| = 0.001 sits inside 3 se = 0.012 of zero
        delta = DeltaStats(n_pulses=3, d_var_p=1.0, d_var_q=1.0, d_var_r=1.0,
                           d_cov_pq=0.001, d_cov_pr=0.0005,
                           se={"d_cov_pq": 0.004})
        with pytest.raises(UninformativeCouplingError,
                           match=r"^\|d_cov_pq\| = 0.001 at or below the "
                                 r"noise floor 0.012$"):
            _invert(delta)

    def test_floor_width_is_z_threshold(self):
        # 0.001 is 0.25 se from zero: inside a floor of 0.2 se it is not
        delta = DeltaStats(n_pulses=3, d_var_p=1.0, d_var_q=2.0, d_var_r=2.64,
                           d_cov_pq=0.001, d_cov_pr=0.0008,
                           se={"d_cov_pq": 0.004})
        with pytest.raises(UninformativeCouplingError,
                           match=r"noise floor 0.0012$"):
            invert_three_pulse(delta, 50.0, 1.0, 25.0, z_threshold=0.3)
        model = invert_three_pulse(delta, 50.0, 1.0, 25.0, z_threshold=0.2)
        assert model.r_a == pytest.approx(0.8, rel=1e-12)

    @pytest.mark.parametrize("z_threshold", [-1.0, math.nan, math.inf])
    def test_gate_width_must_be_finite_and_nonnegative(self, z_threshold):
        delta = DeltaStats(n_pulses=3, d_var_p=1.0, d_var_q=2.0, d_var_r=2.64,
                           d_cov_pq=0.001, d_cov_pr=0.0008,
                           se={"d_cov_pq": 0.004})
        with pytest.raises(UndefinedInputError,
                           match="^z_threshold must be finite and "
                                 "nonnegative, got"):
            invert_three_pulse(delta, 50.0, 1.0, 25.0,
                               z_threshold=z_threshold)

    def test_variance_route_degenerate_for_ideal_run(self, ideal_set):
        # lossless noiseless data: both differences are exactly zero (0/0)
        delta, measured = _analytic_delta(ideal_set)
        model = _invert(delta, measured.var_p)
        assert model.r_a_from_var is None
        assert model.r_a_discrepancy is None
        assert model.warnings[0] == (
            "variance route for r_a unavailable: variance differences both "
            "at the noise floor; r_A unconstrained by this route")

    def test_variance_route_rejects_contradiction(self):
        # only the denominator vanishes: no survival factor gives that
        delta = DeltaStats(n_pulses=3, d_var_p=10.0, d_var_q=10.0,
                           d_var_r=14.0, d_cov_pq=5.0, d_cov_pr=4.0)
        model = _invert(delta)
        assert model.r_a == 0.8
        assert model.r_a_from_var is None
        assert model.warnings[0] == (
            "variance route for r_a unavailable: d_var_q - d_var_p = 0 "
            "vanishes while d_var_r - d_var_q = 4 does not")

    def test_variance_route_rejects_negative_square(self):
        delta = DeltaStats(n_pulses=3, d_var_p=10.0, d_var_q=16.0,
                           d_var_r=10.0, d_cov_pq=5.0, d_cov_pr=4.0)
        model = _invert(delta)
        assert model.r_a == 0.8
        assert model.r_a_from_var is None
        assert model.warnings[0] == (
            "variance route for r_a unavailable: squared survival estimate "
            "is negative (-1)")

    def test_needs_three_pulses(self):
        delta = DeltaStats(n_pulses=2, d_var_p=1.0, d_var_q=2.0, d_cov_pq=1.0)
        with pytest.raises(UndefinedInputError,
                           match="^three-pulse inversion needs three pulses, "
                                 "got 2$"):
            _invert(delta)


class TestNoiseInversion:
    def test_recovers_injected_entries(self, noisy_set):
        delta, measured = _analytic_delta(noisy_set)
        noise = _invert(delta, measured.var_p).noise
        assert noise.n33 == pytest.approx(2.0, rel=1e-12)
        assert noise.n35 == pytest.approx(0.5, rel=1e-12)
        assert noise.n55 == pytest.approx(4.0, rel=1e-12)
        assert noise.negative_entries == ()

    def test_zero_noise_comes_back_zero(self, lossy_set):
        delta, measured = _analytic_delta(lossy_set)
        noise = _invert(delta, measured.var_p).noise
        assert noise.n33 == pytest.approx(0.0, abs=1e-12)
        assert noise.n35 == pytest.approx(0.0, abs=1e-12)
        assert noise.n55 == pytest.approx(0.0, abs=1e-12)

    def test_negative_diagonals_flagged_not_hidden(self):
        delta = DeltaStats(n_pulses=3, d_var_p=20.0, d_var_q=19.0,
                           d_var_r=18.4, d_cov_pq=20.0, d_cov_pr=16.0)
        model = _invert(delta)
        assert model.r_a == 0.8
        assert model.noise.n55 == pytest.approx(-5.0)
        assert model.noise.negative_entries == ("n55",)
        assert model.warnings == ("noise diagonal n55 estimated negative",)

    def test_needs_nonzero_kappa(self, noisy_set):
        delta, measured = _analytic_delta(noisy_set)
        with pytest.raises(UndefinedInputError,
                           match="^kappa must be nonzero$"):
            _invert(delta, measured.var_p, kappa=0.0)


# Calibration at which the figures are undefined: a sign no variance or
# coupling can have, not finite, or kappa**2 and its products with j33
# and j0 out of floating-point range.  These used to come back as nan or
# inf estimates, or as a ZeroDivisionError; a negative j33 gave numbers.
_BAD_CALIBRATION = [
    ({"kappa": 0.0}, "^kappa must be nonzero$"),
    ({"j33": -1.0}, "^j33 must be nonnegative, got -1.0$"),
    ({"j0": 0.0}, "^j0 must be positive, got 0.0$"),
    ({"j0": -1.0}, "^j0 must be positive, got -1.0$"),
    ({"kappa": math.nan}, "^kappa must be finite, got nan$"),
    ({"kappa": math.inf}, "^kappa must be finite, got inf$"),
    ({"j33": math.nan}, "^j33 must be finite, got nan$"),
    ({"j33": math.inf}, "^j33 must be finite, got inf$"),
    ({"j0": math.nan}, "^j0 must be finite, got nan$"),
    ({"j0": math.inf}, "^j0 must be finite, got inf$"),
    ({"kappa": 1e200}, r"^kappa\*\*2 = inf overflows"),
    ({"kappa": 1e-170}, r"^kappa\*\*2 = 0 underflows"),
    ({"kappa": 2.0, "j33": 1e308}, r"^kappa\*\*2 \* j33 = inf overflows"),
    ({"kappa": 1e-160, "j33": 1e-10},
     r"^kappa\*\*2 \* j33 = 0 underflows"),
    ({"kappa": 2.0, "j0": 1e308}, r"^kappa\*\*2 \* j0 = inf overflows"),
]

# The entry points that take a calibration, each called with it.
_CALIBRATED = {
    "certify": lambda delta, var_p, kappa, j33, j0:
        certify(delta, var_p, kappa, j33, j0),
    "invert_three_pulse": lambda delta, var_p, kappa, j33, j0:
        invert_three_pulse(delta, var_p, kappa, j33),
}


class TestCalibrationRange:
    @pytest.mark.parametrize("entry, calibration, message", [
        (entry, calibration, message) for entry in _CALIBRATED
        for calibration, message in _BAD_CALIBRATION
        if entry == "certify" or "j0" not in calibration])
    def test_every_entry_point_refuses(self, noisy_set, entry, calibration,
                                       message):
        # one rule for both: the same refusal, word for word
        delta, measured = _analytic_delta(noisy_set)
        arguments = {"kappa": 1.0, "j33": 25.0, "j0": 25.0, **calibration}
        with pytest.raises(UndefinedInputError, match=message):
            _CALIBRATED[entry](delta, measured.var_p, **arguments)


class TestAfterTheCalibration:
    """Past the calibration, the inversion refuses a ``var_p`` that is not
    positive, and both entry points a ``d_cov_pq`` whose square
    overflows."""

    @pytest.mark.parametrize("var_p", [0.0, -1.0, math.nan])
    def test_var_p_not_positive_is_refused(self, noisy_set, var_p):
        # a NaN passed "var_p <= 0.0", and cond_var_jz came back NaN
        delta, _ = _analytic_delta(noisy_set)
        with pytest.raises(UndefinedInputError,
                           match=f"^var_p must be positive, got {var_p}$"):
            invert_three_pulse(delta, var_p, 1.0, 25.0)

    @pytest.mark.parametrize("entry", list(_CALIBRATED))
    def test_d_cov_pq_whose_square_overflows_is_refused(self, entry):
        # Python's float ** raised an OverflowError at d_cov_pq ** 2
        delta = DeltaStats(3, d_var_p=1.0, d_var_q=2.0, d_var_r=2.5,
                           d_cov_pq=3e154, d_cov_pr=1.0)
        with pytest.raises(UndefinedInputError,
                           match=r"^d_cov_pq = 3e\+154 is out of range: "
                                 r"its square overflows$"):
            _CALIBRATED[entry](delta, 4.0, 1.0, 2.0, 3.0)

    def test_inversion_applies_the_calibration_rule_once(self, noisy_set,
                                                         monkeypatch):
        calls = []

        def counted(*args, _rule=statistics._calibration_k2):
            calls.append(args)
            return _rule(*args)

        monkeypatch.setattr(statistics, "_calibration_k2", counted)
        monkeypatch.setattr(estimation, "_calibration_k2", counted)
        delta, measured = _analytic_delta(noisy_set)
        _invert(delta, measured.var_p)
        assert calls == [(1.0, 25.0)]


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
        # an exact input's errors are 0.0, not absent
        assert model.r_a_se == model.r_a_from_var_se == 0.0
        assert model.warnings == ()

    def test_numpy_scalar_inputs_give_python_floats(self, noisy_set):
        # an np.float64 var_p made cond_var_jz an np.float64
        delta, measured = _analytic_delta(noisy_set)
        want = invert_three_pulse(delta, measured.var_p, 1.0, 25.0)
        got = invert_three_pulse(delta, np.float64(measured.var_p), 1.0,
                                 25.0, z_threshold=np.float64(3.0))
        assert got == want
        assert type(got.cond_var_jz) is float

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


def _hand_gradients(values):
    """Hand gradients of the inversion's error-carrying entries over
    (d_var_p, d_var_q, d_var_r, d_cov_pq, d_cov_pr, var_p)."""
    p, q, r, c_pq, c_pr, _ = values
    num, den = r - q, q - p
    root = np.sqrt(num / den)
    grads = {
        "r_a": np.array([0.0, 0.0, 0.0, -c_pr / c_pq ** 2, 1.0 / c_pq, 0.0]),
        "d_var_q - d_var_p": np.array([-1.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
        "r_a_from_var": np.array([num / den ** 2, -(num + den) / den ** 2,
                                  1.0 / den, 0.0, 0.0, 0.0]) / (2.0 * root),
    }
    grads["r_a - r_a_from_var"] = grads["r_a"] - grads["r_a_from_var"]
    assert _INVERSION == tuple(grads)
    return grads


class TestJointStandardErrors:
    """Both r_a routes, their difference and the variance floor against
    hand gradients over the deltas' joint error covariance."""

    def test_route_errors_match_hand_gradients(self, noisy_set):
        params, noise, initial = noisy_set
        measured, reference = simulate_moments(params, noise, initial,
                                               20_000, 3)
        delta = delta_stats(measured, reference, params.r_l)
        sigma = np.array(delta._sigma(_INPUTS))
        assert np.count_nonzero(sigma) == sigma.size  # the inputs correlate
        values = _inputs(delta, measured.var_p)
        grads = _hand_gradients(values)
        se = _propagate_se(
            lambda v: _carried(v, 1.0, 25.0, None, _INVERSION),
            values, delta._sigma(_INPUTS), tuple(grads))
        for key, grad in grads.items():
            assert se[key] == pytest.approx(np.sqrt(grad @ sigma @ grad),
                                            rel=1e-13, abs=0.0), key
        model = invert_three_pulse(delta, measured.var_p, 1.0, 25.0)
        assert model.r_a_se == se["r_a"]
        assert model.r_a_from_var_se == se["r_a_from_var"]
        # the shared shots shrink r_a's error well below the
        # independent-input figure
        independent = np.sqrt(grads["r_a"] ** 2 @ np.diag(sigma))
        assert se["r_a"] < 0.9 * independent

    @pytest.mark.parametrize("ratio", [1e-2, 1e-6, 1e-10, 1e-14])
    def test_variance_route_error_holds_at_small_ratios(self, ratio):
        # sqrt's slope grows as the measured ratio shrinks: a difference
        # quotient loses digits there, and a step can turn the ratio
        # negative, where sqrt is undefined
        se = {name: 0.01 for name in _INPUTS[:-1]}
        delta = DeltaStats(n_pulses=3, d_var_p=29.0, d_var_q=22.0,
                           d_var_r=22.0 - 7.0 * ratio, d_cov_pq=20.5,
                           d_cov_pr=16.4, se=se)
        values = _inputs(delta, 49.25)
        assert values[2] - values[1] == pytest.approx(-7.0 * ratio, rel=0.1)
        sigma = np.array(delta._sigma(_INPUTS))
        model = invert_three_pulse(delta, 49.25, kappa=1.0, j33=25.0)
        se = _propagate_se(
            lambda v: _carried(v, 1.0, 25.0, None, _INVERSION),
            values, delta._sigma(_INPUTS), _INVERSION)
        for key, grad in _hand_gradients(values).items():
            assert se[key] == pytest.approx(np.sqrt(grad @ sigma @ grad),
                                            rel=1e-13, abs=0.0), key
        assert model.r_a_from_var_se == se["r_a_from_var"]
