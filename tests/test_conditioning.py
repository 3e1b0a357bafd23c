import numpy as np
import pytest

from qndcert import (
    DeltaStats,
    GaussianState,
    Layout,
    UndefinedInputError,
    apply_pulse,
    certify,
    condition_on_component,
    conditional_variance_general,
    conditional_variance_ideal,
    delta_stats,
    get_entry,
    invert_three_pulse,
    no_atoms_moments,
    predicted_moments,
)

from conftest import random_psd, schur_conditional


class TestConditionOnComponent:
    def test_matches_textbook_schur_complement(self):
        rng = np.random.default_rng(3)
        layout = Layout(2)
        for _ in range(20):
            state = GaussianState(layout, rng.normal(size=9),
                                  random_psd(rng, 9, 5.0))
            out = condition_on_component(state, "P_y")
            expected = schur_conditional(np.asarray(state.cov),
                                         layout.index("P_y"))
            np.testing.assert_allclose(out.cov, expected,
                                       rtol=1e-12, atol=1e-12)

    def test_conditioned_component_is_removed(self, ideal_set):
        params, noise, initial = ideal_set
        state = apply_pulse(initial, params, noise, 1)
        out = condition_on_component(state, "P_y")
        i = state.layout.index("P_y")
        assert not out.cov[i, :].any()
        assert not out.cov[:, i].any()

    def test_idempotent(self, lossy_set):
        params, noise, initial = lossy_set
        state = apply_pulse(initial, params, noise, 1)
        once = condition_on_component(state, "P_y")
        twice = condition_on_component(once, "P_y")
        np.testing.assert_array_equal(once.cov, twice.cov)

    def test_deterministic_component_is_a_no_op(self):
        layout = Layout(1)
        cov = np.diag([0.0, 1.0, 2.0, 3.0, 0.0, 4.0])
        state = GaussianState(layout, np.zeros(6), cov)
        out = condition_on_component(state, "P_y")  # var(P_y) = 0
        np.testing.assert_array_equal(out.cov, state.cov)

    def test_mean_is_kept(self, ideal_set):
        params, noise, initial = ideal_set
        state = apply_pulse(initial, params, noise, 1)
        out = condition_on_component(state, "P_y")
        np.testing.assert_array_equal(out.mean, state.mean)

    def test_unknown_label(self, ideal_set):
        _, _, initial = ideal_set
        from qndcert import LayoutError
        with pytest.raises(LayoutError):
            condition_on_component(initial, "X_y")


class TestConditionalVariance:
    def test_ideal_round_numbers(self):
        assert conditional_variance_ideal(25.0, 25.0, 1.0) == 12.5

    def test_ideal_strong_coupling_limit(self):
        # kappa -> infinity pins J_z completely
        assert conditional_variance_ideal(25.0, 25.0, 1e9) < 1e-15

    def test_ideal_rejects_zero_denominator(self):
        with pytest.raises(UndefinedInputError):
            conditional_variance_ideal(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("form, j33, c22, message", [
        ("ideal", -1.0, 25.0, "variances must be nonnegative, got j33=-1.0, "
                              "c22=25.0"),
        ("general", 25.0, -1.0, "variances must be nonnegative, got "
                                "j33=25.0, c22=-1.0"),
        # kappa 1, r_l 1, no noise: var_p = j33 + c22
        ("general", 0.0, 0.0, "conditional variance undefined: meter "
                              "variance var_p == 0"),
    ])
    def test_refusals(self, ideal_set, form, j33, c22, message):
        params, noise, _ = ideal_set
        with pytest.raises(UndefinedInputError, match=f"^{message}$"):
            if form == "ideal":
                conditional_variance_ideal(j33, c22, params.kappa)
            else:
                conditional_variance_general(params, noise, j33, c22)

    def test_general_reduces_to_ideal(self, ideal_set):
        params, _, _ = ideal_set
        from qndcert import NoiseModel
        general = conditional_variance_general(params, NoiseModel.zero(),
                                               25.0, 25.0)
        assert general == pytest.approx(
            conditional_variance_ideal(25.0, 25.0, 1.0), rel=1e-14)

    def test_general_agrees_with_matrix_conditioning(self, noisy_set):
        params, noise, initial = noisy_set
        state = apply_pulse(initial, params, noise, 1)
        conditioned = condition_on_component(state, "P_y")
        assert conditional_variance_general(params, noise, 25.0, 25.0) == \
            pytest.approx(get_entry(conditioned, "J_z", "J_z"), rel=1e-12)

    def test_measurable_form_agrees_with_model_form(self, noisy_set):
        # the statistics-only expression and the parameter expression
        # are two routes to the same number
        params, noise, initial = noisy_set
        measured = predicted_moments(params, noise, initial)
        delta = delta_stats(measured, no_atoms_moments(params, initial),
                            params.r_l)
        from_stats = invert_three_pulse(delta, measured.var_p, params.kappa,
                                        25.0).cond_var_jz
        assert from_stats == pytest.approx(
            conditional_variance_general(params, noise, 25.0, 25.0),
            rel=1e-12)

    @pytest.mark.parametrize("set_name", ["ideal_set", "lossy_set",
                                          "noisy_set"])
    @pytest.mark.parametrize("reader", ["invert_three_pulse", "certify",
                                        "certify-two-pulses"])
    def test_every_reader_agrees_with_the_model_form(self, request, reader,
                                                     set_name):
        # the places the README names for the measured conditional
        # variance: the inversion, certify's estimates, and on two
        # pulses dx2_s_given_m times j0
        params, noise, initial = request.getfixturevalue(set_name)
        measured = predicted_moments(params, noise, initial)
        delta = delta_stats(measured, no_atoms_moments(params, initial),
                            params.r_l)
        if reader == "invert_three_pulse":
            value = invert_three_pulse(delta, measured.var_p, params.kappa,
                                       25.0).cond_var_jz
        elif reader == "certify":
            value = certify(delta, measured.var_p, params.kappa, 25.0,
                            20.0).estimates.cond_var_jz
        else:
            two = DeltaStats(2, d_var_p=delta.d_var_p, d_var_q=delta.d_var_q,
                             d_cov_pq=delta.d_cov_pq)
            value = certify(two, measured.var_p, params.kappa, 25.0,
                            20.0).nonclassical.dx2_s_given_m * 20.0
        assert value == pytest.approx(
            conditional_variance_general(params, noise, 25.0, 25.0),
            rel=1e-12)

    def test_measured_form_needs_two_pulses(self):
        # one pulse has no second meter to condition: no figure, no
        # estimate, and the inversion refuses
        delta = DeltaStats(n_pulses=1, d_var_p=25.0)
        report = certify(delta, 50.0, 1.0, 25.0, 20.0)
        assert report.estimates is None
        assert report.nonclassical.dx2_s_given_m is None
        with pytest.raises(UndefinedInputError,
                           match="^three-pulse inversion needs three "
                                 "pulses, got 1$"):
            invert_three_pulse(delta, 50.0, 1.0, 25.0)

    def test_known_lossy_value(self, lossy_set):
        params, noise, initial = lossy_set
        expected = 16.0 - 400.0 / 45.25
        assert conditional_variance_general(params, noise, 25.0, 25.0) == \
            pytest.approx(expected, rel=1e-14)
