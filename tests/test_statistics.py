import copy
import dataclasses
import json
import math
import pickle
import warnings

import numpy as np
import pytest

from qndcert import (
    AtomicBlock,
    DeltaStats,
    DimensionMismatchError,
    ExperimentParams,
    Layout,
    MomentAccumulator,
    MomentSet,
    NoiseModel,
    OpticalBlock,
    UndefinedInputError,
    certify,
    closed_form_error,
    delta_stats,
    get_entry,
    make_initial_state,
    meter_moments,
    no_atoms_moments,
    predicted_moments,
    propagate,
    simulate_moments,
)
from qndcert import certification, selftest, statistics
from qndcert.montecarlo import CHUNK_SHOTS, arm_chunks
from qndcert.statistics import ARM_ROLES
from qndcert.report import delta_to_dict

from conftest import random_psd


class TestPredictedMoments:
    def test_ideal_values(self, ideal_set):
        m = predicted_moments(*ideal_set)
        assert (m.var_p, m.var_q, m.var_r) == (50.0, 50.0, 50.0)
        assert (m.cov_pq, m.cov_pr, m.cov_qr) == (25.0, 25.0, 25.0)

    def test_lossy_values(self, lossy_set):
        m = predicted_moments(*lossy_set)
        assert m.var_p == pytest.approx(45.25, abs=1e-12)
        assert m.var_q == pytest.approx(36.25, abs=1e-12)
        assert m.var_r == pytest.approx(30.49, abs=1e-12)
        assert m.cov_pq == pytest.approx(20.0, abs=1e-12)
        assert m.cov_pr == pytest.approx(16.0, abs=1e-12)
        assert m.cov_qr == pytest.approx(12.8, abs=1e-12)

    def test_noisy_values(self, noisy_set):
        m = predicted_moments(*noisy_set)
        assert m.var_p == pytest.approx(49.25, abs=1e-12)
        assert m.var_q == pytest.approx(42.25, abs=1e-12)
        assert m.var_r == pytest.approx(37.77, abs=1e-12)
        assert m.cov_pq == pytest.approx(20.5, abs=1e-12)
        assert m.cov_pr == pytest.approx(16.4, abs=1e-12)
        assert m.cov_qr == pytest.approx(14.9, abs=1e-12)

    def test_agrees_with_matrix_pipeline_on_random_models(self):
        rng = np.random.default_rng(17)
        layout = Layout(3)
        for _ in range(50):
            params = ExperimentParams(g_tau=rng.uniform(0.005, 0.05),
                                      mean_sx=rng.uniform(10.0, 100.0),
                                      mean_jx=rng.uniform(5.0, 100.0),
                                      r_a=rng.uniform(0.5, 1.0),
                                      r_l=rng.uniform(0.5, 1.0))
            noise = NoiseModel(random_psd(rng, 6, rng.uniform(0.1, 10.0)))
            initial = make_initial_state(
                AtomicBlock(mean_jx=params.mean_jx,
                            cov=random_psd(rng, 3, rng.uniform(1.0, 100.0))),
                OpticalBlock(mean_sx=params.mean_sx,
                             cov=random_psd(rng, 9, rng.uniform(1.0, 100.0))),
                layout)
            closed = predicted_moments(params, noise, initial)
            direct = meter_moments(propagate(params, noise, initial))
            for name, expected in direct.entries().items():
                assert getattr(closed, name) == pytest.approx(expected,
                                                              rel=1e-11), name

    def test_shorter_runs_have_fewer_fields(self, ideal_set):
        params, noise, _ = ideal_set
        layout = Layout(2)
        initial = make_initial_state(AtomicBlock.coherent(100.0),
                                     OpticalBlock.coherent(100.0, 2), layout)
        m = predicted_moments(params, noise, initial)
        assert m.n_pulses == 2
        assert m.var_r is None
        assert m.cov_pr is None
        assert m.cov_pq == 25.0

    def test_rejects_precorrelated_atom_light_input(self, ideal_set):
        params, noise, initial = ideal_set
        cov = np.asarray(initial.cov).copy()
        cov[2, 4] = cov[4, 2] = 1.0  # J_z already knows about P_y
        from qndcert import GaussianState, UndefinedInputError
        tangled = GaussianState(initial.layout, initial.mean, cov)
        with pytest.raises(UndefinedInputError):
            predicted_moments(params, noise, tangled)


class TestNoAtomsReference:
    def test_reference_sees_bare_light(self, noisy_set):
        params, _, initial = noisy_set
        ref = no_atoms_moments(params, initial)
        assert (ref.var_p, ref.var_q, ref.var_r) == (25.0, 25.0, 25.0)
        assert (ref.cov_pq, ref.cov_pr, ref.cov_qr) == (0.0, 0.0, 0.0)

    def test_reference_keeps_cross_pulse_light_correlations(self, ideal_set):
        params, _, _ = ideal_set
        layout = Layout(2)
        cov = np.zeros((6, 6))
        cov[np.diag_indices(6)] = [0.0, 25.0, 25.0, 0.0, 25.0, 25.0]
        cov[1, 4] = cov[4, 1] = 7.0  # shared technical noise between pulses
        initial = make_initial_state(AtomicBlock.coherent(100.0),
                                     OpticalBlock(50.0, cov), layout)
        ref = no_atoms_moments(params, initial)
        assert ref.cov_pq == 7.0


class TestDeltaStats:
    def test_subtracts_scaled_reference(self, noisy_set):
        params, noise, initial = noisy_set
        measured = predicted_moments(params, noise, initial)
        delta = delta_stats(measured, no_atoms_moments(params, initial),
                            params.r_l)
        assert delta.d_var_p == pytest.approx(29.0, abs=1e-12)
        assert delta.d_var_q == pytest.approx(22.0, abs=1e-12)
        assert delta.d_var_r == pytest.approx(17.52, abs=1e-12)
        assert delta.d_cov_pq == pytest.approx(20.5, abs=1e-12)
        assert delta.d_cov_pr == pytest.approx(16.4, abs=1e-12)

    def test_delta_insensitive_to_shared_light_noise(self):
        # correlated technical noise common to both arms cancels exactly
        params = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0)
        layout = Layout(3)
        rng = np.random.default_rng(23)
        plain = OpticalBlock.coherent(100.0, 3)
        noisy_cov = np.asarray(plain.cov) + random_psd(rng, 9, 4.0)
        atoms = AtomicBlock.coherent(100.0)
        for optical in (plain, OpticalBlock(50.0, noisy_cov)):
            initial = make_initial_state(atoms, optical, layout)
            measured = predicted_moments(params, NoiseModel.zero(), initial)
            delta = delta_stats(measured, no_atoms_moments(params, initial),
                                params.r_l)
            assert delta.d_cov_pq == pytest.approx(25.0, abs=1e-10)

    def test_standard_errors_combine(self):
        measured = MomentSet(n_pulses=1, var_p=50.0, n_shots=100,
                             se={"var_p": 0.3})
        reference = MomentSet(n_pulses=1, var_p=25.0, n_shots=100,
                              se={"var_p": 0.4})
        delta = delta_stats(measured, reference, 0.5)
        assert delta.d_var_p == pytest.approx(50.0 - 0.25 * 25.0)
        assert delta.se_of("d_var_p") == pytest.approx(
            np.hypot(0.3, 0.25 * 0.4))

    @pytest.mark.parametrize("r_l, message", [
        (-3.0, "r_l: must be >= 0.0, got -3.0"),
        (7.0, "r_l: must be <= 1.0, got 7.0"),
        (math.nan, "r_l: must be finite, got nan"),
        (math.inf, "r_l: must be finite, got inf"),
    ])
    def test_r_l_follows_the_config_rule(self, noisy_set, r_l, message):
        # r_l -3 certified a noisy set, and 7 or NaN failed it with
        # confidence: delta_stats takes the rule the flag and config take
        params, noise, initial = noisy_set
        measured, reference = simulate_moments(params, noise, initial,
                                               2000, 5)
        with pytest.raises(UndefinedInputError, match=f"^{message}$"):
            delta_stats(measured, reference, r_l)

    def test_arm_shape_mismatch(self):
        measured = MomentSet(n_pulses=2, var_p=1.0, var_q=1.0, cov_pq=0.0)
        reference = MomentSet(n_pulses=1, var_p=1.0)
        with pytest.raises(ValueError):
            delta_stats(measured, reference, 1.0)


class TestClosedFormError:
    """The per-model check behind acceptance criterion 1 and the selftest
    must notice a closed form that is off far below any gate."""

    def test_perturbed_moment_is_caught(self, noisy_set, monkeypatch):
        original = selftest.predicted_moments

        def perturbed(*args):
            moments = original(*args)
            values = moments.entries()
            values["var_q"] *= 1.0 + 1e-6
            return MomentSet(n_pulses=moments.n_pulses, **values)

        monkeypatch.setattr(selftest, "predicted_moments", perturbed)
        assert closed_form_error(*noisy_set, 25.0) > 1e-9

    def test_perturbed_conditional_variance_is_caught(self, noisy_set,
                                                      monkeypatch):
        original = selftest.conditional_variance_general
        monkeypatch.setattr(selftest, "conditional_variance_general",
                            lambda *args: original(*args) * (1.0 + 1e-6))
        assert closed_form_error(*noisy_set, 25.0) > 1e-9

    @pytest.mark.parametrize("helper, name", [
        ("_figures", "dx2_m"), ("_figures", "dx2_s_given_m"),
        ("_figures", "dx2_s"), ("_transfer_figures", "c2_in_meter"),
        ("_transfer_figures", "c2_in_out"),
        ("_transfer_figures", "c2_out_meter"),
    ])
    def test_perturbed_certification_figure_is_caught(self, noisy_set,
                                                      monkeypatch, helper,
                                                      name):
        original = getattr(certification, helper)

        def perturbed(*args):
            figures = original(*args)
            if isinstance(figures, dict):
                return {**figures, name: figures[name] * (1.0 + 1e-6)}
            return dataclasses.replace(
                figures, **{name: getattr(figures, name) * (1.0 + 1e-6)})

        assert closed_form_error(*noisy_set, 25.0) <= 1e-9
        monkeypatch.setattr(certification, helper, perturbed)
        assert closed_form_error(*noisy_set, 25.0) > 1e-9


class TestMomentSetValidation:
    def test_missing_field_for_pulse_count(self):
        with pytest.raises(ValueError):
            MomentSet(n_pulses=2, var_p=1.0)

    def test_unexpected_field_for_pulse_count(self):
        with pytest.raises(ValueError):
            MomentSet(n_pulses=1, var_p=1.0, var_q=1.0)

    def test_negative_variance(self):
        with pytest.raises(ValueError):
            MomentSet(n_pulses=1, var_p=-1.0)

    def test_delta_allows_negative_differences(self):
        # reference subtraction can legitimately go below zero
        delta = DeltaStats(n_pulses=1, d_var_p=-3.0)
        assert delta.d_var_p == -3.0


class TestMomentAccumulator:
    def test_matches_numpy_two_pass(self):
        rng = np.random.default_rng(31)
        rows = rng.normal(size=(5000, 3)) @ random_psd(rng, 3, 2.0)
        acc = MomentAccumulator(3)
        for start in range(0, 5000, 700):  # uneven chunks on purpose
            acc.update(rows[start:start + 700])
        assert acc.count == 5000
        np.testing.assert_allclose(acc.mean, rows.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(acc.moments().cov,
                                   np.cov(rows, rowvar=False), rtol=1e-10)

    @pytest.mark.parametrize("n_rows", [CHUNK_SHOTS, 2 * CHUNK_SHOTS + 5])
    def test_whole_array_is_fed_in_chunks(self, n_rows):
        # one update of a whole array gives the bits of its CHUNK_SHOTS
        # chunks fed one by one, as every streamed arm is fed
        rng = np.random.default_rng(n_rows)
        rows = rng.normal(3.0, 7.0, (n_rows, 3))
        whole = MomentAccumulator(3)
        whole.update(rows)
        chunked = MomentAccumulator(3)
        for start in range(0, n_rows, CHUNK_SHOTS):
            chunked.update(rows[start:start + CHUNK_SHOTS])
        assert whole.count == chunked.count == n_rows
        np.testing.assert_array_equal(whole.mean, chunked.mean)
        np.testing.assert_array_equal(whole.comoment, chunked.comoment)

    @pytest.mark.parametrize("shape", [(4, 3), (4,), (0, 3)])
    def test_update_refuses_another_width(self, shape):
        acc = MomentAccumulator(2)
        acc.update(np.ones((5, 2)))
        with pytest.raises(DimensionMismatchError, match=r"\(n, 2\) rows"):
            acc.update(np.ones(shape))
        assert acc.count == 5

    def test_covariance_needs_two_rows(self):
        acc = MomentAccumulator(2)
        acc.update(np.ones((1, 2)))
        with pytest.raises(UndefinedInputError,
                           match="^need at least 2 shots per arm$"):
            acc.moments()


def _moments_of(rows):
    acc = MomentAccumulator(rows.shape[1])
    acc.update(rows)
    return acc.moments()


class TestSampleMoments:
    def test_matches_direct_estimators(self):
        rng = np.random.default_rng(41)
        with_atoms = rng.normal(size=(400, 3)) * 2.0
        no_atoms = rng.normal(size=(400, 3))
        measured, reference = _moments_of(with_atoms), _moments_of(no_atoms)
        assert measured.n_shots == 400
        # every label against the entry of np.cov it must name
        pairs = {"var_p": (0, 0), "var_q": (1, 1), "var_r": (2, 2),
                 "cov_pq": (0, 1), "cov_pr": (0, 2), "cov_qr": (1, 2)}
        for rows, moments in ((with_atoms, measured), (no_atoms, reference)):
            cov = np.cov(rows, rowvar=False, ddof=1)
            assert list(moments.entries()) == list(pairs)
            assert sorted(moments.se) == sorted(pairs)
            for name, (j, k) in pairs.items():
                assert getattr(moments, name) == pytest.approx(
                    cov[j, k], rel=1e-12), name
                if j == k:
                    se = cov[j, j] * np.sqrt(2.0 / 399)
                else:
                    se = np.sqrt((cov[j, j] * cov[k, k] + cov[j, k] ** 2)
                                 / 399)
                assert moments.se[name] == pytest.approx(se, rel=1e-12), name

    def test_variance_standard_error_formula(self):
        rng = np.random.default_rng(43)
        rows = rng.normal(size=(250, 3))
        measured = _moments_of(rows)
        expected = measured.var_p * np.sqrt(2.0 / (250 - 1))
        assert measured.se["var_p"] == pytest.approx(expected, rel=1e-12)

    def test_covariance_standard_error_formula(self):
        rng = np.random.default_rng(47)
        rows = rng.normal(size=(250, 2))
        measured = _moments_of(rows)
        expected = np.sqrt(
            (measured.var_p * measured.var_q + measured.cov_pq ** 2)
            / (250 - 1))
        assert measured.se["cov_pq"] == pytest.approx(expected, rel=1e-12)


class TestSqueezing:
    def test_ideal_margin(self, ideal_set):
        params, noise, initial = ideal_set
        measured = predicted_moments(params, noise, initial)
        delta = delta_stats(measured, no_atoms_moments(params, initial),
                            params.r_l)
        verdict = certify(delta, measured.var_p, 1.0, 25.0, 25.0).squeezing
        assert verdict.squeezed
        assert verdict.margin == pytest.approx(625.0, abs=1e-9)

    def test_damage_flips_the_verdict(self):
        # meter that learns nothing but still kicks the spin
        delta = DeltaStats(n_pulses=2, d_var_p=1.0, d_var_q=30.0,
                           d_cov_pq=0.5)
        verdict = certify(delta, 50.0, 1.0, 25.0, 25.0).squeezing
        assert not verdict.squeezed
        assert verdict.margin < 0.0


# The per-name tables and loops the meter covariance replaced, kept here
# as the reference every producer must still match bit for bit.
_OLD_PAIRS = {
    1: (("var_p", 0, 0),),
    2: (("var_p", 0, 0), ("var_q", 1, 1), ("cov_pq", 0, 1)),
    3: (("var_p", 0, 0), ("var_q", 1, 1), ("var_r", 2, 2),
        ("cov_pq", 0, 1), ("cov_pr", 0, 2), ("cov_qr", 1, 2)),
}
_OLD_DELTA_NAMES = {
    1: ("d_var_p",),
    2: ("d_var_p", "d_var_q", "d_cov_pq"),
    3: ("d_var_p", "d_var_q", "d_var_r", "d_cov_pq", "d_cov_pr"),
}


def _old_sample_moments(chunks, n_pulses):
    acc = MomentAccumulator(n_pulses)
    for chunk in chunks:
        acc.update(chunk)
    n, cov = acc.count, acc.moments().cov
    values, ses = {}, {}
    for name, j, k in _OLD_PAIRS[n_pulses]:
        c = float(cov[j, k])
        values[name] = c
        if j == k:
            ses[name] = c * np.sqrt(2.0 / (n - 1))
        else:
            ses[name] = np.sqrt((cov[j, j] * cov[k, k] + c * c) / (n - 1))
    return values, ses


def _old_meter_moments(state):
    meters = state.layout.meter_labels
    return {name: get_entry(state, meters[j], meters[k])
            for name, j, k in _OLD_PAIRS[state.layout.n_pulses]}


def _old_predicted_moments(params, noise, initial):
    kappa = params.kappa
    meters = initial.layout.meter_labels
    a = [get_entry(initial, "J_z", "J_z")]
    for _ in range(initial.layout.n_pulses - 1):
        a.append(params.r_a ** 2 * a[-1] + noise.n33)
    values = {}
    for name, j, k in _OLD_PAIRS[initial.layout.n_pulses]:
        light = params.r_l ** 2 * get_entry(initial, meters[j], meters[k])
        if j == k:
            values[name] = light + kappa * kappa * a[k] + noise.n55
        else:
            values[name] = (light
                            + kappa * kappa * params.r_a ** (k - j) * a[j]
                            + kappa * params.r_a ** (k - 1 - j) * noise.n35)
    return values


def _old_delta_stats(measured, reference, r_l):
    scale = r_l * r_l
    values, ses = {}, {}
    for name in _OLD_DELTA_NAMES[measured.n_pulses]:
        moment = name[2:]
        values[name] = (getattr(measured, moment)
                        - scale * getattr(reference, moment))
        if measured.se is not None and reference.se is not None:
            ses[name] = float(np.hypot(measured.se[moment],
                                       scale * reference.se[moment]))
    return values, ses or None


def _run(n_pulses):
    params = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0,
                                         r_a=0.8, r_l=0.9)
    noise = NoiseModel.from_entries({(3, 3): 2.0, (3, 5): 0.5, (5, 5): 4.0})
    initial = make_initial_state(AtomicBlock.coherent(100.0),
                                 OpticalBlock.coherent(100.0, n_pulses),
                                 Layout(n_pulses))
    return params, noise, initial


def _sampled(n_pulses, n_shots, seed):
    """Sampled (probe arm, reference arm) moments of the README model."""
    return simulate_moments(*_run(n_pulses), n_shots, seed)


def _random_model(rng, n_pulses):
    params = ExperimentParams(g_tau=rng.uniform(0.005, 0.05),
                              mean_sx=rng.uniform(10.0, 100.0),
                              mean_jx=rng.uniform(5.0, 100.0),
                              r_a=rng.uniform(0.5, 1.0),
                              r_l=rng.uniform(0.5, 1.0))
    noise = NoiseModel(random_psd(rng, 6, rng.uniform(0.1, 10.0)))
    initial = make_initial_state(
        AtomicBlock(mean_jx=params.mean_jx,
                    cov=random_psd(rng, 3, rng.uniform(1.0, 100.0))),
        OpticalBlock(mean_sx=params.mean_sx,
                     cov=random_psd(rng, 3 * n_pulses,
                                    rng.uniform(1.0, 100.0))),
        Layout(n_pulses))
    return params, noise, initial


def _assert_same(got: dict, want: dict):
    # Same keys in the same order, same values bit for bit, same types.
    assert list(got) == list(want)
    assert [(v, type(v)) for v in got.values()] \
        == [(v, type(v)) for v in want.values()]


def _assert_same_se(got: dict, want: dict):
    # Same keys in the same order, Python floats within 1e-15 relative of
    # the per-name formulas: the square root of the Isserlis covariance's
    # diagonal, and of its sum over the arms, rounds differently from
    # var * sqrt(2 / (n - 1)) and from np.hypot.
    assert list(got) == list(want)
    assert all(type(v) is float for v in got.values())
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-15 * abs(value), name


class TestMeterCovarianceExactness:
    """Every producer hands over one meter covariance; each named view,
    ``entries()`` and ``se`` equal what the per-name loops gave."""

    @pytest.mark.parametrize("n_shots", [2, CHUNK_SHOTS - 1, CHUNK_SHOTS + 1,
                                         50_000])
    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    def test_sample_moments_and_deltas(self, n_pulses, n_shots):
        seed = n_pulses + n_shots
        measured, reference = _sampled(n_pulses, n_shots, seed)
        for moments, role in zip((measured, reference), ARM_ROLES):
            values, ses = _old_sample_moments(arm_chunks(
                *_run(n_pulses), n_shots, seed,
                with_atoms=role == "with_atoms"), n_pulses)
            _assert_same(moments.entries(), values)
            _assert_same_se(moments.se, ses)
            assert moments.n_shots == n_shots
            for name, value in values.items():
                assert getattr(moments, name) == value
        for r_l in (0.9, 0.61, 1.0):
            delta = delta_stats(measured, reference, r_l)
            values, ses = _old_delta_stats(measured, reference, r_l)
            _assert_same(delta.entries(), values)
            _assert_same_se(delta.se, ses)

    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    def test_closed_forms_matrix_route_and_deltas(self, n_pulses):
        rng = np.random.default_rng(60 + n_pulses)
        for _ in range(40):
            params, noise, initial = _random_model(rng, n_pulses)
            predicted = predicted_moments(params, noise, initial)
            _assert_same(predicted.entries(),
                         _old_predicted_moments(params, noise, initial))
            propagated = propagate(params, noise, initial)
            _assert_same(meter_moments(propagated).entries(),
                         _old_meter_moments(propagated))
            reference = no_atoms_moments(params, initial)
            _assert_same(reference.entries(), _old_meter_moments(initial))
            assert predicted.se is reference.se is None
            delta = delta_stats(predicted, reference, params.r_l)
            values, ses = _old_delta_stats(predicted, reference, params.r_l)
            _assert_same(delta.entries(), values)
            assert delta.se is ses is None

    @pytest.mark.parametrize("n_shots", [2, 50_000])
    def test_d_cov_qr_is_carried_but_not_reported(self, n_shots):
        measured, reference = _sampled(3, n_shots, seed=5)
        r_l = 0.9
        delta = delta_stats(measured, reference, r_l)
        expected = measured.cov_qr - r_l**2 * reference.cov_qr
        assert delta.cov[1, 2] == expected
        assert delta.d_cov_qr == expected
        assert "d_cov_qr" not in delta.entries()
        assert "d_cov_qr" not in delta.se
        assert "d_cov_qr" not in json.dumps(delta_to_dict(delta))
        assert list(delta_to_dict(delta)) == list(_OLD_DELTA_NAMES[3]) + ["se"]

    def test_hand_built_delta_may_leave_out_d_cov_qr(self):
        delta = DeltaStats(n_pulses=3, d_var_p=1.0, d_var_q=2.0, d_var_r=3.0,
                           d_cov_pq=0.5, d_cov_pr=0.25)
        assert np.isnan(delta.cov[1, 2]) and np.isnan(delta.cov[2, 1])
        assert delta.d_cov_qr is None
        given = DeltaStats(n_pulses=3, d_var_p=1.0, d_var_q=2.0, d_var_r=3.0,
                           d_cov_pq=0.5, d_cov_pr=0.25, d_cov_qr=-0.5)
        assert given.d_cov_qr == given.cov[2, 1] == -0.5
        assert "d_cov_qr" not in given.entries()

    def test_moments_are_read_only(self):
        measured, _ = _sampled(3, 100, seed=9)
        delta = DeltaStats(n_pulses=2, d_var_p=1.0, d_var_q=2.0, d_cov_pq=0.5)
        for moments, names in ((measured, ["var_p", "cov_qr"]),
                               (delta, ["d_var_p", "d_var_r"])):
            assert not moments.cov.flags.writeable
            with pytest.raises(ValueError):
                moments.cov[0, 0] = 1.0
            for name in [*names, "cov", "n_pulses", "se"]:
                with pytest.raises(AttributeError):
                    setattr(moments, name, 1.0)
                with pytest.raises(AttributeError):
                    delattr(moments, name)
        assert measured.var_p == measured.cov[0, 0]

    def test_pickle_and_copy_keep_every_bit(self):
        measured, _ = _sampled(3, 1000, seed=4)
        for clone in (pickle.loads(pickle.dumps(measured)),
                      copy.deepcopy(measured)):
            assert type(clone) is MomentSet
            assert clone.cov.tobytes() == measured.cov.tobytes()
            _assert_same(clone.entries(), measured.entries())
            assert clone.se == measured.se and clone.n_shots == 1000
            assert not clone.cov.flags.writeable
            assert clone.moment_cov.tobytes() == measured.moment_cov.tobytes()
            assert not clone.moment_cov.flags.writeable

    @pytest.mark.parametrize("bad", [2.0, True, np.int64(2), 0, 4])
    def test_pulse_count_must_be_an_int(self, bad):
        with pytest.raises(ValueError, match="n_pulses must be 1, 2 or 3"):
            MomentSet(n_pulses=bad, var_p=1.0, var_q=1.0, cov_pq=0.0)
        with pytest.raises(ValueError, match="n_pulses must be 1, 2 or 3"):
            DeltaStats(n_pulses=bad, d_var_p=1.0, d_var_q=1.0, d_cov_pq=0.0)

    @pytest.mark.parametrize("cls, kwargs, message", [
        (MomentSet, dict(n_pulses=2, var_p=1.0, cov_pq=0.0),
         "var_q required for n_pulses=2"),
        (MomentSet, dict(n_pulses=1, var_p=1.0, var_r=1.0),
         "var_r not defined for n_pulses=1"),
        (MomentSet, dict(n_pulses=1, var_p=1.0, se={"var_q": 0.1}),
         r"standard errors for absent moments: \['var_q'\]"),
        (MomentSet, dict(n_pulses=2, var_p=1.0, var_q=-2.0, cov_pq=0.0),
         "var_q must be nonnegative, got -2.0"),
        (DeltaStats, dict(n_pulses=3, d_var_p=1.0, d_var_q=1.0,
                          d_var_r=1.0, d_cov_pq=1.0),
         "d_cov_pr required for n_pulses=3"),
        (DeltaStats, dict(n_pulses=2, d_var_p=1.0, d_var_q=1.0,
                          d_cov_pq=1.0, d_cov_qr=1.0),
         "d_cov_qr not defined for n_pulses=2"),
        (DeltaStats, dict(n_pulses=3, d_var_p=1.0, d_var_q=1.0,
                          d_var_r=1.0, d_cov_pq=1.0, d_cov_pr=1.0,
                          se={"d_cov_qr": 0.1}),
         r"standard errors for absent moments: \['d_cov_qr'\]"),
        (MomentSet, dict(n_pulses=2, var_p=1.0, var_q=1.0, cov_pq=0.0,
                         se={"var_q": -0.5}),
         "standard error of var_q must be finite and nonnegative, got -0.5"),
        (MomentSet, dict(n_pulses=1, var_p=1.0, se={"var_p": math.inf}),
         "standard error of var_p must be finite and nonnegative, got inf"),
        (DeltaStats, dict(n_pulses=3, d_var_p=1.0, d_var_q=1.0, d_var_r=1.0,
                          d_cov_pq=1.0, d_cov_pr=0.0,
                          se={"d_cov_pq": 1.0, "d_cov_pr": math.nan}),
         "standard error of d_cov_pr must be finite and nonnegative, got nan"),
        (DeltaStats, dict(n_pulses=3, d_var_p=25.0, d_var_q=20.0,
                          d_var_r=16.0, d_cov_pq=0.0, d_cov_pr=16.0,
                          se={"d_cov_pq": -1.0, "d_cov_pr": 1.0}),
         r"standard error of d_cov_pq must be finite and nonnegative, "
         r"got -1\.0"),
        # a standard error whose square Sigma = diag(se**2) cannot hold
        (MomentSet, dict(n_pulses=1, var_p=1.0, se={"var_p": 1e200}),
         r"standard error of var_p = 1e\+200 has a square out of "
         r"floating-point range"),
        (DeltaStats, dict(n_pulses=2, d_var_p=1.0, d_var_q=1.0,
                          d_cov_pq=1.0, se={"d_cov_pq": 1e-170}),
         "standard error of d_cov_pq = 1e-170 has a square out of "
         "floating-point range"),
        # a non-finite moment, refused as a non-finite standard error is
        (MomentSet, dict(n_pulses=1, var_p=math.nan), "var_p must be finite, "
                                                      "got nan"),
        (MomentSet, dict(n_pulses=2, var_p=1.0, var_q=math.inf, cov_pq=0.0),
         "var_q must be finite, got inf"),
        (MomentSet, dict(n_pulses=2, var_p=1.0, var_q=1.0, cov_pq=-math.inf),
         "cov_pq must be finite, got -inf"),
        (DeltaStats, dict(n_pulses=3, d_var_p=math.nan, d_var_q=1.0,
                          d_var_r=1.0, d_cov_pq=1.0, d_cov_pr=1.0),
         "d_var_p must be finite, got nan"),
        (DeltaStats, dict(n_pulses=3, d_var_p=1.0, d_var_q=1.0, d_var_r=1.0,
                          d_cov_pq=1.0, d_cov_pr=-math.inf),
         "d_cov_pr must be finite, got -inf"),
        (DeltaStats, dict(n_pulses=3, d_var_p=1.0, d_var_q=1.0, d_var_r=1.0,
                          d_cov_pq=1.0, d_cov_pr=1.0, d_cov_qr=math.nan),
         "d_cov_qr must be finite, got nan"),
    ])
    def test_keyword_refusals_keep_their_messages(self, cls, kwargs,
                                                  message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(**kwargs)

    def test_unknown_name_is_a_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            MomentSet(n_pulses=1, var_p=1.0, var_x=2.0)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            DeltaStats(n_pulses=1, d_var_p=1.0, var_p=2.0)


class TestErrorCovariance:
    """The joint covariance Sigma of the sampled moments' errors."""

    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    def test_isserlis_per_arm(self, n_pulses):
        for moments in _sampled(n_pulses, 3000, seed=12):
            n, cov = moments.n_shots, moments.cov
            pairs = [pair for pair in _OLD_PAIRS[n_pulses]]
            assert moments.moment_cov.shape == (len(pairs),) * 2
            assert not moments.moment_cov.flags.writeable
            for a, (name_a, i, j) in enumerate(pairs):
                for b, (name_b, k, m) in enumerate(pairs):
                    want = (cov[i, k] * cov[j, m] + cov[i, m] * cov[j, k]) \
                        / (n - 1)
                    assert moments.moment_cov[a, b] == pytest.approx(
                        want, rel=1e-15), (name_a, name_b)
                assert moments.se[name_a] == np.sqrt(
                    moments.moment_cov[a, a])

    def test_isserlis_matches_the_spread_of_sampled_moments(self):
        # the covariance of the six sample moments over 300 seeds of 500
        # shots against the mean Isserlis prediction: every entry within
        # 0.25 of the largest variance (the spread of a 300-seed
        # covariance estimate is about 0.08 of it)
        samples, predicted = [], []
        for seed in range(300):
            moments, _ = _sampled(3, 500, seed)
            samples.append(list(moments.entries().values()))
            predicted.append(moments.moment_cov)
        spread = np.cov(np.array(samples), rowvar=False)
        mean = np.mean(predicted, axis=0)
        assert np.abs(spread - mean).max() < 0.25 * mean.diagonal().max()
        # the cross terms are large: var_p with cov_pq is strongly tied
        assert mean[0, 3] > 0.3 * np.sqrt(mean[0, 0] * mean[3, 3])

    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    def test_deltas_add_the_arms_and_var_p_comes_from_the_probe(self,
                                                               n_pulses):
        measured, reference = _sampled(n_pulses, 2000, 8)
        r_l = 0.7
        delta = delta_stats(measured, reference, r_l)
        names = list(measured.entries())  # the delta's, d_cov_qr included
        size = len(names)
        sigma = delta.moment_cov
        assert sigma.shape == (size + 1, size + 1)
        assert not sigma.flags.writeable
        np.testing.assert_allclose(
            sigma[:size, :size],
            measured.moment_cov + r_l ** 4 * reference.moment_cov,
            rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(sigma[size, :size],
                                      measured.moment_cov[0])
        np.testing.assert_array_equal(sigma[:size, size],
                                      measured.moment_cov[0])
        assert sigma[size, size] == measured.moment_cov[0, 0]
        for name in delta.entries():
            k = names.index(name[2:])
            assert delta.se[name] == np.sqrt(sigma[k, k])
        got = delta._sigma(("d_var_p", "var_p", "d_var_r"))
        assert got[1] == [sigma[size, 0], sigma[size, size],
                          sigma[size, 2] if n_pulses == 3 else 0.0]

    def test_hand_built_standard_errors_give_a_diagonal(self):
        delta = DeltaStats(n_pulses=2, d_var_p=1.0, d_var_q=2.0,
                           d_cov_pq=0.5, se={"d_var_q": 0.3, "d_cov_pq": 0.1})
        np.testing.assert_array_equal(
            delta.moment_cov, np.diag([0.0, 0.3 * 0.3, 0.1 * 0.1, 0.0]))
        # every reported name, 0.0 where none was given
        assert delta.se == {"d_var_p": 0.0, "d_var_q": 0.3, "d_cov_pq": 0.1}
        assert MomentSet(n_pulses=1, var_p=1.0).moment_cov is None

    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    def test_standard_errors_read_sigmas_diagonal(self, n_pulses):
        measured, reference = _sampled(n_pulses, 2000, 8)
        delta = delta_stats(measured, reference, 0.7)
        rng = np.random.default_rng(n_pulses)
        keyword = [cls(n_pulses=n_pulses, se={
            name: value for name, value in zip(
                moments.entries(), rng.uniform(0.0, 2.0, size=6).tolist())
            if rng.uniform() < 0.6}, **moments.entries())
            for cls, moments in ((MomentSet, measured), (DeltaStats, delta))]
        for moments in (measured, reference, delta, *keyword):
            rows = moments._sigma_rows[n_pulses]
            want = {name: math.sqrt(moments.moment_cov[rows[name],
                                                       rows[name]])
                    for name in moments.entries()}
            assert moments.se == want
            assert all(type(value) is float for value in moments.se.values())

    def test_keyword_standard_errors_read_back_as_given(self):
        # every reported name, 0.0 where none was given, each given value
        # with its own bits
        given = {"d_var_p": 0.1, "d_cov_pr": 3.0 ** 0.5,
                 "d_var_r": 2.0 ** -500}
        delta = DeltaStats(n_pulses=3, se=given, d_var_p=1.0, d_var_q=1.0,
                           d_var_r=1.0, d_cov_pq=0.5, d_cov_pr=0.25)
        assert delta.se == {"d_var_p": 0.1, "d_var_q": 0.0,
                            "d_var_r": 2.0 ** -500, "d_cov_pq": 0.0,
                            "d_cov_pr": 3.0 ** 0.5}
        assert list(delta.se) == list(delta.entries())

    def test_se_is_a_new_dict_that_edits_do_not_reach(self):
        measured, reference = _sampled(3, 2000, 8)
        delta = delta_stats(measured, reference, 0.9)
        before = delta.se
        edited = delta.se
        edited["d_cov_pq"] = 1e9
        assert delta.se == before and delta.se is not delta.se
        assert delta.se_of("d_cov_pq") == before["d_cov_pq"]

    @pytest.mark.parametrize("cls, values", [
        (MomentSet, {"var_p": 4.0}),
        (DeltaStats, {"d_var_p": 4.0}),
    ])
    def test_integer_standard_errors_give_a_float_sigma(self, cls, values):
        # integer squares wrap in int64 past 3.04e9; Sigma must not
        name = next(iter(values))
        se = {name: 4_000_000_000}
        moments = cls(n_pulses=1, se=se, **values)
        assert moments.moment_cov.dtype == np.float64
        assert moments.moment_cov[0, 0] == 1.6e19
        assert moments.se == {name: 4e9}
        assert type(moments.se[name]) is float


class TestSigmaRowsReadTheArray:
    """What ``se`` and ``_sigma`` give equals what the array gives."""

    @staticmethod
    def _reference_sigma(moments, names):
        # Sigma's rows read from the array on each call
        full = moments.moment_cov.tolist()
        rows = [moments._sigma_rows[moments.n_pulses].get(name)
                for name in names]
        return [[0.0 if i is None or j is None else full[i][j] for j in rows]
                for i in rows]

    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    def test_rows_and_standard_errors_equal_the_array(self, n_pulses):
        measured, reference = _sampled(n_pulses, 2000, 8)
        delta = delta_stats(measured, reference, 0.7)
        hand = DeltaStats(n_pulses=n_pulses, se=dict(delta.se),
                          **delta.entries())
        for moments in (measured, reference, delta, hand):
            n = moments.n_pulses
            names = [*moments._sigma_rows[n], "absent"]
            got = moments._sigma(names)
            assert got == self._reference_sigma(moments, names)
            assert got is not moments._sigma(names)  # callers may edit it
            sds = np.sqrt(moments.moment_cov.diagonal())
            index = moments._sigma_rows[n]
            assert moments.se == {name: sds[index[name]]
                                  for name in moments._reported[n]}

    def test_inversion_and_certify_errors_equal_the_arrays(self):
        from qndcert import certify, invert_three_pulse
        from qndcert.estimation import _ROUTE_INPUTS, _ROUTE_KEYS, _routes
        measured, reference = _sampled(3, 2000, 8)
        delta = delta_stats(measured, reference, 0.9)
        values = [getattr(delta, name) for name in _ROUTE_INPUTS]
        # each key's error is its own sum: r_a's does not need the
        # variance route, which this run's noise leaves unavailable
        se = statistics._propagate_se(
            _routes, values, self._reference_sigma(delta, _ROUTE_INPUTS),
            _ROUTE_KEYS[:2])
        model = invert_three_pulse(delta, measured.var_p, 1.0, 25.0)
        assert model.r_a_se == se["r_a"]
        report = certify(delta, measured.var_p, 1.0, 25.0, 25.0,
                         var_p_se=measured.se["var_p"])
        assert report.se == report_se_from_array(report, delta)


def report_se_from_array(report, delta):
    """``certify``'s standard errors, Sigma read from the array."""
    from qndcert.certification import _INPUTS, _figures, _inputs
    sigma = TestSigmaRowsReadTheArray._reference_sigma(
        delta, _INPUTS + ("var_p",))
    sd = report.var_p_se
    rescale = sd / np.sqrt(sigma[4][4])
    for i in range(4):
        sigma[i][4] = sigma[4][i] = sigma[i][4] * rescale
    sigma[4][4] = sd * sd
    k2 = report.kappa * report.kappa
    route = tuple(report.se)
    return statistics._propagate_se(
        lambda v: _figures(v, k2, report.j33, report.j0, route),
        _inputs(delta, report.var_p), sigma, route)


class TestPropagation:
    """``statistics._propagate_se``: sqrt(diag(J Sigma J^T))."""

    def test_linear_figures_carry_the_cross_terms(self):
        sigma = [[4.0, 1.5, 0.0], [1.5, 1.0, -0.5], [0.0, -0.5, 9.0]]
        se = statistics._propagate_se(
            lambda v: {"sum": v[0] + v[1], "diff": v[1] - v[2],
                       "x": 2.0 * v[0]}, [3.0, -2.0, 7.0], sigma,
            ("sum", "diff", "x"))
        assert se["sum"] == pytest.approx(np.sqrt(4.0 + 1.0 + 3.0), rel=1e-9)
        assert se["diff"] == pytest.approx(np.sqrt(1.0 + 9.0 + 1.0), rel=1e-9)
        assert se["x"] == pytest.approx(4.0, rel=1e-9)

    def test_an_exact_input_is_never_perturbed(self):
        calls = []

        def fn(v):
            calls.append(list(v))
            return {"y": v[0] * v[1]}

        se = statistics._propagate_se(fn, [2.0, 5.0],
                                      [[0.0, 0.0], [0.0, 0.25]], ("y",))
        assert se["y"] == pytest.approx(1.0, rel=1e-9)
        assert len(calls) == 2 and all(point[0] == 2.0 for point in calls)

    def test_overflow_gives_inf_without_a_warning(self):
        # just below sqrt(max float): squaring the upper point overflows,
        # which Python raises on and float64 turns into inf, quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            se = statistics._propagate_se(lambda v: {"y": v[0] ** 2},
                                          [1.3407807e154], [[1.0]], ("y",))
        assert se["y"] == np.inf
