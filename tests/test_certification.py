import collections
import contextlib
import copy
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qndcert import (
    AtomicBlock,
    DeltaStats,
    ExperimentParams,
    Layout,
    NoiseModel,
    OpticalBlock,
    QndError,
    UndefinedInputError,
    certify,
    delta_stats,
    dump_json,
    exit_code,
    invert_three_pulse,
    MomentAccumulator,
    MomentSet,
    make_initial_state,
    no_atoms_moments,
    predicted_moments,
    report_to_dict,
    simulate_moments,
)
from qndcert import certification, estimation, statistics
from qndcert.montecarlo import arm_chunks
from qndcert.selftest import _draw_model


def _delta_of(param_set):
    params, noise, initial = param_set
    measured = predicted_moments(params, noise, initial)
    delta = delta_stats(measured, no_atoms_moments(params, initial),
                        params.r_l)
    return delta, measured.var_p


@pytest.fixture(scope="module")
def readme_set():
    """The README model sampled at 20 000 shots, seed 5: (measured, delta)."""
    params = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0,
                                         r_a=0.8, r_l=0.9)
    noise = NoiseModel.from_entries({(3, 3): 2.0, (3, 5): 0.5, (5, 5): 4.0})
    initial = make_initial_state(AtomicBlock.coherent(100.0),
                                 OpticalBlock.coherent(100.0, 3), Layout(3))
    measured, reference = simulate_moments(params, noise, initial, 20_000, 5)
    return measured, delta_stats(measured, reference, params.r_l)


def _figures_of(delta, var_p, kappa=1.0, j33=25.0, j0=25.0):
    return certify(delta, var_p, kappa, j33, j0).figures


class TestHollandFigures:
    def test_ideal_values(self, ideal_set):
        delta, var_p = _delta_of(ideal_set)
        figures = _figures_of(delta, var_p)
        assert figures.c2_in_meter == pytest.approx(0.5, abs=1e-13)
        assert figures.c2_in_out == pytest.approx(1.0, abs=1e-13)
        assert figures.c2_out_meter == pytest.approx(0.5, abs=1e-13)
        assert figures.undefined == {}

    def test_noisy_values(self, noisy_set):
        delta, var_p = _delta_of(noisy_set)
        figures = _figures_of(delta, var_p)
        assert figures.c2_in_meter == pytest.approx(25.0 / 49.25, rel=1e-12)
        assert figures.c2_in_out == pytest.approx(400.0 / 450.0, rel=1e-12)
        assert figures.c2_out_meter == pytest.approx(420.25 / 886.5, rel=1e-12)

    def test_losses_only_keep_in_out_transfer_perfect(self, lossy_set):
        # pure loss: the surviving spin is still perfectly read out
        delta, var_p = _delta_of(lossy_set)
        figures = _figures_of(delta, var_p)
        assert figures.c2_in_out == pytest.approx(1.0, rel=1e-12)
        assert figures.c2_in_meter == pytest.approx(25.0 / 45.25, rel=1e-12)

    def test_single_pulse_run_gets_partial_figures(self):
        delta = DeltaStats(n_pulses=1, d_var_p=25.0)
        figures = _figures_of(delta, 50.0)
        assert figures.c2_in_meter == 0.5
        assert figures.c2_in_out is None
        assert figures.c2_out_meter is None
        assert "needs" in figures.undefined["c2_in_out"]

    def test_zero_coupling_degenerates_quietly(self):
        # no measured coupling, and d_var_q - d_var_p = -kappa**2 j33
        # empties the output spin variance bracket
        delta = DeltaStats(n_pulses=3, d_var_p=25.0, d_var_q=0.0, d_var_r=0.0,
                           d_cov_pq=0.0, d_cov_pr=0.0)
        figures = _figures_of(delta, 25.0)
        assert figures.c2_in_meter == 1.0
        assert figures.c2_in_out is None
        assert "zero output spin variance" in figures.undefined["c2_in_out"]

    def test_vanishing_cross_correlation(self):
        # the bracket is nonzero, so only c2_in_out needs d_cov_pq
        delta = DeltaStats(n_pulses=3, d_var_p=0.0, d_var_q=4.0, d_var_r=4.0,
                           d_cov_pq=0.0, d_cov_pr=0.0)
        figures = _figures_of(delta, 25.0)
        assert figures.c2_out_meter == 0.0
        assert figures.c2_in_out is None
        assert figures.undefined["c2_in_out"] == "d_cov_pq is zero"

    def test_nonpositive_var_p(self):
        delta = DeltaStats(n_pulses=1, d_var_p=1.0)
        figures = _figures_of(delta, 0.0)
        assert figures.c2_in_meter is None
        assert "var_p" in figures.undefined["c2_in_meter"]

    def test_figure_out_of_range_is_none_with_its_reason(self):
        # kappa**2 j33 / var_p at var_p = 5e-324 is inf: the one exit
        # names it after the reasons the pulse count gives
        delta = DeltaStats(n_pulses=1, d_var_p=25.0)
        figures = _figures_of(delta, 5e-324)
        assert figures.c2_in_meter is None
        assert list(figures.undefined.items()) == [
            ("c2_in_out", "needs three pulses"),
            ("c2_out_meter", "needs two pulses"),
            ("c2_in_meter", "out of floating-point range (inf)")]

    def test_figures_out_of_range_are_named_in_figure_order(self):
        # d_cov_pr / d_cov_pq overflows, and so does c2_in_meter; the
        # finite c2_out_meter is kept
        delta = DeltaStats(n_pulses=3, d_var_p=25.0, d_var_q=30.0,
                           d_var_r=30.0, d_cov_pq=1e-160, d_cov_pr=1e150)
        figures = _figures_of(delta, 5e-324)
        assert figures.c2_out_meter == pytest.approx(1e-160 / 5e-324
                                                     * 1e-160 / 30.0)
        assert list(figures.undefined.items()) == [
            ("c2_in_meter", "out of floating-point range (inf)"),
            ("c2_in_out", "out of floating-point range (inf)")]

    def test_negative_j33_rejected(self):
        delta = DeltaStats(n_pulses=1, d_var_p=1.0)
        with pytest.raises(UndefinedInputError):
            _figures_of(delta, 50.0, j33=-1.0)


def _nonclassical_of(delta, var_p, j0=25.0):
    return certify(delta, var_p, 1.0, 25.0, j0).nonclassical


class TestNonClassicality:
    def test_ideal_values(self, ideal_set):
        delta, var_p = _delta_of(ideal_set)
        ncl = _nonclassical_of(delta, var_p)
        assert ncl.dx2_s_given_m == pytest.approx(0.5, abs=1e-13)
        assert ncl.dx2_m == pytest.approx(1.0, abs=1e-13)
        assert ncl.dx2_s == pytest.approx(0.0, abs=1e-13)
        assert ncl.product_sm == pytest.approx(0.0, abs=1e-13)
        assert ncl.r_a_assumed is None

    def test_noisy_values(self, noisy_set):
        delta, var_p = _delta_of(noisy_set)
        report = certify(delta, var_p, 1.0, 25.0, 25.0)
        ncl = report.nonclassical
        assert ncl.dx2_s_given_m == pytest.approx(9.467005076142131 / 20.0,
                                                  rel=1e-12)
        assert ncl.dx2_m == pytest.approx(0.97, rel=1e-12)
        assert ncl.dx2_s == pytest.approx(-0.35, rel=1e-12)
        assert ncl.product_sm == 0.0
        assert any(w.startswith("dx2_s is negative") for w in report.warnings)

    def test_pure_loss_values(self, lossy_set):
        delta, var_p = _delta_of(lossy_set)
        ncl = _nonclassical_of(delta, var_p)
        assert ncl.dx2_s_given_m == pytest.approx(
            (16.0 - 400.0 / 45.25) / 20.0, rel=1e-12)
        assert ncl.dx2_m == pytest.approx(0.81, rel=1e-12)
        assert ncl.dx2_s == pytest.approx(-0.45, rel=1e-12)

    def test_projection_noise_scale_enters_linearly(self, noisy_set):
        # doubling j0 halves every input-referred figure
        delta, var_p = _delta_of(noisy_set)
        base = _nonclassical_of(delta, var_p)
        wide = _nonclassical_of(delta, var_p, j0=50.0)
        assert wide.dx2_s_given_m == pytest.approx(base.dx2_s_given_m / 2.0,
                                                   rel=1e-12)
        assert wide.dx2_m == pytest.approx(base.dx2_m / 2.0, rel=1e-12)
        assert wide.dx2_s == pytest.approx(base.dx2_s / 2.0, rel=1e-12)

    def test_two_pulse_run_rejected(self):
        # a two-pulse run gets no exact figures: r_a is assumed, and the
        # figures that need the measured survival are absent
        delta = DeltaStats(n_pulses=2, d_var_p=1.0, d_var_q=1.0, d_cov_pq=1.0)
        ncl = _nonclassical_of(delta, 50.0)
        assert ncl.r_a_assumed == 1.0
        assert ncl.dx2_s is None
        assert ncl.product_sm is None

    def test_nonpositive_var_p_leaves_dx2_m_alone(self, noisy_set):
        delta, _ = _delta_of(noisy_set)
        report = certify(delta, 0.0, 1.0, 25.0, 25.0)
        ncl = report.nonclassical
        assert ncl.dx2_m == -1.0
        assert (ncl.dx2_s_given_m, ncl.dx2_s, ncl.product_sm) == (None,) * 3
        assert ncl.r_a_assumed is None
        assert report.squeezing is None
        assert report.reasons[-2:] == (
            "non-classicality figures unavailable: var_p must be positive, "
            "got 0.0",
            "squeezing test unavailable: var_p must be positive, got 0.0")
        # the route is decided before the inversion, which is not run
        assert report.estimates is None
        assert not any(r.startswith("model inversion failed")
                       for r in report.reasons)
        assert report.inconclusive

    def test_nan_var_p_is_not_positive(self, noisy_set):
        # one test of var_p > 0 decides the route: NaN gets no exact
        # figures and no squeezing test, with the reasons saying why
        delta, _ = _delta_of(noisy_set)
        report = certify(delta, float("nan"), 1.0, 25.0, 25.0)
        assert report.nonclassical.dx2_s_given_m is None
        assert report.squeezing is None
        assert report.reasons[-2:] == (
            "non-classicality figures unavailable: var_p must be positive, "
            "got nan",
            "squeezing test unavailable: var_p must be positive, got nan")


class TestCertify:
    def test_ideal_run_passes_everything(self, ideal_set):
        delta, var_p = _delta_of(ideal_set)
        report = certify(delta, var_p, 1.0, 25.0, 25.0)
        assert report.verdict_state_prep is True
        assert report.verdict_info_damage is True
        assert report.verdict_full_qnd is True
        assert report.point_full_qnd is True
        assert not report.inconclusive
        assert not report.gated  # analytic input: no standard errors
        assert report.estimates is not None
        assert exit_code(report) == 0

    def test_decisive_damage_fails(self, ideal_set):
        # strong readout plus a large spin kick per pulse: informative,
        # but the information-damage product is far above 1
        params, _, initial = ideal_set
        noise = NoiseModel.from_entries({(3, 3): 400.0})
        measured = predicted_moments(params, noise, initial)
        delta = delta_stats(measured, no_atoms_moments(params, initial),
                            params.r_l)
        report = certify(delta, measured.var_p, 1.0, 25.0, 25.0)
        assert report.nonclassical.dx2_s == pytest.approx(16.0, rel=1e-12)
        assert report.verdict_info_damage is False
        assert report.verdict_state_prep is False  # conditioning also ruined
        assert report.verdict_full_qnd is False
        assert not report.inconclusive
        assert exit_code(report) == 10

    def test_gating_withholds_marginal_passes(self, ideal_set):
        # same central values, enormous error bars: the point verdict
        # stays true but the gated verdict must not certify
        delta, var_p = _delta_of(ideal_set)
        se = {name: 3.0 for name in delta.entries()}
        delta = DeltaStats(n_pulses=3, se=se, **delta.entries())
        report = certify(delta, var_p, 1.0, 25.0, 25.0, var_p_se=1.0)
        assert report.gated
        assert report.point_state_prep is True
        assert report.verdict_state_prep is False
        assert exit_code(report) == 10

    def test_uninformative_coupling_is_inconclusive(self):
        se = {name: 0.4 for name in
              ("d_var_p", "d_var_q", "d_var_r", "d_cov_pq", "d_cov_pr")}
        delta = DeltaStats(n_pulses=3, d_var_p=0.1, d_var_q=1.2, d_var_r=1.1,
                           d_cov_pq=0.05, d_cov_pr=0.02, se=se)
        report = certify(delta, 25.1, 0.05, 25.0, 25.0)
        assert any("uninformative" in r for r in report.reasons)
        assert report.estimates is None
        assert report.nonclassical.r_a_assumed == 1.0
        assert report.verdict_info_damage is None
        assert report.verdict_full_qnd is None
        assert report.inconclusive
        assert exit_code(report) == 2

    @pytest.mark.parametrize("z", [1.0, 2.0])
    def test_inversion_floor_is_the_gate_width(self, ideal_set, z):
        # the couplings are 2 standard errors from zero: informative below
        # z = 2, so the inversion certify runs must use that floor too
        delta, var_p = _delta_of(ideal_set)
        se = {name: abs(delta.d_cov_pq) / 2.0 for name in delta.entries()}
        delta = DeltaStats(n_pulses=3, se=se, **delta.entries())
        report = certify(delta, var_p, 1.0, 25.0, 25.0, z_threshold=z,
                         var_p_se=1.0)
        if z < 2.0:
            assert report.reasons == ()
            assert report.estimates is not None
            assert report.estimates.r_a == pytest.approx(1.0, rel=1e-12)
            assert report.nonclassical.r_a_assumed is None
        else:
            assert report.estimates is None
            assert report.reasons[0].startswith("uninformative coupling")
        assert not any("model inversion failed" in r for r in report.reasons)

    def test_sampled_runs_never_fail_the_inversion_past_the_gate(self):
        # kappa 0.1 puts d_cov_pq within a few standard errors of zero at
        # 2000 shots; wherever the gate at z = 1 passes it, the inversion
        # certify runs must not refuse it as uninformative.  About one
        # seed in ten takes the exact route, so 150 seeds reach the floor
        # of 5 with probability above 0.999, where 20 did by luck
        initial = make_initial_state(AtomicBlock.coherent(100.0),
                                     OpticalBlock.coherent(100.0, 3),
                                     Layout(3))
        # the README config's loss and noise
        params = ExperimentParams.from_kappa(0.1, mean_sx=50.0, mean_jx=50.0,
                                             r_a=0.8, r_l=0.9)
        noise = NoiseModel.from_entries({(3, 3): 2.0, (3, 5): 0.5,
                                         (5, 5): 4.0})
        passed = 0
        for seed in range(150):
            measured, reference = simulate_moments(params, noise, initial,
                                                   2000, seed)
            delta = delta_stats(measured, reference, params.r_l)
            report = certify(delta, measured.var_p, 0.1, 25.0, 25.0,
                             z_threshold=1.0,
                             var_p_se=measured.se["var_p"])
            if report.nonclassical.r_a_assumed is None:  # exact route
                passed += 1
                assert report.estimates is not None, report.reasons
        assert passed >= 5

    def test_two_pulse_run_gives_reduced_report(self):
        delta = DeltaStats(n_pulses=2, d_var_p=25.0, d_var_q=25.0,
                           d_cov_pq=25.0)
        report = certify(delta, 50.0, 1.0, 25.0, 25.0)
        assert any("reduced report" in r for r in report.reasons)
        assert report.nonclassical.r_a_assumed == 1.0
        assert report.nonclassical.product_sm is None
        # cond = 12.5 < 25 at r_a assumed 1, a lower bound: it cannot
        # certify state preparation
        assert report.nonclassical.dx2_s_given_m == 0.5
        assert report.verdict_state_prep is None
        assert report.verdict_full_qnd is None
        assert report.inconclusive
        assert exit_code(report) == 2

    def test_reduced_route_point_verdict_refutes_only(self):
        # dx2_s_given_m = 0.5 at r_a assumed 1 is a lower bound: the point
        # verdict is undecided, as the gated one is, and a note says why
        pass_ = certify(DeltaStats(n_pulses=2, d_var_p=25.0, d_var_q=25.0,
                                   d_cov_pq=25.0), 50.0, 1.0, 25.0, 25.0)
        assert pass_.point_state_prep is None
        assert pass_.verdict_state_prep is None
        notes = [r for r in pass_.reasons if "lower bound" in r]
        assert len(notes) == 1
        # dx2_s_given_m = 1.9: a lower bound above 1 refutes, point and gated
        fail = certify(DeltaStats(n_pulses=2, d_var_p=25.0, d_var_q=60.0,
                                  d_cov_pq=25.0), 50.0, 1.0, 25.0, 25.0)
        assert fail.nonclassical.dx2_s_given_m == pytest.approx(1.9)
        assert fail.point_state_prep is False
        assert fail.verdict_state_prep is False
        assert not any("lower bound" in r for r in fail.reasons)

    def test_exact_route_uses_measured_survival(self, noisy_set):
        delta, var_p = _delta_of(noisy_set)
        report = certify(delta, var_p, 1.0, 25.0, 25.0)
        assert report.nonclassical.r_a_assumed is None
        # normalized by the measured r_a = 0.8, not by 1
        assert report.nonclassical.dx2_s_given_m == pytest.approx(
            9.467005076142131 / 20.0, rel=1e-12)

    def test_standard_errors_reported_for_sampled_input(self, noisy_set):
        delta, var_p = _delta_of(noisy_set)
        se = {name: 0.1 for name in delta.entries()}
        delta = DeltaStats(n_pulses=3, se=se, **delta.entries())
        report = certify(delta, var_p, 1.0, 25.0, 25.0, var_p_se=0.2)
        for key in ("dx2_s_given_m", "dx2_m", "dx2_s", "product_sm"):
            assert key in report.se
        assert report.se["dx2_s_given_m"] > 0.0

    def test_negative_floor_keeps_a_zero_d_cov_pr_off_the_exact_route(self):
        # a negative gate width or standard error would let a zero
        # d_cov_pr through the gate: each is refused before any figure
        values = dict(n_pulses=3, d_var_p=25.0, d_var_q=20.0, d_var_r=16.0,
                      d_cov_pq=20.0, d_cov_pr=0.0)
        delta = DeltaStats(**values, se={"d_cov_pq": 1.0, "d_cov_pr": 1.0})
        with pytest.raises(UndefinedInputError,
                           match="^z_threshold must be finite and "
                                 "nonnegative, got -1.0$"):
            certify(delta, 50.0, 1.0, 25.0, 25.0, z_threshold=-1.0)
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="^standard error of "
                                                 "d_cov_pr must be finite"):
                DeltaStats(**values, se={"d_cov_pq": 1.0, "d_cov_pr": bad})

    @pytest.mark.parametrize("var_p, d_var_q, message", [
        (1e200, 2.0, r"^var_p = 1e\+200 is out of range: its square "
                     r"overflows$"),
        (4.0, -2e154, r"^d_var_q = -2e\+154 is out of range"),
    ])
    def test_inputs_whose_squares_overflow_are_refused(self, var_p, d_var_q,
                                                       message):
        # the figures square each input; d_cov_pq's case, where Python's
        # float ** raised an OverflowError, is in test_estimation.py
        delta = DeltaStats(3, d_var_p=1.0, d_var_q=d_var_q, d_var_r=2.5,
                           d_cov_pq=3.0, d_cov_pr=1.0)
        with pytest.raises(UndefinedInputError, match=message):
            certify(delta, var_p, 1.0, 2.0, 3.0)

    # A bad calibration: test_estimation.py's TestCalibrationRange, for
    # certify and the other two entry points that take one.
    @pytest.mark.parametrize("kwargs", [
        {"z_threshold": -1.0}, {"z_threshold": math.nan},
        {"z_threshold": math.inf},
    ])
    def test_input_validation(self, ideal_set, kwargs):
        delta, var_p = _delta_of(ideal_set)
        base = {"delta": delta, "var_p": var_p, "kappa": 1.0,
                "j33": 25.0, "j0": 25.0}
        base.update(kwargs)
        with pytest.raises(UndefinedInputError):
            certify(**base)

    def test_exact_route_checks_each_precondition_once(self, monkeypatch,
                                                       readme_set):
        # the exact route ran invert_three_pulse, which checked the gate
        # width, the calibration and d_cov_pq's square again
        measured, delta = readme_set
        calls = collections.Counter()
        names = ("_entry_rule", "_require_finite_squares")
        for module in (statistics, estimation, certification):
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue

                def counted(*args, _name=name, _original=original):
                    calls[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counted)
        report = certify(delta, measured.var_p, 1.0, 25.0, 25.0,
                         var_p_se=measured.se["var_p"])
        assert report.estimates is not None  # the exact route
        assert calls == dict.fromkeys(names, 1)


class TestOneHolderPerStandardError:
    """Sigma holds each standard error once: the noise floors, the errors
    and the report read it, and nothing a caller edits reaches it."""

    def test_editing_se_leaves_certify_unchanged(self, readme_set):
        # the edit made the next certify report an uninformative coupling
        # with a noise floor of 3e+09 and no verdict, while Sigma still
        # held d_cov_pq's own error
        measured, delta = readme_set
        delta = copy.deepcopy(delta)  # the fixture's stays as drawn
        before = dump_json(report_to_dict(certify(
            delta, measured.var_p, 1.0, 25.0, 25.0,
            var_p_se=measured.se["var_p"])))
        delta.se["d_cov_pq"] = 1e9
        assert delta.se["d_cov_pq"] == math.sqrt(delta.moment_cov[3, 3])
        assert dump_json(report_to_dict(certify(
            delta, measured.var_p, 1.0, 25.0, 25.0,
            var_p_se=measured.se["var_p"]))) == before

    @pytest.mark.parametrize("scalar", ["var_p", "z_threshold"])
    def test_numpy_scalar_inputs_give_python_verdicts(self, readme_set,
                                                      scalar):
        # an np.float64 var_p or z_threshold made every verdict a numpy
        # bool, which the JSON writer refused with a TypeError
        measured, delta = readme_set
        args = {"var_p": measured.var_p, "z_threshold": 3.0}
        want = certify(delta, kappa=1.0, j33=25.0, j0=25.0, **args)
        args[scalar] = np.float64(args[scalar])
        got = certify(delta, kappa=1.0, j33=25.0, j0=25.0, **args)
        for name in ("state_prep", "info_damage", "full_qnd"):
            assert type(getattr(got, f"verdict_{name}")) is bool, name
            assert type(getattr(got, f"point_{name}")) is bool, name
        assert type(got.squeezing.squeezed) is bool
        assert type(got.var_p) is type(got.z_threshold) is float
        assert dump_json(report_to_dict(got)) == \
            dump_json(report_to_dict(want))

    @pytest.mark.parametrize("cast", [np.float32, int])
    @pytest.mark.parametrize("scalar", ["kappa", "j33", "j0"])
    def test_calibration_scalars_are_echoed_as_floats(self, readme_set,
                                                      scalar, cast):
        # a float32 kappa was echoed as given, and the JSON writer refused
        # the report with a TypeError
        measured, delta = readme_set
        args = {"kappa": 1.0, "j33": 25.0, "j0": 25.0}
        want = certify(delta, measured.var_p, **args)
        args[scalar] = cast(args[scalar])
        got = certify(delta, measured.var_p, **args)
        assert type(got.kappa) is type(got.j33) is type(got.j0) is float
        assert dump_json(report_to_dict(got)) == \
            dump_json(report_to_dict(want))

    @pytest.mark.parametrize("cast", [np.float32, int])
    def test_var_p_error_is_echoed_as_a_float(self, readme_set, cast):
        # var_p_se was echoed as given: a float32 one made the JSON writer
        # refuse the report with a TypeError, and an int one read 2
        measured, delta = readme_set
        value = cast(2.0)
        want = certify(delta, measured.var_p, 1.0, 25.0, 25.0,
                       var_p_se=float(value))
        got = certify(delta, measured.var_p, 1.0, 25.0, 25.0, var_p_se=value)
        assert type(got.var_p_se) is float
        assert dump_json(report_to_dict(got)) == \
            dump_json(report_to_dict(want))

    def test_var_p_error_comes_from_the_delta_unless_given(self, readme_set):
        # without var_p_se, var_p's error was dropped: dx2_m's was 0.0
        measured, delta = readme_set
        given = certify(delta, measured.var_p, 1.0, 25.0, 25.0,
                        var_p_se=measured.se["var_p"])
        report = certify(delta, measured.var_p, 1.0, 25.0, 25.0)
        assert report.se["dx2_m"] == pytest.approx(0.0197, abs=5e-5)
        assert report.se["dx2_s_given_m"] == pytest.approx(0.0359, abs=5e-5)
        assert report.var_p_se == measured.se["var_p"]
        assert dump_json(report_to_dict(report)) == \
            dump_json(report_to_dict(given))
        # a delta given its errors by keyword has no var_p row to read
        hand = DeltaStats(n_pulses=3, se=delta.se, **delta.entries())
        report = certify(hand, measured.var_p, 1.0, 25.0, 25.0)
        assert report.var_p_se == 0.0 and report.se["dx2_m"] == 0.0

    def test_each_inversion_warning_is_listed_once(self, readme_set):
        # certify copied them into its warnings and kept them in its
        # estimates, so the JSON report held each twice
        measured, delta = readme_set
        report = certify(delta, measured.var_p, 1.0, 1e308, 25.0,
                         var_p_se=measured.se["var_p"])
        assert report.estimates is not None
        assert report.estimates.warnings == ()
        assert "noise diagonal n55 estimated negative" in report.warnings
        text = dump_json(report_to_dict(report))
        for line in report.warnings:
            assert text.count(json.dumps(line)) == 1, line
        # the inversion on its own keeps them
        assert "noise diagonal n55 estimated negative" in invert_three_pulse(
            delta, measured.var_p, 1.0, 1e308).warnings


class TestExactInputsHaveZeroError:
    """An exact input (closed forms, the matrix route, a keyword set
    without ``se=``) has Sigma = 0: one representation of no error."""

    def test_closed_form_reference_keeps_the_sampled_errors(self):
        # the closed-form reference arm had no Sigma, so the delta had
        # none: the README model at 4000 shots (seed 11) certified
        # ungated, with no standard error at all
        params = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0,
                                             r_a=0.8, r_l=0.9)
        noise = NoiseModel.from_entries({(3, 3): 2.0, (3, 5): 0.5,
                                         (5, 5): 4.0})
        initial = make_initial_state(AtomicBlock.coherent(100.0),
                                     OpticalBlock.coherent(100.0, 3),
                                     Layout(3))
        measured, _ = simulate_moments(params, noise, initial, 4000, 11)
        delta = delta_stats(measured, no_atoms_moments(params, initial),
                            params.r_l)
        # Sigma_with alone, with var_p's row from it
        with_atoms = measured.moment_cov
        sigma = np.block([[with_atoms, with_atoms[:, :1]],
                          [with_atoms[:1], with_atoms[:1, :1]]])
        np.testing.assert_array_equal(delta.moment_cov, sigma)
        assert delta.se == {f"d_{name}": value for name, value
                            in measured.se.items() if name != "cov_qr"}
        report = certify(delta, measured.var_p, 1.0, 25.0, 25.0)
        assert report.gated
        assert report.var_p_se == measured.se["var_p"]
        # Sigma's rows of the table's inputs: d_var_p, d_var_q, d_var_r,
        # d_cov_pq, d_cov_pr and the probe arm's var_p
        rows = [0, 1, 2, 3, 4, 6]
        expected = statistics._propagate_se(
            lambda v: estimation._carried(v, 1.0, 25.0, 25.0,
                                          estimation._EXACT),
            estimation._inputs(delta, measured.var_p),
            sigma[np.ix_(rows, rows)].tolist(), estimation._EXACT)
        assert report.se == pytest.approx(expected, rel=1e-12)
        assert report.se["dx2_s_given_m"] > 0.0

    def test_empty_se_keyword_is_the_same_set(self, noisy_set):
        params, noise, initial = noisy_set
        predicted = predicted_moments(params, noise, initial)
        reference = no_atoms_moments(params, initial)
        texts, fields = [], []
        for keywords in ({"se": {}}, {}):
            measured, ref = (MomentSet(n_pulses=3, **keywords,
                                       **arm.entries())
                             for arm in (predicted, reference))
            delta = delta_stats(measured, ref, params.r_l)
            given = DeltaStats(n_pulses=3, **keywords, **delta.entries())
            for stats in (delta, given):
                report = certify(stats, measured.var_p, 1.0, 25.0, 25.0)
                texts.append(dump_json(report_to_dict(report)))
                fields.append([getattr(report, field.name) for field
                               in dataclasses.fields(report)
                               if field.name != "delta"])
        assert texts[0] == texts[2] and texts[1] == texts[3]
        assert fields[0] == fields[2] and fields[1] == fields[3]
        assert '"gated": false' in texts[0]

    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    def test_exact_input_reports_zero_error(self, noisy_set, n_pulses):
        params, noise, _ = noisy_set
        initial = make_initial_state(AtomicBlock.coherent(100.0),
                                     OpticalBlock.coherent(100.0, n_pulses),
                                     Layout(n_pulses))
        measured = predicted_moments(params, noise, initial)
        reference = no_atoms_moments(params, initial)
        keyword = MomentSet(n_pulses=n_pulses, **measured.entries())
        delta = delta_stats(measured, reference, params.r_l)
        for exact in (measured, reference, keyword, delta):
            assert exact.se == dict.fromkeys(exact.entries(), 0.0)
            assert exact.moment_cov.shape[0] >= len(exact.entries())
            assert not exact.moment_cov.any()
        report = certify(delta, measured.var_p, 1.0, 25.0, 25.0)
        assert report.var_p_se == 0.0
        assert not report.gated
        assert report.se and set(report.se.values()) == {0.0}
        if n_pulses == 3:
            assert report.estimates.r_a_se == 0.0
            assert invert_three_pulse(delta, measured.var_p, 1.0,
                                      25.0).r_a_se == 0.0

    def test_readers_of_measured_statistics_take_sigma_alone(
            self, readme_set, monkeypatch):
        # the inversion's d_cov_pq floor read the .se dict, which copies
        # Sigma's diagonal; both readers now index Sigma itself
        measured, delta = readme_set
        want = invert_three_pulse(delta, measured.var_p, 1.0, 25.0)
        report = dump_json(report_to_dict(certify(
            delta, measured.var_p, 1.0, 25.0, 25.0)))

        def refuse(self):
            raise AssertionError(".se read")

        monkeypatch.setattr(statistics._MeterCovariance, "se",
                            property(refuse))
        assert invert_three_pulse(delta, measured.var_p, 1.0, 25.0) == want
        got = certify(delta, measured.var_p, 1.0, 25.0, 25.0)
        monkeypatch.undo()
        assert dump_json(report_to_dict(got)) == report


def _array_route_se(report, delta, var_p, var_p_se):
    """Standard errors of ``report``'s figures by complex step on copied
    input lists, each figure its own function, the form the one table in
    ``certify`` must reproduce bit for bit.  It steps in Python scalars:
    numpy's complex division rounds differently."""
    values = [float(x) for x in (delta.d_var_p, delta.d_var_q, delta.d_var_r,
                                 delta.d_cov_pq, delta.d_cov_pr, var_p)]
    se = delta.se or {}
    ses = [float(se.get(name, 0.0)) for name in
           ("d_var_p", "d_var_q", "d_var_r", "d_cov_pq", "d_cov_pr")] + [
               float(var_p_se or 0.0)]
    kappa, j33, j0 = (float(x) for x in (report.kappa, report.j33,
                                         report.j0))
    k2 = kappa * kappa
    exact_route = report.nonclassical.dx2_s is not None

    def f_m(v):
        return (v[5] - k2 * j33) / (k2 * j0)

    def f_cond(v):
        return j33 + (v[1] - v[0] - v[3] * (v[3] / v[5])) / k2

    def f_sgm(v):
        return (v[3] / v[4]) * f_cond(v) / j0 if exact_route else f_cond(v) / j0

    def f_s(v):
        return (v[3] / v[4]) * ((v[1] - v[0]) / (k2 * j0))

    def f_prod(v):  # unclipped: the clipped product's gate reads it
        return f_s(v) * f_m(v)

    def propagate(fn):
        total = 0.0
        for i, se in enumerate(ses):
            if se == 0.0:
                continue
            x = values[i]
            h = 2.0 ** -60 * abs(x) or 2.0 ** -60 * se
            point = values.copy()
            point[i] = x + h * 1j
            term = fn(point).imag / h * se
            total += term * term
        return math.sqrt(total)

    ncl = report.nonclassical
    figures = (("dx2_m", ncl.dx2_m, f_m),
               ("dx2_s_given_m", ncl.dx2_s_given_m, f_sgm),
               ("dx2_s", ncl.dx2_s, f_s), ("product_sm", ncl.product_sm, f_prod))
    return {key: propagate(fn) for key, value, fn in figures
            if value is not None}


class TestSubnormalInputs:
    def test_subnormal_var_p_gives_finite_standard_errors(self):
        # a relative step underflows to 0 at var_p = 5e-324: every error
        # of the one propagation read NaN, r_a's included
        se = {name: 0.1 for name in ("d_var_p", "d_var_q", "d_var_r",
                                     "d_cov_pq", "d_cov_pr")}
        delta = DeltaStats(n_pulses=3, d_var_p=25.0, d_var_q=20.0,
                           d_var_r=16.0, d_cov_pq=20.0, d_cov_pr=16.0, se=se)
        report = certify(delta, 5e-324, 1.0, 25.0, 25.0, var_p_se=0.5)
        values = dataclasses.asdict(report.nonclassical)
        finite = [key for key in report.se if math.isfinite(values[key])]
        assert finite == ["dx2_m", "dx2_s", "product_sm"]  # not -inf's
        assert all(math.isfinite(report.se[key]) for key in finite)
        assert report.se["dx2_m"] == pytest.approx(0.5 / 25.0, rel=1e-6)
        # r_a does not read var_p: the same bits as at a normal var_p
        normal = certify(delta, 1.0, 1.0, 25.0, 25.0, var_p_se=0.5)
        assert report.estimates.r_a_se == normal.estimates.r_a_se
        assert report.estimates.r_a_from_var_se == \
            normal.estimates.r_a_from_var_se


_MOMENT = st.floats(-1e308, 1e308)
_SE = st.just(0.0) | st.floats(1e-320, 1e308)
_ANY = st.floats()


class TestReadersRaiseOnlyQndError:
    """``certify`` and ``invert_three_pulse`` on any finite moments, any
    errors and any scalars: a refusal is a ``QndError``, numpy warns of
    nothing, and an error that overflows is inf, not an exception."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.integers(1, 3), st.lists(_MOMENT, min_size=5, max_size=5),
           st.lists(_SE, min_size=7, max_size=7), st.sampled_from([0.0, 0.5]),
           _ANY, st.none() | _ANY, _ANY, _ANY, _ANY,
           st.sampled_from([0.0, 1.0, 3.0]))
    # var_p's error squared past float max: Python's ** raised there
    @example(3, [29.0, 22.0, 17.5, 20.5, 16.4], [0.1] * 7, 0.0, 50.0, 1e308,
             1.0, 25.0, 25.0, 3.0)
    def test_only_qnd_errors_escape(self, n, moments, ses, rho, var_p,
                                    var_p_se, kappa, j33, j0, z):
        names = ("d_var_p", "d_var_q", "d_var_r", "d_cov_pq", "d_cov_pr")
        delta = DeltaStats(n_pulses=n, **{
            name: value for name, value in zip(names, moments)
            if name in DeltaStats._reported[n]})
        # Sigma: the errors' squares, correlated by rho, taken as they are
        sds = ses[:len(DeltaStats._sigma_rows[n])]
        sigma = np.array([[a * a if i == j else rho * a * b if rho else 0.0
                           for j, b in enumerate(sds)]
                          for i, a in enumerate(sds)])
        delta = DeltaStats._of(np.array(delta.cov), None, sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.suppress(QndError):
                certify(delta, var_p, kappa, j33, j0, z, var_p_se)
            with contextlib.suppress(QndError):
                invert_three_pulse(delta, var_p, kappa, j33, z_threshold=z)


class TestStandardErrorExactness:
    def test_matches_array_route_on_seeded_models(self):
        rng = np.random.default_rng(20261018)
        zero_inputs = routes = 0
        for index in range(240):
            params, noise, initial, j0 = _draw_model(
                rng, with_noise=index % 3 != 0, sign=1.0)
            measured = predicted_moments(params, noise, initial)
            delta = delta_stats(measured, no_atoms_moments(params, initial),
                                params.r_l)
            # sampled-size errors from 1e6 shots down to a few hundred,
            # with some inputs known exactly (standard error 0)
            scale = 10.0 ** rng.uniform(-3.0, 0.5)
            se = {name: abs(value) * scale * rng.uniform(0.5, 2.0)
                  for name, value in delta.entries().items()}
            var_p_se = measured.var_p * scale
            if index % 4 == 1:
                se["d_cov_pr"] = se["d_var_p"] = 0.0
            if index % 5 == 2:
                var_p_se = 0.0 if index % 2 else None
            zero_inputs += index % 4 == 1 or index % 5 == 2
            delta = DeltaStats(n_pulses=3, se=se, **delta.entries())
            j33 = initial.cov[2, 2]
            report = certify(delta, measured.var_p, params.kappa, j33, j0,
                             var_p_se=var_p_se)
            routes += report.nonclassical.dx2_s is None
            assert report.se == _array_route_se(report, delta,
                                                measured.var_p, var_p_se)
        assert zero_inputs == 96
        assert routes >= 1  # the r_a = 1 fallback is covered too

    @pytest.mark.parametrize("seed", range(5))
    def test_last_bit_of_an_input_moves_no_error(self, seed):
        # each slope is good to rounding, so a one-ulp move of a delta
        # moment moves no standard error past a few ulps; a difference
        # quotient's slopes magnified it some thousand times
        params = ExperimentParams.from_kappa(1.0, mean_sx=50.0,
                                             mean_jx=50.0, r_a=0.8, r_l=0.9)
        noise = NoiseModel.from_entries({(3, 3): 2.0, (3, 5): 0.5,
                                         (5, 5): 4.0})
        initial = make_initial_state(AtomicBlock.coherent(100.0),
                                     OpticalBlock.coherent(100.0, 3),
                                     Layout(3))
        measured, reference = simulate_moments(params, noise, initial,
                                               60_000, seed)
        delta = delta_stats(measured, reference, params.r_l)

        def errors(delta):
            report = certify(delta, measured.var_p, 1.0, 25.0, 25.0)
            return [*report.se.values(), report.estimates.r_a_se,
                    report.estimates.r_a_from_var_se]

        base = errors(delta)
        assert len(base) == 6 and all(se > 0.0 for se in base)
        for name in ("var_p", "var_q", "var_r", "cov_pq", "cov_pr"):
            j, k = statistics._ENTRIES[name]
            cov = np.array(delta.cov)
            cov[j, k] = cov[k, j] = math.nextafter(cov[j, k], math.inf)
            moved = DeltaStats._of(cov, None, np.array(delta.moment_cov))
            assert getattr(moved, f"d_{name}") != getattr(delta, f"d_{name}")
            assert errors(moved) == pytest.approx(base, rel=1e-13,
                                                  abs=0.0), name

    def test_inputs_near_1e_9_step_by_their_own_scale(self):
        # d_cov_pr = 1e-9 sat on the step's old absolute floor, so the
        # lower point hit the pole at d_cov_pr = 0: dx2_s's error was inf
        # at this scale and finite at 2**80 times it
        values = {"d_var_p": 1.0, "d_var_q": 2.0, "d_var_r": 2.5,
                  "d_cov_pq": 3.0, "d_cov_pr": 1e-9}
        se = {"d_var_p": 0.1, "d_var_q": 0.1, "d_var_r": 0.1,
              "d_cov_pq": 1e-12, "d_cov_pr": 1e-13}
        reports = []
        for s in (0, 40):
            scale = 4.0 ** s
            delta = DeltaStats(
                n_pulses=3, **{k: v * scale for k, v in values.items()},
                se={k: v * scale for k, v in se.items()})
            reports.append(certify(delta, 4.0 * scale, 2.0 ** s, 2.0, 3.0,
                                   var_p_se=1e-3 * scale))
        base, scaled = reports
        assert all(math.isfinite(se) for se in base.se.values())
        assert scaled.se == base.se
        assert scaled.nonclassical == base.nonclassical

    def test_non_finite_standard_error_leaves_the_verdict_undecided(
            self, readme_set):
        # j33 = 1e308 keeps kappa**2 j33 finite, but the state-prep
        # figure's error overflows to NaN: its verdict is undecided, and
        # the run inconclusive rather than a confident "no"; the reason
        # says so, and numpy warns of nothing
        measured, delta = readme_set
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = certify(delta, measured.var_p, 1.0, 1e308, 25.0,
                             var_p_se=measured.se["var_p"])
        assert math.isnan(report.se["dx2_s_given_m"])
        assert report.verdict_state_prep is None
        assert report.verdict_full_qnd is None
        assert report.inconclusive
        assert exit_code(report) == 2
        assert ("standard error of dx2_s_given_m is not finite (nan); "
                "its verdict is undecided") in report.reasons


def _hand_se(report):
    """Standard errors of ``report``'s figures from hand-derived gradients
    g over (d_var_p, d_var_q, d_cov_pq, d_cov_pr, var_p): sqrt(g Sigma g)
    with Sigma the inputs' joint error covariance, which the delta
    carries."""
    delta, ncl = report.delta, report.nonclassical
    names = ("d_var_p", "d_var_q", "d_cov_pq", "d_cov_pr")
    p, q, c, r = (getattr(delta, name) or 0.0 for name in names)
    v, k2 = report.var_p, report.kappa ** 2
    j33, j0 = report.j33, report.j0
    sigma = np.array(delta._sigma(names + ("var_p",)))
    # the CLI's var_p_se: the probe arm's own standard error of var_p
    assert report.var_p_se == pytest.approx(np.sqrt(sigma[4, 4]), rel=1e-15)
    m_grad = np.array([0.0, 0.0, 0.0, 0.0, 1.0]) / (k2 * j0)
    grads = {"dx2_m": m_grad}
    if ncl.dx2_s_given_m is not None:
        cond = j33 + (q - p - c * c / v) / k2
        cond_grad = np.array([-1.0, 1.0, -2.0 * c / v, 0.0,
                              c * c / (v * v)]) / k2
        if ncl.dx2_s is None:  # r_a assumed 1
            grads["dx2_s_given_m"] = cond_grad / j0
        else:  # measured survival: the ratio d_cov_pq / d_cov_pr
            ratio_grad = np.array([0.0, 0.0, 1.0 / r, -c / r ** 2, 0.0])
            grads["dx2_s_given_m"] = ((c / r) * cond_grad
                                      + cond * ratio_grad) / j0
            s = c * (q - p) / (r * k2 * j0)
            s_grad = np.array([-c, c, q - p, -s * k2 * j0, 0.0]) / (r * k2
                                                                   * j0)
            grads["dx2_s"] = s_grad
            # the unclipped product's, which gates the clipped one
            grads["product_sm"] = ncl.dx2_m * s_grad + s * m_grad
    return {key: float(np.sqrt(grad @ sigma @ grad))
            for key, grad in grads.items()}


def _sampled_report(n_pulses, kappa=1.0, r_a=1.0, n33=0.0, seed=5):
    initial = make_initial_state(AtomicBlock.coherent(100.0),
                                 OpticalBlock.coherent(100.0, n_pulses),
                                 Layout(n_pulses))
    params = ExperimentParams.from_kappa(kappa, mean_sx=50.0, mean_jx=50.0,
                                         r_a=r_a)
    noise = NoiseModel.from_entries({(3, 3): n33}) if n33 else \
        NoiseModel.zero()
    measured, reference = simulate_moments(params, noise, initial, 20_000,
                                           seed)
    delta = delta_stats(measured, reference, params.r_l)
    return certify(delta, measured.var_p, kappa, 25.0, 25.0,
                   var_p_se=measured.se["var_p"])


class TestStandardErrorCorrectness:
    """Each reported standard error against its gradient worked out by
    hand, on sampled runs of every pulse count and route."""

    @pytest.mark.parametrize("n_pulses, kwargs, keys", [
        (1, {}, ("dx2_m",)),
        (2, {}, ("dx2_m", "dx2_s_given_m")),
        (3, {}, ("dx2_m", "dx2_s_given_m", "dx2_s", "product_sm")),
        (3, {"r_a": 0.99, "n33": 20.0},
         ("dx2_m", "dx2_s_given_m", "dx2_s", "product_sm")),
        (3, {"kappa": 0.05}, ("dx2_m", "dx2_s_given_m")),
    ], ids=["1-pulse", "2-pulse", "3-pulse-clipped", "3-pulse-product",
            "3-pulse-uninformative"])
    def test_matches_hand_gradients(self, n_pulses, kwargs, keys):
        report = _sampled_report(n_pulses, **kwargs)
        assert report.gated
        assert tuple(report.se) == keys
        assert (report.nonclassical.r_a_assumed == 1.0) == (len(keys) == 2)
        if kwargs.get("n33"):
            assert report.nonclassical.product_sm > 0.0
            assert report.se["product_sm"] > 0.0
        hand = _hand_se(report)
        for key in keys:
            assert report.se[key] == pytest.approx(hand[key], rel=1e-6), key

    def test_var_p_se_counts_by_its_size(self):
        # var_p's row of Sigma is rescaled to var_p_se: a negative value
        # must not flip its correlations with the deltas
        report = _sampled_report(3, r_a=0.99, n33=20.0)
        flipped = certify(report.delta, report.var_p, report.kappa,
                          report.j33, report.j0, var_p_se=-report.var_p_se)
        assert flipped.se == report.se


_FIGURES = ("dx2_m", "dx2_s_given_m", "dx2_s", "product_sm")
_ESTIMATES = ("r_a", "r_a_from_var")


_README_NOISE = {(3, 3): 2.0, (3, 5): 0.5, (5, 5): 4.0}


def _coverage_params(r_a):
    return ExperimentParams.from_kappa(2.0, mean_sx=50.0, mean_jx=50.0,
                                       r_a=r_a, r_l=0.9)


def _coverage_initial():
    return make_initial_state(AtomicBlock.coherent(100.0),
                              OpticalBlock.coherent(100.0, 3), Layout(3))


@pytest.fixture(scope="module")
def ensemble():
    """``draw(r_a, noise)``: (measured, reference) moments of seeds
    0..399 at 4000 shots of the coherent 100-atom / 100-photon model at
    kappa 2 and r_l = 0.9, drawn once per model and shared by every test
    that asks for the same one."""
    drawn = {}

    def draw(r_a, noise):
        key = (r_a, tuple(sorted(noise.items())))
        if key not in drawn:
            params, initial = _coverage_params(r_a), _coverage_initial()
            drawn[key] = [
                simulate_moments(params, NoiseModel.from_entries(noise),
                                 initial, 4000, seed)
                for seed in range(400)]
        return drawn[key]

    return draw


def _coverage_ratios(r_a, draws):
    """Mean reported standard error over the run-to-run standard deviation
    of each figure and of both r_a estimates, over the seeded ``draws`` of
    the coherent 100-atom / 100-photon model at r_l = 0.9; also the
    fraction of runs whose ``product_sm`` is clipped to 0."""
    params = _coverage_params(r_a)
    values, ses = [], []
    for measured, reference in draws:
        report = certify(delta_stats(measured, reference, params.r_l),
                         measured.var_p, 2.0, 25.0, 25.0,
                         var_p_se=measured.se["var_p"])
        assert tuple(report.se) == _FIGURES
        estimates = report.estimates
        values.append([getattr(report.nonclassical, key) for key in _FIGURES]
                      + [getattr(estimates, key) for key in _ESTIMATES])
        ses.append([report.se[key] for key in _FIGURES]
                   + [getattr(estimates, key + "_se") for key in _ESTIMATES])
    values, ses = np.array(values), np.array(ses)
    clipped = float(np.mean(values[:, 3] == 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = ses.mean(axis=0) / values.std(axis=0, ddof=1)
    return dict(zip(_FIGURES + _ESTIMATES, ratios)), clipped


class TestStandardErrorCoverage:
    """A reported standard error must match the run-to-run spread of its
    figure.  The five inputs share shots, so this holds only when their
    joint covariance is propagated; 400 seeds pin each ratio to about
    3.5%, and [0.85, 1.15] leaves four of those either side of 1."""

    @pytest.mark.parametrize("r_a, noise, unclipped", [
        (0.8, _README_NOISE, ()),
        (0.99, {(3, 3): 20.0}, ("product_sm",)),
    ], ids=["readme-config", "r_a-0.99-n33-20"])
    def test_mean_se_matches_the_spread(self, ensemble, r_a, noise,
                                        unclipped):
        ratios, clipped = _coverage_ratios(r_a, ensemble(r_a, noise))
        assert clipped == (0.0 if unclipped else 1.0)
        for key in ("dx2_m", "dx2_s_given_m", "dx2_s") + unclipped \
                + _ESTIMATES:
            assert 0.85 <= ratios[key] <= 1.15, (key, ratios)

    def test_false_certification_rate_at_the_boundary(self, ensemble):
        # j0 puts the true dx2_s_given_m at exactly 1, so a gate at z = 1
        # should pass P(Z > 1) = 0.159 of runs; 400 seeds give that share
        # a standard deviation of 0.018, and [0.10, 0.22] spans 3.2 of them
        # either side.  The runs are the readme-config coverage draws.
        params = _coverage_params(0.8)
        noise = NoiseModel.from_entries(_README_NOISE)
        initial = _coverage_initial()
        exact = predicted_moments(params, noise, initial)
        j0 = invert_three_pulse(
            delta_stats(exact, no_atoms_moments(params, initial), params.r_l),
            exact.var_p, 2.0, 25.0).cond_var_jz / 0.8
        passed = []
        for measured, reference in ensemble(0.8, _README_NOISE):
            report = certify(delta_stats(measured, reference, params.r_l),
                             measured.var_p, 2.0, 25.0, j0, z_threshold=1.0,
                             var_p_se=measured.se["var_p"])
            passed.append(report.verdict_state_prep is True)
        assert 0.10 <= np.mean(passed) <= 0.22, np.mean(passed)


def _sampled_reports(params, noise, n_pulses, j0, seeds, n_shots=20_000):
    """certify at z = 3 on seeded runs of the coherent 100-atom /
    100-photon model, j33 = 25, with its exact report first."""
    initial = make_initial_state(AtomicBlock.coherent(100.0),
                                 OpticalBlock.coherent(100.0, n_pulses),
                                 Layout(n_pulses))
    runs = [(predicted_moments(params, noise, initial),
             no_atoms_moments(params, initial))]
    runs += [simulate_moments(params, noise, initial, n_shots, seed)
             for seed in seeds]
    return [certify(delta_stats(measured, reference, params.r_l),
                    measured.var_p, params.kappa, 25.0, j0,
                    var_p_se=measured.se["var_p"])
            for measured, reference in runs]


class TestClassicalModelsNeverPass:
    """A z = 3 gate should pass a model at or past a bound in about 0.13%
    of runs, so none of 100 seeds may pass."""

    def test_clipped_product_is_gated_by_the_unclipped_error(self):
        # dx2_s is 0.101 and dx2_m 12.96: the product is 1.31, classical.
        # Where dx2_s sampled below 0 the clipped product read 0 with
        # error 0, and info_damage passed whatever dx2_m was.
        params = ExperimentParams.from_kappa(0.25, mean_sx=50.0,
                                             mean_jx=50.0, r_a=0.99, r_l=0.9)
        exact, *sampled = _sampled_reports(
            params, NoiseModel.from_entries({(3, 3): 3.0}), 3, 25.0,
            range(100))
        assert exact.nonclassical.product_sm == pytest.approx(1.31, abs=0.01)
        assert any(r.nonclassical.product_sm == 0.0 for r in sampled)
        assert not any(r.verdict_info_damage for r in sampled)

    def test_reduced_route_never_certifies_state_prep(self):
        # with r_a assumed 1 the state-prep figure is r_a times the exact
        # one, a lower bound: here 0.88 for an exact 1.1, so it may refute
        # state preparation but never certify it
        params = ExperimentParams.from_kappa(2.0, mean_sx=50.0, mean_jx=50.0,
                                             r_a=0.8, r_l=0.9)
        exact, *sampled = _sampled_reports(
            params, NoiseModel.from_entries(_README_NOISE), 2, 5.453,
            range(100))
        assert exact.nonclassical.dx2_s_given_m == pytest.approx(0.88,
                                                                 abs=0.01)
        assert exact.nonclassical.r_a_assumed == 1.0
        assert not any(r.verdict_state_prep for r in sampled)
        assert all(exit_code(r) == 2 for r in sampled)


_REGIMES = {"readme-config": (0.8, _README_NOISE),
            "r_a-0.99-n33-20": (0.99, {(3, 3): 20.0})}


@pytest.fixture(scope="module")
def regime_rows():
    """Each coverage regime's records at seed 0, 4000 shots: the
    (with-atoms, no-atoms) rows."""
    rows = {}
    for name, (r_a, noise) in _REGIMES.items():
        rows[name] = [np.concatenate([chunk.copy() for chunk in arm_chunks(
            _coverage_params(r_a), NoiseModel.from_entries(noise),
            _coverage_initial(), 4000, 0, with_atoms=with_atoms)])
            for with_atoms in (True, False)]
    return rows


def _report_at_scale(rows, s):
    """certify on ``rows`` times 2**s, read with kappa in the same unit."""
    arms = []
    for arm in rows:
        acc = MomentAccumulator(3)
        acc.update(arm * 2.0 ** s)
        arms.append(acc.moments())
    measured, reference = arms
    return certify(delta_stats(measured, reference, 0.9), measured.var_p,
                   2.0 * 2.0 ** s, 25.0, 25.0,
                   var_p_se=measured.se["var_p"])


class TestUnitInvariance:
    """Records in any unit, by a power of two 2**s, with kappa in that
    unit: the product of a float and a power of two is exact, so every
    figure, error, verdict and reason keeps its bits, and each quantity
    in meter units scales exactly."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.sampled_from(sorted(_REGIMES)), st.integers(-60, 60))
    @example("readme-config", -19)
    @example("readme-config", -60)
    @example("r_a-0.99-n33-20", 60)
    @example("readme-config", -200)
    @example("r_a-0.99-n33-20", -200)
    @example("readme-config", 200)
    @example("r_a-0.99-n33-20", 250)
    def test_reports_keep_their_bits(self, regime_rows, regime, s):
        # at s = -200, 200 and 250, c2_in_out's old form, whose terms
        # scale by 2**(6 s), under- or overflowed: a ZeroDivisionError at
        # -200, and a NaN that no reason explained at 200 and 250
        base = _report_at_scale(regime_rows[regime], 0)
        scaled = _report_at_scale(regime_rows[regime], s)
        for key in ("figures", "nonclassical", "se", "verdict_state_prep",
                    "verdict_info_damage", "verdict_full_qnd",
                    "inconclusive", "reasons", "warnings"):
            assert getattr(scaled, key) == getattr(base, key), key
        for key in ("r_a", "r_a_se", "r_a_from_var", "r_a_from_var_se",
                    "cond_var_jz"):
            assert getattr(scaled.estimates, key) == \
                getattr(base.estimates, key), key
        noise, base_noise = scaled.estimates.noise, base.estimates.noise
        assert noise.n33 == base_noise.n33
        assert noise.n35 == base_noise.n35 * 2.0 ** s
        assert noise.n55 == base_noise.n55 * 4.0 ** s
        assert scaled.squeezing.margin == base.squeezing.margin * 16.0 ** s

    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    def test_analytic_moments_far_below_unit_scale(self, kappa):
        # at 2**-540, dx2_s's denominator d_cov_pr kappa**2 j0 underflowed
        # to 0: a ZeroDivisionError at kappa 1.  And d_cov_pq**2 lost
        # bits, so cond_var_jz read 8.904 for 9.467.  The squeezing
        # margin, a difference of moments squared, is left out, but its
        # verdict is kept: at 2**-560 the margin underflowed to 0, and
        # squeezed read False.
        params = ExperimentParams.from_kappa(kappa, mean_sx=50.0,
                                             mean_jx=50.0, r_a=0.8, r_l=0.9)
        noise = NoiseModel.from_entries(_README_NOISE)
        initial = _coverage_initial()
        reports = []
        for s in (0, -540, -560):
            measured, reference = (
                MomentSet(3, **{name: value * 2.0 ** s for name, value
                                in moments.entries().items()})
                for moments in (predicted_moments(params, noise, initial),
                                no_atoms_moments(params, initial)))
            reports.append(certify(delta_stats(measured, reference, 0.9),
                                   measured.var_p, kappa * 2.0 ** (s / 2),
                                   25.0, 25.0))
        base = reports[0]
        assert base.squeezing.squeezed
        for scaled in reports[1:]:
            for key in ("figures", "nonclassical", "reasons", "warnings"):
                assert getattr(scaled, key) == getattr(base, key), key
            assert scaled.estimates.cond_var_jz == base.estimates.cond_var_jz
            assert scaled.squeezing.squeezed == base.squeezing.squeezed


class TestReportSerialization:
    def test_dict_is_json_clean_and_stable(self, noisy_set):
        delta, var_p = _delta_of(noisy_set)
        report = certify(delta, var_p, 1.0, 25.0, 25.0)
        data = report_to_dict(report)
        text = dump_json(data)
        parsed = json.loads(text)
        assert parsed["kind"] == "certification_report"
        assert parsed["schema_version"] == 1
        assert parsed["verdicts"]["full_qnd"] is True
        assert parsed["calibration"]["kappa"] == 1.0
        assert parsed["nonclassicality"]["dx2_s"] == pytest.approx(-0.35)
        assert parsed["estimates"]["r_a"] == pytest.approx(0.8)

    def test_exit_codes(self, ideal_set):
        delta, var_p = _delta_of(ideal_set)
        good = certify(delta, var_p, 1.0, 25.0, 25.0)
        assert exit_code(good) == 0
        # shrinking j0 makes the conditioned spin look classical
        bad = certify(delta, var_p, 1.0, 25.0, 5.0)
        assert bad.nonclassical.dx2_s_given_m == pytest.approx(2.5)
        assert exit_code(bad) == 10

    def test_atomic_write(self, tmp_path, ideal_set):
        delta, var_p = _delta_of(ideal_set)
        report = certify(delta, var_p, 1.0, 25.0, 25.0)
        out = tmp_path / "report.json"
        dump_json(report_to_dict(report), out)
        assert json.loads(out.read_text())["inconclusive"] is False
        # no temp files left behind by the atomic write
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
