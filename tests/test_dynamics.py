import dataclasses
import re

import numpy as np
import pytest

from qndcert import (
    AtomicBlock,
    ExperimentParams,
    GaussianState,
    Layout,
    LayoutError,
    NoiseModel,
    NotPositiveSemidefiniteError,
    OpticalBlock,
    UndefinedInputError,
    apply_pulse,
    get_entry,
    interaction_matrix,
    make_initial_state,
    noise_matrix,
    propagate,
)

from conftest import random_psd


def _swap_with_first(pulse, layout):
    """Permutation matrix exchanging pulse blocks 1 and ``pulse``."""
    order = np.arange(layout.dimension)
    a, b = layout.block_slice(1), layout.block_slice(pulse)
    order[a], order[b] = order[b].copy(), order[a].copy()
    return np.eye(layout.dimension)[order]


class TestExperimentParams:
    def test_coupling_weights(self):
        params = ExperimentParams(g_tau=0.02, mean_sx=50.0, mean_jx=40.0)
        assert params.kappa == 1.0
        assert params.kappa_back == pytest.approx(0.8)

    def test_from_kappa_inverts_the_product(self):
        params = ExperimentParams.from_kappa(1.5, mean_sx=60.0, mean_jx=10.0)
        assert params.kappa == pytest.approx(1.5)
        assert params.g_tau == pytest.approx(0.025)

    def test_from_kappa_requires_polarized_light(self):
        with pytest.raises(ValueError):
            ExperimentParams.from_kappa(1.0, mean_sx=0.0, mean_jx=10.0)

    @pytest.mark.parametrize("fields, refusal", [
        ((1e300, 1e100, 1.0), "kappa = g_tau * mean_sx overflows"),
        ((-1e300, 1.0, 1e100), "kappa_back = g_tau * mean_jx overflows"),
        ((1e-200, 1e-200, 1.0), "kappa = g_tau * mean_sx underflows to 0"),
        ((1e-200, 1.0, -1e-200),
         "kappa_back = g_tau * mean_jx underflows to 0")])
    def test_coupling_weights_stay_in_range(self, fields, refusal):
        # kappa 1e400 gave infinite predicted variances and a sampler
        # whose records held NaN; kappa 1e-400 turned the coupling off
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}: "):
            ExperimentParams(*fields)

    @pytest.mark.parametrize("fields", [(0.0, 1e300, 1e300),
                                        (1e300, 0.0, 0.0), (0.02, 50.0, 0.0)])
    def test_a_zero_factor_gives_a_zero_weight(self, fields):
        params = ExperimentParams(*fields)
        assert 0.0 in (params.kappa, params.kappa_back)

    @pytest.mark.parametrize("kappa, mean_sx, refusal", [
        (1e300, 1e-10, "g_tau = kappa / mean_sx overflows"),
        (1e-200, 5e199, "g_tau = kappa / mean_sx underflows to 0")])
    def test_from_kappa_keeps_g_tau_in_range(self, kappa, mean_sx, refusal):
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}: "):
            ExperimentParams.from_kappa(kappa, mean_sx=mean_sx, mean_jx=1.0)

    @pytest.mark.parametrize("field,value", [("r_a", -0.1), ("r_a", 1.1),
                                             ("r_l", -0.1), ("r_l", 2.0)])
    def test_survival_fractions_bounded(self, field, value):
        with pytest.raises(ValueError):
            ExperimentParams(g_tau=0.01, mean_sx=50.0, mean_jx=50.0,
                             **{field: value})

    @pytest.mark.parametrize("field", ["g_tau", "mean_sx", "mean_jx"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_couplings_and_polarizations_finite(self, field, value):
        # A NaN coupling would give all-NaN moments, an infinite
        # polarization a numpy warning in apply_pulse; both refused here.
        fields = {"g_tau": 0.02, "mean_sx": 50.0, "mean_jx": 40.0}
        with pytest.raises(ValueError,
                           match=f"^{field} must be finite, got {value}$"):
            ExperimentParams(**{**fields, field: value})


class TestNoiseModel:
    def test_from_entries_symmetrizes(self):
        noise = NoiseModel.from_entries({(3, 5): 0.5, (3, 3): 2.0,
                                         (5, 5): 4.0})
        assert noise.matrix[2, 4] == 0.5
        assert noise.matrix[4, 2] == 0.5
        assert noise.n33 == 2.0
        assert noise.n35 == 0.5
        assert noise.n55 == 4.0

    def test_indefinite_entries_are_refused(self):
        # with N55 = 0, N35 = 0.5 makes the matrix indefinite
        with pytest.raises(NotPositiveSemidefiniteError,
                           match="^noise matrix has eigenvalue "
                                 "-1.180340e-01 below tolerance"):
            NoiseModel.from_entries({(3, 5): 0.5, (3, 3): 2.0})

    def test_entry_index_range(self):
        with pytest.raises(ValueError):
            NoiseModel.from_entries({(0, 3): 1.0})

    def test_zero(self):
        assert NoiseModel.zero().is_zero

    def test_must_be_symmetric(self):
        matrix = np.zeros((6, 6))
        matrix[2, 4] = 0.5
        with pytest.raises(ValueError):
            NoiseModel(matrix)

    @pytest.mark.parametrize("entries", [{(3, 3): np.nan}, {(3, 5): np.inf},
                                         {(5, 5): -np.inf}])
    def test_entries_must_be_finite(self, entries):
        # a NaN entry used to give a NaN eigenvalue, whose column the
        # sampler dropped: the records came out as if without noise
        with pytest.raises(UndefinedInputError,
                           match="noise matrix holds a non-finite entry"):
            NoiseModel.from_entries(entries)

    @pytest.mark.parametrize("shape", [(5, 5), (6, 5), (36,)])
    def test_must_be_6x6(self, shape):
        with pytest.raises(ValueError, match="^noise matrix must be 6x6"):
            NoiseModel(np.zeros(shape))

    def test_all_nan_matrix_rejected(self):
        with pytest.raises(UndefinedInputError, match="non-finite"):
            NoiseModel(np.full((6, 6), np.nan))


class TestInteractionMatrix:
    def test_single_pulse_structure(self):
        """Spell out the whole 6x6 map for one pulse by hand."""
        layout = Layout(1)
        params = ExperimentParams(g_tau=0.02, mean_sx=50.0, mean_jx=40.0,
                                  r_a=0.8, r_l=0.9)
        kappa, kappa_b = 1.0, 0.8
        expected = np.array([
            [0.8, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.8, 0.0, 0.0, 0.0, kappa_b],
            [0.0, 0.0, 0.8, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.9, 0.0, 0.0],
            [0.0, 0.0, kappa, 0.0, 0.9, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.9],
        ])
        np.testing.assert_allclose(interaction_matrix(params, 1, layout),
                                   expected, atol=1e-15)

    def test_inactive_pulses_untouched(self):
        layout = Layout(3)
        params = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0,
                                             r_a=0.7, r_l=0.6)
        m = interaction_matrix(params, 2, layout)
        # pulses 1 and 3 pass through unchanged while pulse 2 interacts
        np.testing.assert_array_equal(m[3:6, 3:6], np.eye(3))
        np.testing.assert_array_equal(m[9:12, 9:12], np.eye(3))
        assert m[7, 2] == 1.0   # Q_y picks up J_z
        assert m[1, 8] == 1.0   # J_y picks up Q_z
        assert m[7, 7] == 0.6   # r_l on the active diagonal

    def test_later_pulse_map_is_block_swapped_first_pulse_map(self):
        layout = Layout(3)
        params = ExperimentParams.from_kappa(1.3, mean_sx=50.0, mean_jx=20.0,
                                             r_a=0.8, r_l=0.9)
        m1 = interaction_matrix(params, 1, layout)
        for pulse in (2, 3):
            x = _swap_with_first(pulse, layout)
            np.testing.assert_allclose(interaction_matrix(params, pulse, layout),
                                       x @ m1 @ x, atol=1e-15)

    def test_pulse_out_of_range(self):
        with pytest.raises(LayoutError):
            interaction_matrix(
                ExperimentParams(g_tau=0.01, mean_sx=1.0, mean_jx=1.0),
                3, Layout(2))


class TestNoiseEmbedding:
    def test_rows_hit_spin_and_active_block_only(self):
        layout = Layout(3)
        noise = NoiseModel.from_entries({(3, 3): 2.0, (3, 5): 0.5,
                                         (5, 5): 4.0})
        n2 = noise_matrix(noise, 2, layout)
        assert n2[2, 2] == 2.0
        assert n2[2, 7] == 0.5   # J_z with Q_y
        assert n2[7, 7] == 4.0
        # nothing lands on the inactive pulse blocks
        assert not n2[3:6, :].any()
        assert not n2[9:12, :].any()

    def test_embedding_commutes_with_block_exchange(self):
        layout = Layout(3)
        rng = np.random.default_rng(5)
        noise = NoiseModel(random_psd(rng, 6, 3.0))
        x = _swap_with_first(3, layout)
        np.testing.assert_allclose(noise_matrix(noise, 3, layout),
                                   x @ noise_matrix(noise, 1, layout) @ x,
                                   atol=1e-15)


    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    def test_slices_equal_index_grid_embedding(self, n_pulses):
        # Bit-equal to the np.ix_ embedding over (spin, active pulse).
        layout = Layout(n_pulses)
        rng = np.random.default_rng(40 + n_pulses)
        for _ in range(20):
            raw = rng.normal(scale=rng.uniform(0.1, 10.0), size=(6, 6))
            with pytest.raises(NotPositiveSemidefiniteError):
                NoiseModel(raw + raw.T)
            noise = NoiseModel(raw @ raw.T)
            for pulse in range(1, n_pulses + 1):
                active = layout.block_slice(pulse)
                idx = np.r_[0:3, active.start:active.stop]
                expected = np.zeros((layout.dimension, layout.dimension))
                expected[np.ix_(idx, idx)] = noise.matrix
                got = noise_matrix(noise, pulse, layout)
                assert got.shape == expected.shape
                assert (got == expected).all()


def _reference_interaction(params, pulse, layout):
    """M built by slices and label lookups: the reference whose bits the
    index tables must give."""
    m = np.eye(layout.dimension)
    m[:3, :3] *= params.r_a
    active = layout.block_slice(pulse)
    m[active, active] = params.r_l * np.eye(3)
    m[active.start + 1, layout.index("J_z")] = params.kappa
    m[layout.index("J_y"), active.start + 2] = params.kappa_back
    return m


def _reference_noise(noise, pulse, layout):
    active = layout.block_slice(pulse)
    out = np.zeros((layout.dimension, layout.dimension))
    out[:3, :3] = noise.matrix[:3, :3]
    out[:3, active] = noise.matrix[:3, 3:]
    out[active, :3] = noise.matrix[3:, :3]
    out[active, active] = noise.matrix[3:, 3:]
    return out


def _same_bits(a, b):
    """Equal shape and dtype, and every float equal bit for bit, so the
    sign of each zero counts."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


class TestTablesKeepTheBits:
    """The per-layout index tables against the slice construction."""

    @staticmethod
    def _params(rng, survival):
        kappa, back = rng.uniform(0.1, 3.0, size=2)
        return ExperimentParams(g_tau=kappa / 50.0, mean_sx=50.0,
                                mean_jx=back * 50.0 / kappa,
                                r_a=survival[0], r_l=survival[1])

    @pytest.mark.parametrize("survival", [(0.8, 0.9), (1.0, 1.0),
                                          (0.0, 0.0), (-0.0, -0.0),
                                          (-0.0, 0.7), (0.6, -0.0)],
                             ids=["lossy", "lossless", "zero", "minus-zero",
                                  "minus-zero-r_a", "minus-zero-r_l"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    def test_maps_and_pulses_equal_the_slices(self, n_pulses, sign,
                                              survival):
        layout = Layout(n_pulses)
        rng = np.random.default_rng(7 * n_pulses)
        unsigned = self._params(rng, survival)
        params = dataclasses.replace(unsigned, g_tau=sign * unsigned.g_tau)
        noise = NoiseModel(random_psd(rng, 6, 3.0))
        state = GaussianState(layout, rng.normal(size=layout.dimension),
                              random_psd(rng, layout.dimension, 10.0))
        for pulse in range(1, n_pulses + 1):
            m = interaction_matrix(params, pulse, layout)
            assert _same_bits(m, _reference_interaction(params, pulse,
                                                        layout))
            assert _same_bits(noise_matrix(noise, pulse, layout),
                              _reference_noise(noise, pulse, layout))
            out = apply_pulse(state, params, noise, pulse)
            m = _reference_interaction(params, pulse, layout)
            n = _reference_noise(noise, pulse, layout)
            assert _same_bits(out.mean, m @ state.mean)
            cov = m @ state.cov @ m.T + n
            assert _same_bits(out.cov, (cov + cov.T) / 2.0)

    def test_minus_zero_survival_signs_the_whole_block(self):
        # -0.0 times eye(3): all nine entries of both blocks are -0.0
        params = ExperimentParams(g_tau=0.02, mean_sx=50.0, mean_jx=40.0,
                                  r_a=-0.0, r_l=-0.0)
        m = interaction_matrix(params, 2, Layout(3))
        minus_zero = (m == 0.0) & np.signbit(m)
        assert minus_zero.sum() == 18
        assert minus_zero[:3, :3].all() and minus_zero[6:9, 6:9].all()

    def test_unknown_pulse_is_a_layout_error(self):
        params = ExperimentParams(g_tau=0.02, mean_sx=50.0, mean_jx=40.0)
        for pulse in (0, 4, -1, 1.0, "1"):
            with pytest.raises(LayoutError, match="pulse must be in 1..3"):
                interaction_matrix(params, pulse, Layout(3))
            with pytest.raises(LayoutError, match="pulse must be in 1..3"):
                noise_matrix(NoiseModel.zero(), pulse, Layout(3))


class TestApplyPulse:
    def test_matches_hand_propagation_on_random_state(self):
        layout = Layout(1)
        rng = np.random.default_rng(11)
        mean = rng.normal(size=6)
        state = GaussianState(layout, mean, random_psd(rng, 6, 10.0))
        params = ExperimentParams(g_tau=0.02, mean_sx=50.0, mean_jx=40.0,
                                  r_a=0.8, r_l=0.9)
        noise = NoiseModel(random_psd(rng, 6, 2.0))
        out = apply_pulse(state, params, noise, 1)
        m = np.array([
            [0.8, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.8, 0.0, 0.0, 0.0, 0.8],
            [0.0, 0.0, 0.8, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.9, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.9, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.9],
        ])
        np.testing.assert_allclose(out.mean, m @ mean, rtol=1e-14)
        np.testing.assert_allclose(out.cov, m @ state.cov @ m.T + noise.matrix,
                                   rtol=1e-13, atol=1e-13)

    def test_meter_reads_the_spin(self):
        # displace J_z and watch the active meter mean move by kappa * <J_z>
        layout = Layout(2)
        state = make_initial_state(AtomicBlock.coherent(100.0),
                                   OpticalBlock.coherent(100.0, 2), layout)
        mean = state.mean.copy()
        mean[layout.index("J_z")] = 3.0
        state = GaussianState(layout, mean, state.cov)
        params = ExperimentParams.from_kappa(1.5, mean_sx=50.0, mean_jx=50.0)
        out = apply_pulse(state, params, NoiseModel.zero(), 2)
        assert out.mean[layout.index("Q_y")] == pytest.approx(4.5)
        assert out.mean[layout.index("P_y")] == 0.0

    def test_back_action_moves_j_y(self):
        layout = Layout(1)
        state = make_initial_state(AtomicBlock.coherent(100.0),
                                   OpticalBlock.coherent(100.0, 1), layout)
        mean = state.mean.copy()
        mean[layout.index("P_z")] = 2.0
        state = GaussianState(layout, mean, state.cov)
        params = ExperimentParams(g_tau=0.02, mean_sx=50.0, mean_jx=50.0)
        out = apply_pulse(state, params, NoiseModel.zero(), 1)
        assert out.mean[layout.index("J_y")] == pytest.approx(2.0)

    def test_three_pulses_build_meter_spin_correlations(self, noisy_set):
        params, noise, initial = noisy_set
        state = propagate(params, noise, initial)
        # every meter ends up correlated with every other through J_z
        assert get_entry(state, "P_y", "Q_y") > 0.0
        assert get_entry(state, "P_y", "R_y") > 0.0
        assert get_entry(state, "Q_y", "R_y") > 0.0
        # spin variance is damped and fed by noise, never negative
        assert get_entry(state, "J_z", "J_z") > 0.0

    def test_output_stays_symmetric(self, lossy_set):
        params, noise, initial = lossy_set
        out = apply_pulse(initial, params, noise, 1)
        np.testing.assert_array_equal(out.cov, out.cov.T)
