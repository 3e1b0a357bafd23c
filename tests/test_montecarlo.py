from dataclasses import replace

import numpy as np
import pytest

from qndcert import (
    AtomicBlock,
    ExperimentParams,
    GaussianState,
    Layout,
    NoiseModel,
    OpticalBlock,
    SamplerUnsupportedError,
    empirical_check,
    interaction_matrix,
    make_initial_state,
    params_hash,
    sample_moments,
    simulate_arm,
    simulate_shots,
)
from qndcert.montecarlo import CHUNK_SHOTS, _psd_factor


class TestDeterminism:
    def test_same_seed_same_draws(self, noisy_set):
        params, noise, initial = noisy_set
        a = simulate_arm(params, noise, initial, 500, 99)
        b = simulate_arm(params, noise, initial, 500, 99)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, noisy_set):
        params, noise, initial = noisy_set
        a = simulate_arm(params, noise, initial, 500, 99)
        b = simulate_arm(params, noise, initial, 500, 100)
        assert not np.array_equal(a, b)

    def test_arms_use_distinct_streams(self, ideal_set):
        params, noise, initial = ideal_set
        records = simulate_shots(params, noise, initial, 500, 99)
        assert not np.array_equal(records.with_atoms, records.no_atoms)

    def test_chunks_are_independent_of_total_length(self, ideal_set):
        # each 16384-shot chunk owns a fixed substream, so a longer run
        # reproduces the shorter run's chunks verbatim
        params, noise, initial = ideal_set
        short = simulate_arm(params, noise, initial, CHUNK_SHOTS, 7)
        longer = simulate_arm(params, noise, initial, CHUNK_SHOTS + 2000, 7)
        np.testing.assert_array_equal(longer[:CHUNK_SHOTS], short)

    def test_noise_free_prefix_identity(self, lossy_set):
        # without per-pulse noise draws, even partial chunks agree
        params, noise, initial = lossy_set
        assert noise.is_zero
        short = simulate_arm(params, noise, initial, 100, 7)
        longer = simulate_arm(params, noise, initial, 2000, 7)
        np.testing.assert_array_equal(longer[:100], short)

    def test_shot_count_validation(self, ideal_set):
        params, noise, initial = ideal_set
        with pytest.raises(ValueError):
            simulate_arm(params, noise, initial, 0, 1)


def _stepwise_arm(params, noise, initial, n_shots, seed, with_atoms=True):
    """Reference sampler: the full state vector of every shot is carried
    through each pulse map in turn, with the pulse's noise kick added onto
    the spin block and the active pulse block, and the meter components
    are read off at the end.  It consumes the same (arm, chunk) substreams
    in the same order as ``simulate_arm``."""
    layout = initial.layout
    if not with_atoms:
        params = replace(params, g_tau=0.0, r_a=1.0, r_l=1.0)
        noise = NoiseModel.zero()
    pulses = range(1, layout.n_pulses + 1)
    maps = [interaction_matrix(params, pulse, layout) for pulse in pulses]
    initial_factor = _psd_factor(initial.cov, "initial covariance")
    noise_factor = (None if noise.is_zero
                    else _psd_factor(noise.matrix, "noise matrix"))
    arm = 0 if with_atoms else 1
    out = np.empty((n_shots, layout.n_pulses))
    for chunk, start in enumerate(range(0, n_shots, CHUNK_SHOTS)):
        count = min(CHUNK_SHOTS, n_shots - start)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(arm, chunk)))
        x = initial.mean + rng.standard_normal(
            (count, initial_factor.shape[1])) @ initial_factor.T
        for pulse, m in zip(pulses, maps):
            x = x @ m.T
            if noise_factor is not None:
                block = layout.block_slice(pulse)
                rows = np.r_[0:3, block.start:block.stop]
                kick = rng.standard_normal((count, noise_factor.shape[1]))
                x[:, rows] += kick @ noise_factor.T
        out[start:start + count] = x[:, list(layout.meter_indices)]
    return out


# Full-rank noise touching every spin and every pulse component.
_DENSE_NOISE = NoiseModel.from_entries({
    (1, 1): 0.3, (2, 2): 0.7, (3, 3): 2.0, (3, 5): 0.5, (4, 4): 0.1,
    (5, 5): 4.0, (2, 6): 0.2, (6, 6): 1.5,
})


class TestAgainstStepwisePropagation:
    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    @pytest.mark.parametrize("noise", [NoiseModel.zero(), _DENSE_NOISE],
                             ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("displaced", [False, True],
                             ids=["centred", "displaced"])
    def test_matches_reference(self, n_pulses, noise, displaced):
        layout = Layout(n_pulses)
        initial = make_initial_state(
            AtomicBlock.coherent(100.0),
            OpticalBlock.coherent(100.0, n_pulses), layout)
        if displaced:
            mean = np.linspace(-3.0, 5.0, layout.dimension)
            initial = GaussianState(layout, mean, initial.cov)
        params = ExperimentParams.from_kappa(1.3, mean_sx=50.0, mean_jx=40.0,
                                             r_a=0.8, r_l=0.9)
        n_shots = CHUNK_SHOTS + 5 if n_pulses == 3 else 700
        for with_atoms in (True, False):
            got = simulate_arm(params, noise, initial, n_shots, 41,
                               with_atoms=with_atoms)
            want = _stepwise_arm(params, noise, initial, n_shots, 41,
                                 with_atoms=with_atoms)
            scale = np.abs(want).max(axis=0)
            assert np.all(np.abs(got - want) <= 1e-12 * scale), with_atoms


class TestParamsHash:
    def test_stable_for_equal_models(self, noisy_set):
        params, noise, initial = noisy_set
        assert params_hash(params, noise, initial) == \
            params_hash(params, noise, initial)

    def test_sensitive_to_each_ingredient(self, noisy_set):
        from dataclasses import replace
        params, noise, initial = noisy_set
        base = params_hash(params, noise, initial)
        assert params_hash(replace(params, r_a=0.81), noise, initial) != base
        assert params_hash(params, NoiseModel.zero(), initial) != base

    def test_recorded_in_simulation_output(self, ideal_set):
        params, noise, initial = ideal_set
        records = simulate_shots(params, noise, initial, 10, 3)
        assert records.params_hash == params_hash(params, noise, initial)
        assert records.seed == 3
        assert records.n_shots == 10
        assert records.n_pulses == 3


class TestSampledStatistics:
    def test_moments_match_predictions_ideal(self, ideal_set):
        check = empirical_check(*ideal_set, n_shots=20000, seed=5)
        assert check.passed, max(check.rows, key=lambda r: abs(r.z))

    def test_moments_match_predictions_noisy(self, noisy_set):
        check = empirical_check(*noisy_set, n_shots=20000, seed=5)
        assert check.passed, max(check.rows, key=lambda r: abs(r.z))

    def test_check_covers_both_arms_and_all_moments(self, ideal_set):
        check = empirical_check(*ideal_set, n_shots=2000, seed=5)
        arms = {row.arm for row in check.rows}
        assert arms == {"with_atoms", "no_atoms"}
        assert len(check.rows) == 12  # 6 moments per arm

    def test_reference_arm_ignores_couplings_and_loss(self, noisy_set):
        # the no-atoms arm must depend on the input light alone
        params, noise, initial = noisy_set
        plain = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0)
        a = simulate_arm(params, noise, initial, 300, 11, with_atoms=False)
        b = simulate_arm(plain, NoiseModel.zero(), initial, 300, 11,
                         with_atoms=False)
        np.testing.assert_array_equal(a, b)

    def test_mean_displacement_survives_sampling(self, ideal_set):
        # displaced J_z shows up in the meter means at gain kappa
        params, noise, initial = ideal_set
        layout = initial.layout
        mean = np.asarray(initial.mean).copy()
        mean[layout.index("J_z")] = 4.0
        displaced = GaussianState(layout, mean, initial.cov)
        rows = simulate_arm(params, noise, displaced, 40000, 13)
        assert rows[:, 0].mean() == pytest.approx(4.0, abs=0.15)
        assert rows[:, 2].mean() == pytest.approx(4.0, abs=0.15)


class TestDegenerateCovariances:
    def test_singular_input_is_fine(self, ideal_set):
        # coherent blocks have exactly zero variance along x
        params, noise, initial = ideal_set
        rows = simulate_arm(params, noise, initial, 1000, 17)
        assert np.isfinite(rows).all()

    def test_fully_deterministic_input(self):
        layout = Layout(1)
        initial = GaussianState(layout, np.zeros(6), np.zeros((6, 6)))
        params = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0)
        rows = simulate_arm(params, NoiseModel.zero(), initial, 50, 19)
        np.testing.assert_array_equal(rows, np.zeros((50, 1)))

    def test_deterministic_moments_zscore_exactly(self):
        # se = 0 rows must compare exactly rather than divide by zero
        layout = Layout(1)
        initial = GaussianState(layout, np.zeros(6), np.zeros((6, 6)))
        params = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0)
        check = empirical_check(params, NoiseModel.zero(), initial,
                                n_shots=100, seed=23)
        assert check.passed
        assert check.max_abs_z == 0.0

    def test_indefinite_covariance_rejected(self):
        layout = Layout(1)
        cov = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -0.5])
        initial = GaussianState(layout, np.zeros(6), cov, check_psd=False)
        params = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0)
        with pytest.raises(SamplerUnsupportedError):
            simulate_arm(params, NoiseModel.zero(), initial, 10, 1)


class TestConvergence:
    def test_error_shrinks_with_shots(self, ideal_set):
        # quick sanity version of the full scaling study: the average
        # var_p error at 1e5 shots sits well below the 1e3-shot error
        params, noise, initial = ideal_set
        small = large = 0.0
        for seed in range(29, 35):
            rows = simulate_arm(params, noise, initial, 100000, seed)
            small += abs(np.var(rows[:1000, 0], ddof=1) - 50.0)
            large += abs(np.var(rows[:, 0], ddof=1) - 50.0)
        assert large < small / 3.0
