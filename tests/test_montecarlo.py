import json
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import qndcert.montecarlo

from qndcert import (
    AtomicBlock,
    ExperimentParams,
    GaussianState,
    Layout,
    NoiseModel,
    OpticalBlock,
    SamplerUnsupportedError,
    UndefinedInputError,
    empirical_check,
    interaction_matrix,
    load_config,
    make_initial_state,
    params_hash,
    simulate_moments,
)
from qndcert import selftest
from qndcert.cli import main
from qndcert.montecarlo import (
    CheckRow,
    EmpiricalCheck,
    _psd_factor,
    arm_chunks,
)
from qndcert.statistics import (
    ARM_ROLES,
    CHUNK_SHOTS,
    MomentAccumulator,
    delta_stats,
    map_arms,
)


def _first_chunk(params, noise, initial, n_shots, seed, with_atoms=True):
    return next(arm_chunks(params, noise, initial, n_shots, seed,
                           with_atoms=with_atoms))


class TestDeterminism:
    def test_same_seed_same_draws(self, noisy_set):
        params, noise, initial = noisy_set
        for a, b in zip(arm_chunks(params, noise, initial, CHUNK_SHOTS + 5,
                                   99),
                        arm_chunks(params, noise, initial, CHUNK_SHOTS + 5,
                                   99), strict=True):
            np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, noisy_set):
        params, noise, initial = noisy_set
        a = _first_chunk(params, noise, initial, 500, 99)
        b = _first_chunk(params, noise, initial, 500, 100)
        assert not np.array_equal(a, b)

    def test_arms_use_distinct_streams(self, ideal_set):
        params, noise, initial = ideal_set
        assert not np.array_equal(
            _first_chunk(params, noise, initial, 500, 99),
            _first_chunk(params, noise, initial, 500, 99, with_atoms=False))

    def test_chunks_are_independent_of_total_length(self, ideal_set):
        # each 16384-shot chunk owns a fixed substream, so a longer run
        # reproduces the shorter run's chunks verbatim
        params, noise, initial = ideal_set
        short = _first_chunk(params, noise, initial, CHUNK_SHOTS, 7)
        longer = _first_chunk(params, noise, initial, CHUNK_SHOTS + 2000, 7)
        np.testing.assert_array_equal(longer, short)

    def test_noise_free_prefix_identity(self, lossy_set):
        # without per-pulse noise draws, even partial chunks agree
        params, noise, initial = lossy_set
        assert noise.is_zero
        short = _first_chunk(params, noise, initial, 100, 7)
        longer = _first_chunk(params, noise, initial, 2000, 7)
        np.testing.assert_array_equal(longer[:100], short)

    def test_shot_count_validation(self, ideal_set):
        params, noise, initial = ideal_set
        with pytest.raises(ValueError):
            arm_chunks(params, noise, initial, 0, 1)


def _stepwise_arm(params, noise, initial, n_shots, seed, with_atoms=True):
    """Reference sampler: the full state vector of every shot is carried
    through each pulse map in turn, with the pulse's noise kick added onto
    the spin block and the active pulse block, and the meter components
    are read off at the end.  It consumes the same (arm, chunk) substreams
    in the same order as :func:`arm_chunks`."""
    layout = initial.layout
    if not with_atoms:
        params = replace(params, g_tau=0.0, r_a=1.0, r_l=1.0)
        noise = NoiseModel.zero()
    pulses = range(1, layout.n_pulses + 1)
    maps = [interaction_matrix(params, pulse, layout) for pulse in pulses]
    initial_factor = _psd_factor(initial.cov)
    noise_factor = None if noise.is_zero else _psd_factor(noise.matrix)
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
        out[start:start + count] = x[:, layout.meter_slice]
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
            want = _stepwise_arm(params, noise, initial, n_shots, 41,
                                 with_atoms=with_atoms)
            scale = np.abs(want).max(axis=0)
            start = 0
            for got in arm_chunks(params, noise, initial, n_shots, 41,
                                  with_atoms=with_atoms):
                part = want[start:start + len(got)]
                assert np.all(np.abs(got - part) <= 1e-12 * scale), with_atoms
                start += len(got)
            assert start == n_shots


class TestArmThreads:
    """Both arms are drawn and accumulated side by side; the moments must
    be those of the two arms run one after the other."""

    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    @pytest.mark.parametrize("noise", [NoiseModel.zero(), _DENSE_NOISE],
                             ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("n_shots", [CHUNK_SHOTS - 1, CHUNK_SHOTS + 1])
    def test_equals_serial_arms(self, n_pulses, noise, n_shots):
        initial = make_initial_state(
            AtomicBlock.coherent(100.0),
            OpticalBlock.coherent(100.0, n_pulses), Layout(n_pulses))
        params = ExperimentParams.from_kappa(1.3, mean_sx=50.0, mean_jx=40.0,
                                             r_a=0.8, r_l=0.9)
        moments = simulate_moments(params, noise, initial, n_shots, 23)
        for role, got in zip(ARM_ROLES, moments):
            acc = MomentAccumulator(n_pulses)
            for chunk in arm_chunks(params, noise, initial, n_shots, 23,
                                    with_atoms=role == "with_atoms"):
                acc.update(chunk)
            np.testing.assert_array_equal(got.cov, acc.moments().cov)
            np.testing.assert_array_equal(got.moment_cov,
                                          acc.moments().moment_cov)

    def test_split_draws_consume_the_substream_in_order(self):
        # arm_chunks draws a chunk's variates a few rows at a time
        key = np.random.SeedSequence(entropy=5, spawn_key=(0, 3))
        whole = np.random.default_rng(key).standard_normal((1000, 7))
        rng = np.random.default_rng(key)
        parts = [rng.standard_normal((rows, 7)) for rows in (1, 409, 590)]
        np.testing.assert_array_equal(np.vstack(parts), whole)

    @pytest.mark.parametrize("failing", [("with_atoms",), ("no_atoms",),
                                         ("with_atoms", "no_atoms")])
    def test_first_failure_in_role_order_reaches_the_caller(
            self, ideal_set, monkeypatch, failing):
        real = qndcert.montecarlo.arm_chunks

        def arm(*args, with_atoms):
            role = "with_atoms" if with_atoms else "no_atoms"
            if role in failing:
                raise SamplerUnsupportedError(role)
            return real(*args, with_atoms=with_atoms)

        monkeypatch.setattr(qndcert.montecarlo, "arm_chunks", arm)
        threads = threading.active_count()
        with pytest.raises(SamplerUnsupportedError) as caught:
            simulate_moments(*ideal_set, 100, 1)
        assert str(caught.value) == failing[0]
        assert threading.active_count() == threads

    def test_arms_run_side_by_side(self):
        # each call waits for the other: run one after the other, they
        # would break the barrier
        barrier = threading.Barrier(2, timeout=60.0)

        def meet(role):
            barrier.wait()
            return role, threading.get_ident()

        (first, ident_a), (second, ident_b) = map_arms(meet)
        assert (first, second) == ("with_atoms", "no_atoms")
        assert ident_a == threading.get_ident() != ident_b


class TestStreamedMemory:
    def test_empirical_check_is_flat_in_the_shot_count(self, noisy_set,
                                                       monkeypatch):
        # each arm is accumulated chunk by chunk: the peak at 16 chunks
        # per arm is within 10% of the peak at 4.  The arms run one after
        # the other, so that the peak does not hang on how the two
        # threads' chunks happen to overlap.
        monkeypatch.setattr(qndcert.montecarlo, "map_arms",
                            lambda fn: (fn("with_atoms"), fn("no_atoms")))
        empirical_check(*noisy_set, n_shots=1000, seed=1)  # warm-up
        peaks = []
        for n_chunks in (4, 16):
            tracemalloc.start()
            try:
                check = empirical_check(*noisy_set,
                                        n_shots=n_chunks * CHUNK_SHOTS, seed=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert check.passed
        assert peaks[1] <= 1.1 * peaks[0], peaks


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

    def test_recorded_in_simulation_output(self, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "n_pulses": 3, "coupling": {"kappa": 1.0},
            "atoms": {"n_atoms": 100.0}, "light": {"n_photons": 100.0},
            "n_shots": 10, "seed": 3}))
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "run")]) == 0
        meta = json.loads((tmp_path / "run.meta.json").read_text())
        config = load_config(config_path)
        assert meta["params_hash"] == params_hash(
            config.params, config.noise, config.initial_state())
        assert meta["seed"] == 3
        assert meta["n_shots"] == 10
        assert meta["n_pulses"] == 3


class TestSampledStatistics:
    def test_moments_match_predictions_ideal(self, ideal_set):
        check = empirical_check(*ideal_set, n_shots=20000, seed=5)
        assert check.passed, max(check.rows, key=lambda r: abs(r.z))

    def test_moments_match_predictions_noisy(self, noisy_set):
        check = empirical_check(*noisy_set, n_shots=20000, seed=5)
        assert check.passed, max(check.rows, key=lambda r: abs(r.z))

    @pytest.mark.parametrize("z, passed", [
        (5.0, True), (-5.0, True), (np.nextafter(5.0, np.inf), False),
        (-np.nextafter(5.0, np.inf), False), (np.inf, False)])
    def test_the_bound_is_five_standard_errors(self, z, passed):
        assert qndcert.montecarlo.Z_MAX == 5.0
        rows = (CheckRow("with_atoms", "var_p", 1.0, 1.0, 1.0, 0.0),
                CheckRow("no_atoms", "var_q", 1.0, 1.0 + z, 1.0, float(z)))
        assert EmpiricalCheck(rows).passed is passed

    @pytest.mark.parametrize("order", [1, -1])
    def test_a_nan_z_fails_in_any_row_order(self, order):
        # max() skipped a NaN that was not the first row: (0, NaN)
        # passed with max |z| 0.0, while (NaN, 0) failed
        rows = (CheckRow("with_atoms", "var_p", 1.0, 1.0, 1.0, 0.0),
                CheckRow("no_atoms", "var_q", 1.0, np.nan, 1.0, np.nan))
        check = EmpiricalCheck(rows[::order])
        assert check.passed is False
        assert np.isnan(check.max_abs_z)

    @pytest.mark.parametrize("order", [1, -1])
    def test_selftest_names_a_nan_z_in_any_order(self, monkeypatch, order):
        # the sampling suite's detail line took max() over the checks and
        # read "max |z| 0.00" on a failing run whose NaN check came second
        rows = (CheckRow("with_atoms", "var_p", 1.0, 1.0, 1.0, 0.0),
                CheckRow("no_atoms", "var_q", 1.0, np.nan, 1.0, np.nan))
        checks = iter([EmpiricalCheck(rows[:1]), EmpiricalCheck(rows[1:])][
            ::order])
        monkeypatch.setattr(selftest, "empirical_check",
                            lambda *args: next(checks))
        result = selftest._suite_sampling(100, 5, 1.0)
        assert result.passed is False
        assert result.detail.endswith("max |z| nan")

    def test_check_covers_both_arms_and_all_moments(self, ideal_set):
        check = empirical_check(*ideal_set, n_shots=2000, seed=5)
        arms = {row.arm for row in check.rows}
        assert arms == {"with_atoms", "no_atoms"}
        assert len(check.rows) == 12  # 6 moments per arm

    def test_reference_arm_ignores_couplings_and_loss(self, noisy_set):
        # the no-atoms arm must depend on the input light alone
        params, noise, initial = noisy_set
        plain = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0)
        a = _first_chunk(params, noise, initial, 300, 11, with_atoms=False)
        b = _first_chunk(plain, NoiseModel.zero(), initial, 300, 11,
                         with_atoms=False)
        np.testing.assert_array_equal(a, b)

    def test_mean_displacement_survives_sampling(self, ideal_set):
        # displaced J_z shows up in the meter means at gain kappa
        params, noise, initial = ideal_set
        layout = initial.layout
        mean = np.asarray(initial.mean).copy()
        mean[layout.index("J_z")] = 4.0
        displaced = GaussianState(layout, mean, initial.cov)
        acc = MomentAccumulator(3)
        for chunk in arm_chunks(params, noise, displaced, 40000, 13):
            acc.update(chunk)
        assert acc.mean[0] == pytest.approx(4.0, abs=0.15)
        assert acc.mean[2] == pytest.approx(4.0, abs=0.15)


class TestArmOutOfRange:
    """The sampler's arms meet the reader's rule: at atom variance 1e160
    every sampled standard error was inf, so every z was 0 and the check
    passed against any prediction, while the same model's records were
    refused on reading."""

    @pytest.mark.parametrize("run", [simulate_moments, empirical_check])
    def test_error_covariance_that_overflows_is_refused(self, noisy_set,
                                                        run):
        params, noise, _ = noisy_set
        initial = make_initial_state(AtomicBlock(50.0, np.eye(3) * 1e160),
                                     OpticalBlock.coherent(100.0, 3),
                                     Layout(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UndefinedInputError,
                               match="^the error covariance of its moments "
                                     "overflows$"):
                run(params, noise, initial, 20000, 5)


class TestDegenerateCovariances:
    def test_singular_input_is_fine(self, ideal_set):
        # coherent blocks have exactly zero variance along x
        params, noise, initial = ideal_set
        rows = _first_chunk(params, noise, initial, 1000, 17)
        assert np.isfinite(rows).all()

    def test_fully_deterministic_input(self):
        layout = Layout(1)
        initial = GaussianState(layout, np.zeros(6), np.zeros((6, 6)))
        params = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0)
        rows = _first_chunk(params, NoiseModel.zero(), initial, 50, 19)
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

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
    def test_indefinite_noise_is_refused(self, scale):
        # a trace of 1e-12 and an eigenvalue of -1e-15: the sampler's own
        # floor, -1e-9 max(1, trace), let this through; the rule is relative
        matrix = np.diag([0.0, 0.0, 0.5, 0.0, 0.5, 0.0]) * scale
        matrix[2, 4] = matrix[4, 2] = 0.5 * scale + 1e-3 * scale
        noise = NoiseModel(matrix)
        assert not noise._psd
        initial = make_initial_state(AtomicBlock.coherent(100.0),
                                     OpticalBlock.coherent(100.0, 1),
                                     Layout(1))
        params = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0)
        with pytest.raises(SamplerUnsupportedError,
                           match="noise matrix has eigenvalue"):
            arm_chunks(params, noise, initial, 10, 1)
        # the reference arm samples no noise
        arm_chunks(params, noise, initial, 10, 1, with_atoms=False)


class TestConvergence:
    def test_error_shrinks_with_shots(self, ideal_set):
        # quick sanity version of the full scaling study: the average
        # var_p error at 1e5 shots sits well below the 1e3-shot error
        params, noise, initial = ideal_set
        small = large = 0.0
        for seed in range(29, 35):
            acc = MomentAccumulator(3)
            for chunk in arm_chunks(params, noise, initial, 100000, seed):
                if acc.count == 0:
                    small += abs(np.var(chunk[:1000, 0], ddof=1) - 50.0)
                acc.update(chunk)
            large += abs(acc.moments().cov[0, 0] - 50.0)
        assert large < small / 3.0


def _chunk_accumulators(params, noise, initial, n_chunks, seed):
    """One accumulator per ``CHUNK_SHOTS`` chunk of each arm, by role."""
    arms = {}
    for role in ARM_ROLES:
        arms[role] = []
        for chunk in arm_chunks(params, noise, initial, n_chunks * CHUNK_SHOTS,
                                seed, with_atoms=role == "with_atoms"):
            acc = MomentAccumulator(chunk.shape[1])
            acc.update(chunk)
            arms[role].append(acc)
    return arms


def _pooled(accs, skip=None):
    """An accumulator holding the chunks of ``accs`` but the one at
    ``skip``, pooled by the textbook formula (Chan et al.)."""
    kept = [acc for index, acc in enumerate(accs) if index != skip]
    total = MomentAccumulator(kept[0].mean.size)
    total.count = sum(acc.count for acc in kept)
    total.mean = sum(acc.count * acc.mean for acc in kept) / total.count
    total.comoment = sum(
        acc.comoment + acc.count * np.outer(acc.mean - total.mean,
                                            acc.mean - total.mean)
        for acc in kept)
    return total


def _views(with_atoms, no_atoms, r_l):
    """Each arm's moments and the deltas, as (label, moment set) pairs."""
    measured, reference = with_atoms.moments(), no_atoms.moments()
    return [("with_atoms", measured), ("no_atoms", reference),
            ("delta", delta_stats(measured, reference, r_l))]


class TestChunkJackknife:
    """The delete-one-chunk jackknife over the sampler's chunks is a
    model-free standard error for every moment; Isserlis' Sigma, which
    gives ``se``, must agree with it.  With g = 32 chunks a jackknife SE
    scatters by about 1/sqrt(2 (g - 1)) = 13% of itself, so each ratio
    must lie in [0.5, 1.5] (about 4 of those either side of 1) and each
    configuration's mean ratio in [0.8, 1.2]."""

    N_CHUNKS = 32

    @pytest.mark.parametrize("kappa, r_a, noise", [
        (1.0, 0.8, {(3, 3): 2.0, (3, 5): 0.5, (5, 5): 4.0}),
        (2.0, 0.99, {(3, 3): 20.0}),
    ], ids=["readme-config", "r_a-0.99-n33-20"])
    def test_matches_isserlis(self, kappa, r_a, noise):
        params = ExperimentParams.from_kappa(kappa, mean_sx=50.0,
                                             mean_jx=50.0, r_a=r_a, r_l=0.9)
        initial = make_initial_state(AtomicBlock.coherent(100.0),
                                     OpticalBlock.coherent(100.0, 3),
                                     Layout(3))
        arms = _chunk_accumulators(params, NoiseModel.from_entries(noise),
                                   initial, self.N_CHUNKS, 1207)
        g = self.N_CHUNKS
        full = _views(_pooled(arms["with_atoms"]), _pooled(arms["no_atoms"]),
                      params.r_l)
        left_out = [_views(_pooled(arms["with_atoms"], skip=i),
                           _pooled(arms["no_atoms"], skip=i), params.r_l)
                    for i in range(g)]
        ratios = {}
        for k, (label, moments) in enumerate(full):
            for name, se in moments.se.items():
                values = np.array([getattr(views[k][1], name)
                                   for views in left_out])
                jackknife = np.sqrt((g - 1) / g
                                    * np.sum((values - values.mean()) ** 2))
                ratios[f"{label}.{name}"] = jackknife / se
        assert len(ratios) == 6 + 6 + 5
        for key, ratio in ratios.items():
            assert 0.5 <= ratio <= 1.5, (key, ratios)
        assert 0.8 <= np.mean(list(ratios.values())) <= 1.2, ratios
