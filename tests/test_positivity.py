"""Where positivity is checked.

A state built directly is refused unless it is positive semidefinite
(PSD) within ``PSD_RTOL * trace``; a pulse (``M cov M' + N``) or a
conditioning step (a Schur complement) keeps a PSD state PSD whenever
its noise is PSD, so the state it derives is checked only when its noise
is indefinite.  A derived covariance is symmetric in exact arithmetic,
so it is held to no absolute symmetry gap: rounding in ``M cov M'``
grows with the state.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qndcert import (
    AtomicBlock,
    ExperimentParams,
    GaussianState,
    Layout,
    NoiseModel,
    NotPositiveSemidefiniteError,
    OpticalBlock,
    apply_pulse,
    condition_on_component,
    interaction_matrix,
    make_initial_state,
    noise_matrix,
)
from qndcert.core import PSD_RTOL

from conftest import random_psd


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def _pulses_and_condition(params, noise, initial):
    """Every pulse's state in order, then the first pulse's state
    conditioned on its meter."""
    states, state = [], initial
    for pulse in range(1, initial.layout.n_pulses + 1):
        state = apply_pulse(state, params, noise, pulse)
        states.append(state)
    states.append(condition_on_component(states[0], "P_y"))
    return states


def _coherent_model(n_atoms, kappa, r_a, r_l, noise_seed):
    """A coherent model of ``n_atoms`` atoms and as many photons a pulse,
    with a random PSD noise matrix whose scale grows with the atom count."""
    params = ExperimentParams.from_kappa(kappa, mean_sx=n_atoms / 2.0,
                                         mean_jx=n_atoms / 2.0,
                                         r_a=r_a, r_l=r_l)
    rng = np.random.default_rng(noise_seed)
    noise = NoiseModel(random_psd(rng, 6, 0.1 * n_atoms))
    initial = make_initial_state(AtomicBlock.coherent(n_atoms),
                                 OpticalBlock.coherent(n_atoms, 3), Layout(3))
    return params, noise, initial


def _random_cov(rng, size, lo, hi):
    """PSD, with every diagonal entry uniform in [lo, hi]."""
    raw = rng.standard_normal((size, size))
    second = raw @ raw.T
    root = np.sqrt(rng.uniform(lo, hi, size=size) / np.diag(second))
    return second * np.outer(root, root)


def _criterion_one_model(seed, with_noise):
    """A three-pulse model from acceptance criterion 1's ranges."""
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(0.1, 3.0)
    mean_sx = rng.uniform(20.0, 100.0)
    params = ExperimentParams(g_tau=kappa / mean_sx, mean_sx=mean_sx,
                              mean_jx=rng.uniform(0.0, 100.0),
                              r_a=rng.uniform(0.5, 1.0),
                              r_l=rng.uniform(0.5, 1.0))
    initial = make_initial_state(
        AtomicBlock(params.mean_jx, _random_cov(rng, 3, 1.0, 100.0)),
        OpticalBlock(mean_sx, _random_cov(rng, 9, 1.0, 100.0)), Layout(3))
    noise = NoiseModel(_random_cov(rng, 6, 0.0, 10.0)) if with_noise \
        else NoiseModel.zero()
    return params, noise, initial


_N_ATOMS = st.floats(2.0, 9.0).map(lambda power: 10.0 ** power)
_KAPPA = st.floats(0.1, 3.0)
_SURVIVAL = st.floats(0.5, 1.0)
_SEED = st.integers(0, 2 ** 32 - 1)


class TestLargeEnsembles:
    """Rounding asymmetry in ``M cov M'`` grows with the state, so an
    absolute symmetry gap refused a coherent 1e6-atom model."""

    def test_a_million_atoms_propagate(self):
        params, noise, initial = _coherent_model(1e6, 1.0, 0.8, 0.9, 0)
        states = _pulses_and_condition(params, noise, initial)
        for state in states:
            assert (state.cov == state.cov.T).all()

    @settings(max_examples=60, deadline=None, database=None)
    @given(_N_ATOMS, _KAPPA, _SURVIVAL, _SURVIVAL, _SEED)
    @example(1e9, 3.0, 1.0, 1.0, 0)
    def test_coherent_models_never_refuse(self, n_atoms, kappa, r_a, r_l,
                                          seed):
        _pulses_and_condition(*_coherent_model(n_atoms, kappa, r_a, r_l,
                                               seed))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scaled_input_scales_every_state_exactly(self, seed):
        params, noise, initial = _criterion_one_model(seed, True)
        reference = _pulses_and_condition(params, noise, initial)
        for s in range(-30, 31):
            factor = 4.0 ** s
            scaled = _pulses_and_condition(
                params, NoiseModel(noise.matrix * factor),
                GaussianState(initial.layout, initial.mean,
                              initial.cov * factor))
            for state, base in zip(scaled, reference):
                assert _same_bits(state.cov, base.cov * factor), s


class TestCheckedWhereItCanFail:
    def test_indefinite_state_is_refused_where_it_is_built(self,
                                                           monkeypatch):
        # it used to warn, and every state derived from it warned again
        monkeypatch.delenv("QNDC_STRICT_PSD", raising=False)
        initial = make_initial_state(AtomicBlock.coherent(100.0),
                                     OpticalBlock.coherent(100.0, 3),
                                     Layout(3))
        cov = initial.cov.copy()
        cov[0, 0] = -1.0
        with pytest.raises(NotPositiveSemidefiniteError, match="eigenvalue"):
            GaussianState(Layout(3), np.zeros(12), cov)

    def test_indefinite_noise_is_refused(self, ideal_set, monkeypatch):
        monkeypatch.delenv("QNDC_STRICT_PSD", raising=False)
        params, _, initial = ideal_set
        noise = NoiseModel.from_entries({(3, 3): -50.0})  # not refused
        assert not noise._psd
        with pytest.raises(NotPositiveSemidefiniteError,
                           match="covariance has eigenvalue"):
            apply_pulse(initial, params, noise, 1)

    def test_indefinite_noise_that_leaves_the_state_psd_passes(
            self, ideal_set):
        # a fitted noise matrix a little indefinite: the state it derives
        # is checked, and passes
        params, _, initial = ideal_set
        noise = NoiseModel.from_entries({(3, 3): -1.0, (5, 5): 4.0})
        assert not noise._psd
        state = apply_pulse(initial, params, noise, 1)
        assert float(np.linalg.eigvalsh(state.cov)[0]) >= \
            -PSD_RTOL * state.cov.trace()

    @settings(max_examples=60, deadline=None, database=None)
    @given(_SEED, st.booleans(), _N_ATOMS, _KAPPA, _SURVIVAL, _SURVIVAL)
    def test_every_skipped_check_would_have_passed(self, seed, with_noise,
                                                   n_atoms, kappa, r_a, r_l):
        models = [_criterion_one_model(seed, with_noise),
                  _coherent_model(n_atoms, kappa, r_a, r_l, seed)]
        for params, noise, initial in models:
            states = _pulses_and_condition(params, noise, initial)
            for state in states:
                min_eig = float(np.linalg.eigvalsh(state.cov)[0])
                assert min_eig >= -PSD_RTOL * state.cov.trace()

    def test_derived_states_hold_the_bits_a_built_state_holds(self):
        params, noise, initial = _criterion_one_model(4, True)
        layout = initial.layout
        state = initial
        for pulse in (1, 2, 3):
            m = interaction_matrix(params, pulse, layout)
            n = noise_matrix(noise, pulse, layout)
            built = GaussianState(layout, m @ state.mean,
                                  m @ state.cov @ m.T + n)
            state = apply_pulse(state, params, noise, pulse)
            assert _same_bits(state.mean, built.mean)
            assert _same_bits(state.cov, built.cov)
        # conditioning on R_y: cov - c c' / var, the measured row and
        # column zeroed, and the mean kept
        i = layout.index("R_y")
        col, var = state.cov[:, i], state.cov[i, i]
        cov = state.cov - np.outer(col, col / var)
        cov[i, :] = 0.0
        cov[:, i] = 0.0
        built = GaussianState(layout, state.mean, cov)
        conditioned = condition_on_component(state, "R_y")
        assert _same_bits(conditioned.mean, built.mean)
        assert _same_bits(conditioned.cov, built.cov)
