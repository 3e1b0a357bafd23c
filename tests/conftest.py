"""Shared fixtures: canonical parameter sets, a textbook conditioning
oracle and a random covariance helper.

The matrix oracle for the closed forms is ``qndcert.propagate`` followed
by ``qndcert.meter_moments``; ``random_psd`` is the selftest's own
random-covariance helper.
"""

import numpy as np
import pytest

from qndcert import (
    AtomicBlock,
    ExperimentParams,
    Layout,
    NoiseModel,
    OpticalBlock,
    make_initial_state,
)
from qndcert.selftest import _random_psd as random_psd  # noqa: F401


@pytest.fixture
def layout3():
    return Layout(3)


def _coherent_initial(layout):
    return make_initial_state(AtomicBlock.coherent(100.0),
                              OpticalBlock.coherent(100.0, layout.n_pulses),
                              layout)


@pytest.fixture
def ideal_set(layout3):
    """Lossless, noiseless, kappa = 1; every figure has a round value."""
    params = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0)
    return params, NoiseModel.zero(), _coherent_initial(layout3)


@pytest.fixture
def lossy_set(layout3):
    """r_a = 0.8, r_l = 0.9, no added noise."""
    params = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0,
                                         r_a=0.8, r_l=0.9)
    return params, NoiseModel.zero(), _coherent_initial(layout3)


@pytest.fixture
def noisy_set(layout3):
    """Lossy plus an injected noise matrix with off-diagonal coupling."""
    params = ExperimentParams.from_kappa(1.0, mean_sx=50.0, mean_jx=50.0,
                                         r_a=0.8, r_l=0.9)
    noise = NoiseModel.from_entries({(3, 3): 2.0, (3, 5): 0.5, (5, 5): 4.0})
    return params, noise, _coherent_initial(layout3)


def schur_conditional(cov: np.ndarray, index: int) -> np.ndarray:
    """Textbook conditional covariance, as an independent oracle."""
    keep = [k for k in range(cov.shape[0]) if k != index]
    sigma_aa = cov[np.ix_(keep, keep)]
    sigma_ab = cov[keep, index]
    out = sigma_aa - np.outer(sigma_ab, sigma_ab) / cov[index, index]
    full = np.zeros_like(cov)
    full[np.ix_(keep, keep)] = out
    return full
