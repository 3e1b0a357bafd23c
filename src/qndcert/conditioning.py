"""Conditioning a Gaussian state on a measured component.

Reading out one phase-space component y_i updates the covariance by the
Moore-Penrose (rank-1 Schur) formula

    cov -> cov - (cov e_i)(cov e_i)' / cov_ii

which is a no-op when cov_ii = 0 (nothing to learn from a deterministic
outcome).  The update does not depend on the outcome, and the
certification reads only covariances, so the mean is kept.
"""

from __future__ import annotations

import numpy as np

from .core import GaussianState, _derived_state
from .dynamics import ExperimentParams, NoiseModel
from .errors import UndefinedInputError

__all__ = [
    "condition_on_component",
    "conditional_variance_ideal",
    "conditional_variance_general",
]


def condition_on_component(state: GaussianState, label: str) -> GaussianState:
    """Condition ``state`` on a perfect readout of component ``label``.

    Parameters
    ----------
    state : GaussianState
        State to condition; not modified.
    label : str
        Component label, e.g. ``"P_y"``.

    Returns
    -------
    GaussianState
        Conditioned state, with ``state``'s mean.  The measured component
        ends with exactly zero variance and zero correlations, so
        conditioning twice on the same label is idempotent.
    """
    i = state.layout.index(label)
    var = float(state.cov[i, i])
    if var == 0.0:
        return state
    col = state.cov[:, i]
    cov = state.cov - np.outer(col, col / var)
    # The Schur complement zeroes row/col i identically; wipe the rounding
    # residue so idempotence and readback are exact.
    cov[i, :] = 0.0
    cov[:, i] = 0.0
    return _derived_state(state, state.mean, cov)


def conditional_variance_ideal(j33: float, c22: float, kappa: float) -> float:
    """Spin variance left after one lossless, noise-free readout.

    For input spin variance j33, input meter variance c22 and coupling
    kappa the conditioned spin variance is

        j33 * c22 / (kappa**2 * j33 + c22)

    which interpolates between no measurement (kappa -> 0, returns j33)
    and perfect projection (kappa**2 * j33 >> c22).
    """
    if j33 < 0.0 or c22 < 0.0:
        raise UndefinedInputError(
            f"variances must be nonnegative, got j33={j33}, c22={c22}"
        )
    denom = kappa * kappa * j33 + c22
    if denom == 0.0:
        raise UndefinedInputError(
            "conditional variance undefined: kappa**2*j33 + c22 == 0"
        )
    return j33 * c22 / denom


def conditional_variance_general(params: ExperimentParams, noise: NoiseModel,
                                 j33: float, c22: float) -> float:
    """Conditioned spin variance after one pulse with loss and added noise.

    Evaluates

        r_A**2 j33 + N33 - (kappa r_A j33 + N35)**2 / var_p,
        var_p = kappa**2 j33 + r_L**2 c22 + N55

    i.e. the (J_z, J_z) entry after propagating one pulse and conditioning
    on its meter.  Reduces to :func:`conditional_variance_ideal` for
    r_A = r_L = 1 and zero noise.
    """
    if j33 < 0.0 or c22 < 0.0:
        raise UndefinedInputError(
            f"variances must be nonnegative, got j33={j33}, c22={c22}"
        )
    kappa = params.kappa
    var_p = kappa * kappa * j33 + params.r_l ** 2 * c22 + noise.n55
    if var_p == 0.0:
        raise UndefinedInputError(
            "conditional variance undefined: meter variance var_p == 0"
        )
    gain = params.r_a * kappa * j33 + noise.n35
    return params.r_a ** 2 * j33 + noise.n33 - gain * gain / var_p
