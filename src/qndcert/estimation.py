"""Recovering model parameters from measured delta statistics.

A three-pulse run overdetermines the single-pulse model, which is what
makes certification possible without trusting the apparatus model.
:func:`invert_three_pulse` is the one entry point.  It gives

* atomic survival r_A from the covariance ratio
  d_cov(P,R) / d_cov(P,Q)  (primary: linear in the deltas),
* r_A again from the variance-difference ratio
  (d_var_r - d_var_q) / (d_var_q - d_var_p) = r_A**2  (cross-check),
* the noise entries N33, N35, N55 by direct inversion of the closed
  forms, given the calibrated kappa and input spin variance,
* the spin variance conditioned on the first meter, ``cond_var_jz``.

:func:`invert_three_pulse` and :func:`~qndcert.certify` are the only
readers of measured statistics, and both form the conditional variance
by ``statistics._conditional_variance``.

Disagreement between the two r_A routes is a model-consistency
diagnostic, not an error.  One function of the five delta moments the
routes read, ``_routes``, writes each route quantity once: the primary
r_A and d_var_q - d_var_p take their values from it, and every route
quantity its standard error, through
:func:`~qndcert.statistics._propagate_se`: one Jacobian over the deltas'
error covariance (see :mod:`qndcert.statistics`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UndefinedInputError, UninformativeCouplingError
from .statistics import (
    DeltaStats,
    _calibration_k2,
    _conditional_variance,
    _propagate_se,
    _require_finite_squares,
)

__all__ = [
    "EstimatedNoise",
    "EstimatedModel",
    "invert_three_pulse",
]

@dataclass(frozen=True)
class EstimatedNoise:
    """Per-pulse noise entries recovered from delta statistics.

    Diagonal entries that come out negative (possible for sampled data)
    are reported as-is and named in ``negative_entries``.
    """

    n33: float
    n35: float
    n55: float
    negative_entries: tuple[str, ...] = ()


@dataclass(frozen=True)
class EstimatedModel:
    """Bundle returned by :func:`invert_three_pulse`.

    ``r_a`` is the primary (covariance-ratio) estimate; the variance
    route and its discrepancy are diagnostics and may be None when that
    route is degenerate for the data at hand.  Standard errors are
    first-order propagations of the deltas' joint error covariance
    (Isserlis within each arm, the two arms independent), and are 0.0
    for exact inputs; ``r_a_from_var_se`` is None with its route.
    """

    r_a: float
    r_a_se: float
    r_a_from_var: float | None
    r_a_from_var_se: float | None
    r_a_discrepancy: float | None
    noise: EstimatedNoise
    cond_var_jz: float
    warnings: tuple[str, ...] = ()


# The delta moments both r_a routes read, in input order, and the route
# quantities in standard-error order: the last two exist only where the
# measured variance ratio is positive.
_ROUTE_INPUTS = ("d_var_p", "d_var_q", "d_var_r", "d_cov_pq", "d_cov_pr")
_ROUTE_KEYS = ("r_a", "d_var_q - d_var_p", "r_a_from_var",
               "r_a - r_a_from_var")


def _routes(v, two_root: float = 0.0) -> dict[str, float]:
    """The route quantities from v, the moments ``_ROUTE_INPUTS`` names:
    the values of ``r_a`` and ``d_var_q - d_var_p`` and, through
    :func:`~qndcert.statistics._propagate_se`, every key's standard error.

    Given ``two_root`` = 2 sqrt(measured variance ratio) > 0, the
    variance route enters as ratio / two_root: that has the slope of
    sqrt(ratio) at the measured ratio, and stays defined where a
    perturbed ratio turns negative.
    """
    d_var_p, d_var_q, d_var_r, d_cov_pq, d_cov_pr = v
    out = {"r_a": d_cov_pr / d_cov_pq, "d_var_q - d_var_p": d_var_q - d_var_p}
    if two_root:
        out["r_a_from_var"] = ((d_var_r - d_var_q) / (d_var_q - d_var_p)
                               / two_root)
        out["r_a - r_a_from_var"] = out["r_a"] - out["r_a_from_var"]
    return out


def _check_gate_width(z_threshold: float) -> None:
    """Refuse a gate width that could make a noise floor negative or NaN,
    the rule ``--z`` follows."""
    if not 0.0 <= z_threshold < math.inf:
        raise UndefinedInputError(f"z_threshold must be finite and "
                                  f"nonnegative, got {z_threshold}")


def invert_three_pulse(delta: DeltaStats, var_p: float, kappa: float,
                       j33: float, *,
                       z_threshold: float = 3.0) -> EstimatedModel:
    """Full model inversion of a three-pulse run.

    Checked first, in order: the pulse count, the gate width, the
    calibration by the rule ``certify`` applies too, ``|d_cov_pq|``
    against its noise floor, a positive ``var_p`` and a finite
    ``d_cov_pq**2``; :func:`~qndcert.certify` runs the inversion past them.
    Quantities within ``z_threshold`` combined standard errors of zero
    are treated as zero when deciding whether a ratio is usable, and two
    r_A routes further apart than that disagree (no-op for exact inputs,
    whose standard errors are 0).  A failed variance route,
    r_A = sqrt((d_var_r - d_var_q) / (d_var_q - d_var_p)), gives
    ``r_a_from_var=None`` and a warning.  The noise entries invert

        N55 = d_var_p - kappa**2 j33
        N33 = (d_var_q - d_var_p + kappa**2 j33 (1 - r_a**2)) / kappa**2
        N35 = (d_cov_pq - kappa**2 j33 r_a) / kappa

    at the primary r_a = d_cov_pr / d_cov_pq, and ``cond_var_jz``, the
    spin variance after the first readout, from measured statistics only:

        j33 + (d_var_q - d_var_p - d_cov_pq**2 / var_p) / kappa**2
    """
    if delta.n_pulses != 3:
        raise UndefinedInputError(
            f"three-pulse inversion needs three pulses, got {delta.n_pulses}")
    _check_gate_width(z_threshold)
    k2 = _calibration_k2(kappa, j33)
    i = DeltaStats._sigma_rows[3]["d_cov_pq"]  # its row of Sigma
    floor_pq = z_threshold * math.sqrt(delta.moment_cov[i, i])
    if abs(delta.d_cov_pq) <= floor_pq:
        raise UninformativeCouplingError(
            f"|d_cov_pq| = {abs(delta.d_cov_pq):.6g} at or below the noise "
            f"floor {floor_pq:.6g}"
        )
    if not var_p > 0.0:
        raise UndefinedInputError(f"var_p must be positive, got {var_p}")
    _require_finite_squares({"d_cov_pq": delta.d_cov_pq})
    return _inversion(delta, var_p, kappa, k2, j33, z_threshold)


def _inversion(delta: DeltaStats, var_p: float, kappa: float, k2: float,
               j33: float, z_threshold: float,
               sink: list[str] | None = None) -> EstimatedModel:
    """:func:`invert_three_pulse` past its checks, at k2 = kappa**2.  A
    given ``sink`` takes the warnings, and the model then carries none."""
    values = [getattr(delta, name) for name in _ROUTE_INPUTS]
    measured = _routes(values)
    r_a, den = measured["r_a"], measured["d_var_q - d_var_p"]
    num = delta.d_var_r - delta.d_var_q
    ratio = num / den if den else 0.0
    two_root = 2.0 * math.sqrt(ratio) if ratio > 0.0 else 0.0
    se = _propagate_se(
        lambda v: _routes(v, two_root), values, delta._sigma(_ROUTE_INPUTS),
        _ROUTE_KEYS if two_root else _ROUTE_KEYS[:2])
    warnings: list[str] = [] if sink is None else sink

    var_floor = z_threshold * se["d_var_q - d_var_p"]
    r_a_from_var = unavailable = None
    if abs(den) <= var_floor:
        # 0/0 admits any r_A, e.g. a lossless noiseless run; x/0 none
        unavailable = (
            "variance differences both at the noise floor; r_A "
            "unconstrained by this route" if abs(num) <= var_floor else
            f"d_var_q - d_var_p = {den:.6g} vanishes while "
            f"d_var_r - d_var_q = {num:.6g} does not")
    elif ratio < 0.0:
        unavailable = f"squared survival estimate is negative ({ratio:.6g})"
    else:
        r_a_from_var = math.sqrt(ratio)
    if unavailable:
        warnings.append(f"variance route for r_a unavailable: {unavailable}")

    discrepancy = None
    if r_a_from_var is not None:
        discrepancy = abs(r_a - r_a_from_var)
        combined = se.get("r_a - r_a_from_var", 0.0)
        if combined > 0.0 and discrepancy > z_threshold * combined:
            warnings.append(
                f"r_a routes disagree: {r_a:.6g} vs {r_a_from_var:.6g} "
                f"({discrepancy / combined:.2f} combined se)"
            )

    if not 0.0 <= r_a <= 1.0:
        warnings.append(f"r_a estimate {r_a:.6g} outside [0, 1]")

    n33 = (den + k2 * j33 * (1.0 - r_a * r_a)) / k2
    n35 = (delta.d_cov_pq - k2 * j33 * r_a) / kappa
    n55 = delta.d_var_p - k2 * j33
    negative = tuple(name for name, value in (("n33", n33), ("n55", n55))
                     if value < 0.0)
    for name in negative:
        warnings.append(f"noise diagonal {name} estimated negative")

    return EstimatedModel(
        r_a=r_a,
        r_a_se=se["r_a"],
        r_a_from_var=r_a_from_var,
        r_a_from_var_se=se.get("r_a_from_var") if r_a_from_var else None,
        r_a_discrepancy=discrepancy,
        noise=EstimatedNoise(n33=n33, n35=n35, n55=n55,
                             negative_entries=negative),
        cond_var_jz=_conditional_variance(delta.d_var_p, delta.d_var_q,
                                          delta.d_cov_pq, var_p, k2, j33),
        warnings=() if sink is not None else tuple(warnings),
    )
