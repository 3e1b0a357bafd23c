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
readers of measured statistics.  The figure table ``_table`` writes
every number either reports once, from the vector (d_var_p, d_var_q,
d_var_r, d_cov_pq, d_cov_pr, var_p); both take their standard errors
from its part with an error, ``_carried``, by one complex-step Jacobian
over the inputs' error covariance (:mod:`qndcert.statistics`).
Disagreement between the two r_A routes is a model-consistency
diagnostic, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UndefinedInputError, UninformativeCouplingError
from .statistics import (
    DeltaStats,
    _calibration_k2,
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


# The table's input vector: the delta moments, then the probe arm's var_p.
_INPUTS = ("d_var_p", "d_var_q", "d_var_r", "d_cov_pq", "d_cov_pr", "var_p")

# Routes through the table, each naming its standard errors in order:
# certify's exact three-pulse route, its fallbacks with the state-prep
# figure at r_a = 1 or with dx2_m alone, and the inversion's, whose
# variance route (the last two) needs a positive measured ratio.
_EXACT = ("dx2_m", "dx2_s_given_m", "dx2_s", "product_sm")
_R_A_ASSUMED = _EXACT[:2]
_METER_ONLY = _EXACT[:1]
_INVERSION = ("r_a", "d_var_q - d_var_p", "r_a_from_var",
              "r_a - r_a_from_var")


def _inputs(delta: DeltaStats, var_p: float) -> tuple[float, ...]:
    """The table's input vector; a moment the run lacks reads 0."""
    return tuple(0.0 if v is None else v for v in
                 [getattr(delta, name) for name in _INPUTS[:-1]] + [var_p])


def _carried(v, k2: float, j33: float, j0: float | None,
             route: tuple[str, ...]) -> dict:
    """The table's entries with an error, ``product_sm`` unclipped.  Only
    +, -, * and / act on v, which ``_propagate_se`` steps into the complex
    plane; a branch or sqrt reads real parts, the point's, and the variance
    route is sqrt to first order about the measured ratio, exact there."""
    d_var_p, d_var_q, d_var_r, d_cov_pq, d_cov_pr, var_p = v
    den = d_var_q - d_var_p
    t = {"d_var_q - d_var_p": den}
    if route != _INVERSION:
        dx2_m = t["dx2_m"] = (var_p - k2 * j33) / (k2 * j0)
    if route != _METER_ONLY:
        # d_cov_pq**2 / var_p as d_cov_pq (d_cov_pq / var_p): its terms
        # stay in range where the records' unit is far from the meter's
        excess = den - d_cov_pq * (d_cov_pq / var_p)
        t["d_var_q - d_var_p - d_cov_pq**2 / var_p"] = excess
        cond = t["cond_var_jz"] = j33 + excess / k2
    if route == _R_A_ASSUMED:
        t["dx2_s_given_m"] = cond / j0
    if route not in (_EXACT, _INVERSION):
        return t
    r_a = t["r_a"] = d_cov_pr / d_cov_pq
    if route == _EXACT:
        t["dx2_s_given_m"] = (d_cov_pq / d_cov_pr) * cond / j0
        dx2_s = t["dx2_s"] = (d_cov_pq / d_cov_pr) * (den / (k2 * j0))
        t["product_sm"] = dx2_s * dx2_m  # clipped in _table
    num = t["d_var_r - d_var_q"] = d_var_r - d_var_q
    ratio = t["r_a_from_var**2"] = num.real / den.real if den.real else 0.0
    if ratio > 0.0:
        root = math.sqrt(ratio)
        t["r_a_from_var"] = root + (num / den - ratio) / (2.0 * root)
        t["r_a - r_a_from_var"] = r_a - t["r_a_from_var"]
    return t


def _table(v, kappa: float, k2: float, j33: float, j0: float | None,
           route: tuple[str, ...]) -> dict[str, float]:
    """The figure table: every number of ``route`` from v = (d_var_p,
    d_var_q, d_var_r, d_cov_pq, d_cov_pr, var_p) at k2 = kappa**2 (forms
    in :func:`invert_three_pulse` and :mod:`qndcert.certification`), each
    where its denominators are nonzero; one that reads a moment the run
    lacks, as 0, is not reported.  To :func:`_carried`'s entries it adds
    the point's alone: noise entries, transfer figures, squeezing, clip."""
    t = _carried(v, k2, j33, j0, route)
    d_var_p, _, _, d_cov_pq, d_cov_pr, var_p = v
    kj = k2 * j33
    den = t["d_var_q - d_var_p"]
    if route in (_EXACT, _INVERSION):
        r_a = t["r_a"]
        t["n33"] = (den + kj * (1.0 - r_a * r_a)) / k2
        t["n35"] = (d_cov_pq - kj * r_a) / kappa
        t["n55"] = d_var_p - kj
    if route == _INVERSION:
        return t
    bracket = t["d_var_q - d_var_p + kappa**2 j33"] = den + kj
    if var_p > 0.0:
        t["c2_in_meter"] = kj / var_p
        if bracket:
            t["c2_out_meter"] = (d_cov_pq / var_p) * (d_cov_pq / bracket)
    if d_cov_pq and bracket:
        r_a = d_cov_pr / d_cov_pq
        t["c2_in_out"] = kj / bracket * (r_a * r_a)
    if route != _METER_ONLY:
        t["squeezing margin"] = d_cov_pq ** 2 - var_p * den
    if route == _EXACT:
        t["product_sm"] = max(0.0, t["dx2_s"]) * max(0.0, t["dx2_m"])
    return t


def _evaluate(inputs, sigma, kappa: float, k2: float, j33: float,
              j0: float | None, route: tuple[str, ...], keys=()):
    """The table at the measured point, and by one ``_propagate_se`` call
    over :func:`_carried` the standard errors of ``keys`` and, on a route
    that inverts, of the ``_INVERSION`` keys it forms."""
    j33, j0 = float(j33), j0 and float(j0)  # numpy's complex is slow
    t = _table(inputs, kappa, k2, j33, j0, route)
    if route in (_EXACT, _INVERSION):
        keys = (*keys, *_INVERSION[:4 if "r_a_from_var" in t else 2])
    return t, _propagate_se(lambda v: _carried(v, k2, j33, j0, route),
                            inputs, sigma, keys)


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
    sigma = delta._sigma(_INPUTS)
    floor_pq = z_threshold * math.sqrt(sigma[3][3])  # d_cov_pq's
    if abs(delta.d_cov_pq) <= floor_pq:
        raise UninformativeCouplingError(
            f"|d_cov_pq| = {abs(delta.d_cov_pq):.6g} at or below the noise "
            f"floor {floor_pq:.6g}"
        )
    if not var_p > 0.0:
        raise UndefinedInputError(f"var_p must be positive, got {var_p}")
    _require_finite_squares({"d_cov_pq": delta.d_cov_pq})
    t, se = _evaluate(_inputs(delta, var_p), sigma, kappa, k2, j33, None,
                      _INVERSION)
    return _inversion(t, se, z_threshold)


def _inversion(t: dict[str, float], se: dict[str, float],
               z_threshold: float,
               sink: list[str] | None = None) -> EstimatedModel:
    """:func:`invert_three_pulse` past its checks, from the table ``t`` at
    the measured point and its errors ``se``.  A given ``sink`` takes the
    warnings, and the model then carries none."""
    r_a, den = t["r_a"], t["d_var_q - d_var_p"]
    num, ratio = t["d_var_r - d_var_q"], t["r_a_from_var**2"]
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

    negative = tuple(name for name in ("n33", "n55") if t[name] < 0.0)
    for name in negative:
        warnings.append(f"noise diagonal {name} estimated negative")

    return EstimatedModel(
        r_a=r_a,
        r_a_se=se["r_a"],
        r_a_from_var=r_a_from_var,
        r_a_from_var_se=se.get("r_a_from_var") if r_a_from_var else None,
        r_a_discrepancy=discrepancy,
        noise=EstimatedNoise(n33=t["n33"], n35=t["n35"], n55=t["n55"],
                             negative_entries=negative),
        cond_var_jz=t["cond_var_jz"],
        warnings=() if sink is not None else tuple(warnings),
    )
