"""Recovering model parameters from measured delta statistics.

A three-pulse run overdetermines the single-pulse model, which is what
makes certification possible without trusting the apparatus model:

* atomic survival r_A from the covariance ratio
  d_cov(P,R) / d_cov(P,Q)  (primary: linear in the deltas),
* r_A again from the variance-difference ratio
  (d_var_r - d_var_q) / (d_var_q - d_var_p) = r_A**2  (cross-check),
* the noise entries N33, N35, N55 by direct inversion of the closed
  forms, given the calibrated kappa and input spin variance.

Disagreement between the two r_A routes is a model-consistency
diagnostic, not an error.  Both routes, their difference and the
variance floor take their standard errors from one Jacobian over the
deltas' error covariance (see :mod:`qndcert.statistics`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DegenerateCaseError,
    InconsistentDataError,
    UndefinedInputError,
    UninformativeCouplingError,
)
from .statistics import (
    DeltaStats,
    _propagate_se,
    conditional_variance_from_stats,
)

__all__ = [
    "EstimatedNoise",
    "EstimatedModel",
    "estimate_ra_from_cov",
    "estimate_ra_from_var",
    "estimate_noise",
    "invert_three_pulse",
]

# Width, in combined standard errors, inside which a quantity is treated
# as indistinguishable from zero by invert_three_pulse.
_FLOOR_SIGMAS = 3.0


def _require_three(delta: DeltaStats, what: str) -> None:
    if delta.n_pulses != 3:
        raise UndefinedInputError(f"{what} needs three pulses, got {delta.n_pulses}")


def estimate_ra_from_cov(delta: DeltaStats, noise_floor: float = 0.0) -> float:
    """Atomic survival from the covariance ratio d_cov_pr / d_cov_pq.

    ``noise_floor`` is an absolute threshold on |d_cov_pq| (typically a
    multiple of its standard error); at or below it the ratio carries no
    information and :class:`UninformativeCouplingError` is raised.
    """
    _require_three(delta, "covariance-ratio estimate")
    if abs(delta.d_cov_pq) <= noise_floor:
        raise UninformativeCouplingError(
            f"|d_cov_pq| = {abs(delta.d_cov_pq):.6g} at or below the noise "
            f"floor {noise_floor:.6g}"
        )
    return delta.d_cov_pr / delta.d_cov_pq


def estimate_ra_from_var(delta: DeltaStats, noise_floor: float = 0.0) -> float:
    """Atomic survival from variance differences:
    r_A = sqrt((d_var_r - d_var_q) / (d_var_q - d_var_p)).

    Raises
    ------
    DegenerateCaseError
        Both differences sit within ``noise_floor`` of zero (0/0: any
        r_A is consistent, e.g. a lossless noiseless run).
    InconsistentDataError
        The ratio is negative, or only the denominator vanishes; no
        survival factor can produce that.
    """
    _require_three(delta, "variance-ratio estimate")
    num = delta.d_var_r - delta.d_var_q
    den = delta.d_var_q - delta.d_var_p
    if abs(den) <= noise_floor:
        if abs(num) <= noise_floor:
            raise DegenerateCaseError(
                "variance differences both at the noise floor; r_A "
                "unconstrained by this route"
            )
        raise InconsistentDataError(
            f"d_var_q - d_var_p = {den:.6g} vanishes while "
            f"d_var_r - d_var_q = {num:.6g} does not"
        )
    ratio = num / den
    if ratio < 0.0:
        raise InconsistentDataError(
            f"squared survival estimate is negative ({ratio:.6g})"
        )
    return math.sqrt(ratio)


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


def estimate_noise(delta: DeltaStats, kappa: float, j33: float,
                   r_a: float) -> EstimatedNoise:
    """Invert the closed-form moments for the three noise entries:

        N55 = d_var_p - kappa**2 j33
        N33 = (d_var_q - d_var_p + kappa**2 j33 (1 - r_a**2)) / kappa**2
        N35 = (d_cov_pq - kappa**2 j33 r_a) / kappa

    Needs at least two pulses and a nonzero calibrated kappa.
    """
    if delta.n_pulses < 2:
        raise UndefinedInputError("noise inversion needs at least two pulses")
    if kappa == 0.0:
        raise UndefinedInputError("kappa must be nonzero to invert the noise")
    k2 = kappa * kappa
    n55 = delta.d_var_p - k2 * j33
    n33 = (delta.d_var_q - delta.d_var_p + k2 * j33 * (1.0 - r_a * r_a)) / k2
    n35 = (delta.d_cov_pq - k2 * j33 * r_a) / kappa
    negative = tuple(name for name, value in (("n33", n33), ("n55", n55))
                     if value < 0.0)
    return EstimatedNoise(n33=n33, n35=n35, n55=n55, negative_entries=negative)


@dataclass(frozen=True)
class EstimatedModel:
    """Bundle returned by :func:`invert_three_pulse`.

    ``r_a`` is the primary (covariance-ratio) estimate; the variance
    route and its discrepancy are diagnostics and may be None when that
    route is degenerate for the data at hand.  Standard errors are
    first-order propagations of the deltas' joint error covariance
    (Isserlis within each arm, the two arms independent), and are None
    for analytic inputs.
    """

    r_a: float
    r_a_se: float | None
    r_a_from_var: float | None
    r_a_from_var_se: float | None
    r_a_discrepancy: float | None
    noise: EstimatedNoise
    cond_var_jz: float
    warnings: tuple[str, ...] = ()


# The delta moments both r_a routes read, in input order.
_ROUTE_INPUTS = ("d_var_p", "d_var_q", "d_var_r", "d_cov_pq", "d_cov_pr")


def _route_se(delta: DeltaStats) -> dict[str, float]:
    """Standard errors of ``r_a`` and of ``d_var_q - d_var_p`` and, where
    the variance ratio is positive, of ``r_a_from_var`` and
    ``r_a - r_a_from_var``: one Jacobian over the deltas' Sigma."""
    values = [getattr(delta, name) for name in _ROUTE_INPUTS]
    num, den = values[2] - values[1], values[1] - values[0]
    ratio = num / den if den else 0.0
    # ratio / (2 sqrt(measured ratio)) has the slope of sqrt(ratio) there,
    # and stays defined where a perturbed ratio turns negative
    two_root = 2.0 * math.sqrt(ratio) if ratio > 0.0 else 0.0

    def routes(v):
        d_var_p, d_var_q, d_var_r, d_cov_pq, d_cov_pr = v
        out = {"r_a": d_cov_pr / d_cov_pq,
               "d_var_q - d_var_p": d_var_q - d_var_p}
        if two_root:
            out["r_a_from_var"] = ((d_var_r - d_var_q) / (d_var_q - d_var_p)
                                   / two_root)
            out["r_a - r_a_from_var"] = out["r_a"] - out["r_a_from_var"]
        return out

    return _propagate_se(routes, values, delta._sigma(_ROUTE_INPUTS),
                         tuple(routes(values)))


def invert_three_pulse(delta: DeltaStats, var_p: float, kappa: float,
                       j33: float) -> EstimatedModel:
    """Full model inversion of a three-pulse run.

    Quantities within ``3`` combined standard errors of zero are treated
    as zero when deciding whether a ratio is usable (no-op for analytic
    inputs, which carry no standard errors).  Failure of the primary
    covariance route propagates as an exception; failure of the
    variance cross-check degrades to ``r_a_from_var=None`` plus a
    warning.
    """
    _require_three(delta, "three-pulse inversion")
    warnings: list[str] = []

    floor_pq = _FLOOR_SIGMAS * delta.se_of("d_cov_pq", 0.0)
    r_a = estimate_ra_from_cov(delta, noise_floor=floor_pq)
    se = {} if delta.moment_cov is None else _route_se(delta)

    var_floor = _FLOOR_SIGMAS * se.get("d_var_q - d_var_p", 0.0)
    r_a_from_var = None
    try:
        r_a_from_var = estimate_ra_from_var(delta, noise_floor=var_floor)
    except (DegenerateCaseError, InconsistentDataError) as exc:
        warnings.append(f"variance route for r_a unavailable: {exc}")

    discrepancy = None
    if r_a_from_var is not None:
        discrepancy = abs(r_a - r_a_from_var)
        combined = se.get("r_a - r_a_from_var", 0.0)
        if combined > 0.0 and discrepancy > _FLOOR_SIGMAS * combined:
            warnings.append(
                f"r_a routes disagree: {r_a:.6g} vs {r_a_from_var:.6g} "
                f"({discrepancy / combined:.2f} combined se)"
            )

    if not 0.0 <= r_a <= 1.0:
        warnings.append(f"r_a estimate {r_a:.6g} outside [0, 1]")

    noise = estimate_noise(delta, kappa, j33, r_a)
    for name in noise.negative_entries:
        warnings.append(f"noise diagonal {name} estimated negative")

    cond_var = conditional_variance_from_stats(delta, var_p, kappa, j33)
    return EstimatedModel(
        r_a=r_a,
        r_a_se=se.get("r_a"),
        r_a_from_var=r_a_from_var,
        r_a_from_var_se=se.get("r_a_from_var") if r_a_from_var else None,
        r_a_discrepancy=discrepancy,
        noise=noise,
        cond_var_jz=cond_var,
        warnings=tuple(warnings),
    )
