"""Certification figures and verdicts from measured statistics.

:func:`certify` is the one entry point: it checks the calibration once,
decides once which route the run supports, and forms every figure below
on that route.

Three squared-correlation transfer figures grade the measurement chain
(input spin -> meter, input spin -> output spin, output spin -> meter),

    C2_in_meter  = kappa**2 j33 / var_p
    C2_in_out    = (kappa**2 j33 / B) (d_cov_pr / d_cov_pq)**2
    C2_out_meter = (d_cov_pq / var_p) (d_cov_pq / B)

with B = d_var_q - d_var_p + kappa**2 j33: each a product of ratios of
terms in one unit, so records and kappa in another unit give the same
bits.  A figure that cannot be formed, or is not finite, is None with
its reason.  Three input-referred uncertainty figures, normalized to the
projection noise j0 = |<J_x>|/2, decide non-classicality:

    dx2_s_given_m = (d_cov_pq / d_cov_pr) * [j33/j0 + (d_var_q - d_var_p
                    - d_cov_pq (d_cov_pq / var_p)) / (kappa**2 j0)]
    dx2_m         = (var_p - kappa**2 j33) / (kappa**2 j0)
    dx2_s         = (d_cov_pq / d_cov_pr) ((d_var_q - d_var_p) / (kappa**2 j0))

Like the transfer figures, each is a product of ratios of terms in one
unit.  dx2_s_given_m < 1 certifies conditional state preparation beyond
the projection noise; dx2_s * dx2_m < 1 certifies an information-damage
tradeoff no classical meter chain can reach.  dx2_s may legitimately be
negative when atom loss dominates; it is reported signed and clipped to
zero only inside the product.  The readout squeezed the spin below its
input variance exactly when the squeezing margin

    d_cov_pq**2 - var_p (d_var_q - d_var_p)

is positive.

The route is exact when the run has three pulses, an informative
coupling and a positive var_p; with two or more pulses and a positive
var_p the state-prep figure assumes r_a = 1 (survival not identifiable);
otherwise only dx2_m is formed.

With sampled inputs every verdict is gated: a criterion counts as
certified only when its margin to 1 exceeds ``z_threshold`` propagated
standard errors.  One function, ``_figures``, defines each uncertainty
figure from the input vector (d_var_p, d_var_q, d_cov_pq, d_cov_pr,
var_p); it gives the value, and the standard error sqrt(diag(J Sigma
J^T)), J by central differences of the same function.  The inputs share
shots, so Sigma, their error covariance, is Isserlis' within each arm,
Cov(S_ij, S_kl) = (S_ik S_jl + S_il S_jk) / (n - 1), summed over the two
independent arms (:mod:`qndcert.statistics`); var_p's variance is
``var_p_se**2`` if given, else the delta's own.  The mean reported
error is 0.85 to 1.15 times the run-to-run spread of its figure (seeded
runs, 4k shots, 400 seeds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .estimation import EstimatedModel, _check_gate_width, _inversion
from .statistics import (
    DeltaStats,
    _calibration_k2,
    _conditional_variance,
    _propagate_se,
    _require_finite_squares,
)

__all__ = [
    "FiguresOfMerit",
    "NonClassicality",
    "SqueezingVerdict",
    "CertificationReport",
    "certify",
]


@dataclass(frozen=True)
class FiguresOfMerit:
    """Transfer figures; entries that cannot be formed are None with the
    reason recorded under the same key in ``undefined``."""

    c2_in_meter: float | None
    c2_in_out: float | None
    c2_out_meter: float | None
    undefined: dict[str, str]


def _transfer_figures(delta: DeltaStats, var_p: float, k2: float,
                      j33: float) -> FiguresOfMerit:
    """The transfer figures (module docstring forms), k2 = kappa**2.

    Entries whose denominators are unavailable or zero, or whose value is
    not finite, come back None instead of raising, so reduced (one- or
    two-pulse) runs still get whatever is defined.
    """
    undefined: dict[str, str] = {}
    values: dict[str, float | None] = {
        "c2_in_meter": None, "c2_in_out": None, "c2_out_meter": None,
    }

    if var_p > 0.0:
        values["c2_in_meter"] = k2 * j33 / var_p
    else:
        undefined["c2_in_meter"] = f"var_p = {var_p:.6g} is not positive"

    if delta.n_pulses < 2:
        undefined["c2_in_out"] = "needs three pulses"
        undefined["c2_out_meter"] = "needs two pulses"
        return _finite_figures(values, undefined)

    bracket = delta.d_var_q - delta.d_var_p + k2 * j33
    if bracket == 0.0:
        undefined["c2_in_out"] = "zero output spin variance bracket"
        undefined["c2_out_meter"] = "zero output spin variance bracket"
        return _finite_figures(values, undefined)

    if var_p > 0.0:
        values["c2_out_meter"] = ((delta.d_cov_pq / var_p)
                                  * (delta.d_cov_pq / bracket))
    else:
        undefined["c2_out_meter"] = f"var_p = {var_p:.6g} is not positive"

    if delta.n_pulses < 3:
        undefined["c2_in_out"] = "needs three pulses"
    elif delta.d_cov_pq == 0.0:
        undefined["c2_in_out"] = "d_cov_pq is zero"
    else:
        r_a = delta.d_cov_pr / delta.d_cov_pq
        values["c2_in_out"] = k2 * j33 / bracket * (r_a * r_a)
    return _finite_figures(values, undefined)


def _finite_figures(values: dict[str, float | None],
                    undefined: dict[str, str]) -> FiguresOfMerit:
    """The figures ``values``, each one that is not finite None with its
    reason in ``undefined``."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            values[name] = None
            undefined[name] = f"out of floating-point range ({value})"
    return FiguresOfMerit(undefined=undefined, **values)


# Routes to the uncertainty figures, each the names of the figures it
# gives in standard-error order: the exact three-pulse route, and the
# fallbacks with the state-prep figure at r_a = 1 or with dx2_m alone.
_EXACT = ("dx2_m", "dx2_s_given_m", "dx2_s", "product_sm")
_R_A_ASSUMED = _EXACT[:2]
_METER_ONLY = _EXACT[:1]

# The delta moments the figures read, in input order; var_p follows.
_INPUTS = ("d_var_p", "d_var_q", "d_cov_pq", "d_cov_pr")


def _inputs(delta: DeltaStats, var_p: float) -> tuple[float, ...]:
    """The figures' input vector; a moment the run lacks reads 0."""
    return tuple(0.0 if v is None else v for v in
                 [getattr(delta, name) for name in _INPUTS] + [var_p])


def _figures(v, k2: float, j33: float, j0: float,
             route: tuple[str, ...]) -> dict[str, float]:
    """The uncertainty figures of ``route`` (module docstring forms) from
    v = (d_var_p, d_var_q, d_cov_pq, d_cov_pr, var_p), k2 = kappa**2.

    The one definition of each figure: its value and, through
    :func:`~qndcert.statistics._propagate_se`, its standard error.  On
    the exact route the state-prep figure is normalized by the measured
    survival d_cov_pr / d_cov_pq, on ``_R_A_ASSUMED`` by r_a = 1.
    """
    d_var_p, d_var_q, d_cov_pq, d_cov_pr, var_p = v
    figures = {"dx2_m": (var_p - k2 * j33) / (k2 * j0)}
    if route == _METER_ONLY:
        return figures
    cond = _conditional_variance(d_var_p, d_var_q, d_cov_pq, var_p, k2, j33)
    if route == _R_A_ASSUMED:
        figures["dx2_s_given_m"] = cond / j0
        return figures
    figures["dx2_s_given_m"] = (d_cov_pq / d_cov_pr) * cond / j0
    dx2_s = (d_cov_pq / d_cov_pr) * ((d_var_q - d_var_p) / (k2 * j0))
    figures["dx2_s"] = dx2_s
    figures["product_sm"] = max(0.0, dx2_s) * max(0.0, figures["dx2_m"])
    return figures


@dataclass(frozen=True)
class NonClassicality:
    """Input-referred uncertainty figures; a figure off the run's route
    is None.

    ``r_a_assumed`` is set (to 1) when the run could not identify the
    atomic survival and the state-prep figure was normalized under that
    assumption; None means the exact three-pulse route was used.
    ``product_sm`` is the squared uncertainty product
    max(0, dx2_s) * max(0, dx2_m), the information-damage criterion
    against 1; the report's ``warnings`` name a factor clipped to 0.
    """

    dx2_s_given_m: float | None
    dx2_m: float | None
    dx2_s: float | None
    product_sm: float | None
    r_a_assumed: float | None = None


class SqueezingVerdict(NamedTuple):
    """Conditional spin squeezing: ``margin`` is the squeezing margin of
    the module docstring, and ``squeezed`` whether it is positive."""

    squeezed: bool
    margin: float


@dataclass(frozen=True)
class CertificationReport:
    """Everything :func:`certify` concluded, in one verdict bundle.

    ``verdict_*`` are the gated verdicts (margin beyond z_threshold
    standard errors when errors are available); ``point_*`` compare the
    point values against 1 with no gate.  A None verdict means the run
    cannot decide that criterion, and ``inconclusive`` is set exactly
    when the full-QND verdict is None.
    """

    n_pulses: int
    kappa: float
    j33: float
    j0: float
    z_threshold: float
    var_p: float
    var_p_se: float | None
    delta: DeltaStats
    figures: FiguresOfMerit
    estimates: EstimatedModel | None
    nonclassical: NonClassicality
    squeezing: SqueezingVerdict | None
    se: dict[str, float]
    gated: bool
    verdict_state_prep: bool | None
    verdict_info_damage: bool | None
    verdict_full_qnd: bool | None
    point_state_prep: bool | None
    point_info_damage: bool | None
    point_full_qnd: bool | None
    inconclusive: bool
    reasons: tuple[str, ...]
    warnings: tuple[str, ...]


def certify(delta: DeltaStats, var_p: float, kappa: float, j33: float,
            j0: float, z_threshold: float = 3.0,
            var_p_se: float | None = None) -> CertificationReport:
    """Run the full certification pipeline on measured statistics.

    Parameters
    ----------
    delta : DeltaStats
        Reference-subtracted moments, with their error covariance for
        sampled data (enables gating).
    var_p : float
        Probe-arm first-meter variance.
    kappa, j33, j0 : float
        Calibrated coupling, input spin variance, projection-noise scale;
        checked first, by the one rule ``statistics._calibration_k2``.
    z_threshold : float
        Gate width in standard errors, finite and nonnegative; also sets
        the noise floor below which delta covariances count as
        uninformative, for the gate and for the model inversion alike.
    var_p_se : float, optional
        ``var_p``'s standard error; its row of Sigma is scaled to it.
        When None, the delta's own row of Sigma (the probe arm's) gives
        it, and the report holds that value.

    After the calibration and the gate width, a moment or ``var_p``
    whose square overflows is refused.  The noise floors and the
    standard errors both read the delta's Sigma.  The inversion runs on
    the exact route only, which meets each of its checks, so it runs
    past them; its warnings are the report's ``warnings``, and its
    ``estimates`` carry none.  A verdict whose standard error is not
    finite is None.
    """
    k2 = _calibration_k2(kappa, j33, j0)
    _check_gate_width(z_threshold)
    inputs = _inputs(delta, var_p)
    _require_finite_squares(dict(zip(_INPUTS + ("var_p",), inputs)))

    n = delta.n_pulses
    positive = var_p > 0.0
    reasons: list[str] = []
    warns: list[str] = []
    se = delta.se  # read once: a new dict at each read
    gated = se is not None

    informative = True
    for name in ("d_cov_pq", "d_cov_pr")[:n - 1]:
        size = abs(getattr(delta, name))
        floor = z_threshold * se[name] if gated else 0.0  # the inversion's
        if size <= floor:
            informative = False
            reasons.append(f"uninformative coupling: |{name}| = {size:.6g} "
                           f"at or below its noise floor {floor:.6g}")
            break
    if n < 3:
        reasons.append(
            f"full certification needs three pulses, run has {n}; "
            "reduced report"
        )
    figures = _transfer_figures(delta, var_p, k2, j33)

    exact = n == 3 and informative
    if exact and not positive:
        reasons.append("non-classicality figures unavailable: var_p "
                       f"must be positive, got {var_p}")
    # The one route decision (module docstring).
    route = (_EXACT if exact and positive else
             _R_A_ASSUMED if n >= 2 and positive else _METER_ONLY)

    ncl_values = {**dict.fromkeys(_EXACT),
                  **_figures(inputs, k2, j33, j0, route)}
    estimates: EstimatedModel | None = None
    if route == _EXACT:
        # its warnings go to the report's list, the one that holds them
        estimates = _inversion(delta, var_p, kappa, k2, j33, z_threshold,
                               warns)
        for name, cause in (("dx2_s", "loss dominates added spin noise"),
                            ("dx2_m", "sampled var_p below kappa**2*j33")):
            if ncl_values[name] < 0.0:
                warns.append(f"{name} is negative ({cause}); clipped to "
                             "zero inside the uncertainty product")
    elif route == _R_A_ASSUMED:
        warns.append("state-prep figure normalized with r_a assumed 1 "
                     "(survival not identifiable from this run)")
    ncl = NonClassicality(
        **ncl_values, r_a_assumed=1.0 if route == _R_A_ASSUMED else None)

    squeezing: SqueezingVerdict | None = None
    if n < 2:
        reasons.append("squeezing test needs two pulses")
    elif not positive:
        reasons.append("squeezing test unavailable: var_p must be positive, "
                       f"got {var_p}")
    else:
        margin = delta.d_cov_pq ** 2 - var_p * (delta.d_var_q - delta.d_var_p)
        squeezing = SqueezingVerdict(squeezed=margin > 0.0,
                                     margin=float(margin))

    # Standard errors of the route's figures, by first-order propagation
    # of the inputs' joint covariance.
    se_map: dict[str, float] = {}
    if gated:
        sigma = delta._sigma(_INPUTS + ("var_p",))
        if var_p_se is None:  # the delta's own: var_p's row of Sigma
            var_p_se = math.sqrt(sigma[4][4])
        # var_p's variance is var_p_se**2; its correlations are kept
        sd = abs(var_p_se)
        rescale = sd / math.sqrt(sigma[4][4]) if sigma[4][4] else 0.0
        for i in range(4):
            sigma[i][4] = sigma[4][i] = sigma[i][4] * rescale
        sigma[4][4] = sd * sd
        se_map = _propagate_se(
            lambda v: _figures(v, k2, j33, j0, route), inputs, sigma, route)

    def gate(value: float | None, se_key: str) -> bool | None:
        se = se_map.get(se_key, 0.0)
        if value is not None and not se < math.inf:  # NaN or inf
            reasons.append(f"standard error of {se_key} is not finite "
                           f"({se}); its verdict is undecided")
            return None
        return None if value is None else (1.0 - value) > z_threshold * se

    def point(value: float | None) -> bool | None:
        return None if value is None else value < 1.0

    def both(a: bool | None, b: bool | None) -> bool | None:
        return None if a is None or b is None else a and b

    verdict_state_prep = gate(ncl.dx2_s_given_m, "dx2_s_given_m")
    verdict_info_damage = gate(ncl.product_sm, "product_sm")
    point_state_prep = point(ncl.dx2_s_given_m)
    point_info_damage = point(ncl.product_sm)
    verdict_full = both(verdict_state_prep, verdict_info_damage)
    point_full = both(point_state_prep, point_info_damage)

    return CertificationReport(
        n_pulses=n,
        kappa=kappa,
        j33=j33,
        j0=j0,
        z_threshold=z_threshold,
        var_p=var_p,
        var_p_se=var_p_se,
        delta=delta,
        figures=figures,
        estimates=estimates,
        nonclassical=ncl,
        squeezing=squeezing,
        se=se_map,
        gated=gated,
        verdict_state_prep=verdict_state_prep,
        verdict_info_damage=verdict_info_damage,
        verdict_full_qnd=verdict_full,
        point_state_prep=point_state_prep,
        point_info_damage=point_info_damage,
        point_full_qnd=point_full,
        inconclusive=verdict_full is None,
        reasons=tuple(reasons),
        warnings=tuple(warns),
    )
