"""Certification figures and verdicts from measured statistics.

Three squared-correlation transfer figures grade the measurement chain
(input spin -> meter, input spin -> output spin, output spin -> meter),

    C2_in_meter  = kappa**2 j33 / var_p
    C2_in_out    = kappa**2 j33 d_cov_pr**2 / (d_cov_pq**2 B)
    C2_out_meter = d_cov_pq**2 / (var_p B),      B = d_var_q - d_var_p + kappa**2 j33

and three input-referred uncertainty figures, normalized to the
projection noise j0 = |<J_x>|/2, decide non-classicality:

    dx2_s_given_m = (d_cov_pq / d_cov_pr)
                    * [j33/j0 + (d_var_q - d_var_p - d_cov_pq**2/var_p)/(kappa**2 j0)]
    dx2_m         = (var_p - kappa**2 j33) / (kappa**2 j0)
    dx2_s         = d_cov_pq (d_var_q - d_var_p) / (d_cov_pr kappa**2 j0)

dx2_s_given_m < 1 certifies conditional state preparation beyond the
projection noise; dx2_s * dx2_m < 1 certifies an information-damage
tradeoff no classical meter chain can reach.  dx2_s may legitimately be
negative when atom loss dominates; it is reported signed and clipped to
zero only inside the product.

With sampled inputs every verdict is gated: a criterion counts as
certified only when its margin to 1 exceeds ``z_threshold`` propagated
standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QndError, UndefinedInputError
from .estimation import EstimatedModel, invert_three_pulse
from .statistics import (
    DeltaStats,
    SqueezingVerdict,
    conditional_variance_from_stats,
    squeezing_condition,
)

__all__ = [
    "FiguresOfMerit",
    "NonClassicality",
    "CertificationReport",
    "holland_figures",
    "nonclassicality",
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


def holland_figures(delta: DeltaStats, var_p: float, kappa: float,
                    j33: float) -> FiguresOfMerit:
    """Squared-correlation transfer figures from measured statistics.

    Entries whose denominators are unavailable or zero come back None
    instead of raising, so reduced (one- or two-pulse) runs still get
    whatever is defined.
    """
    if j33 < 0.0:
        raise UndefinedInputError(f"j33 must be nonnegative, got {j33}")
    k2 = kappa * kappa
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
        return FiguresOfMerit(undefined=undefined, **values)

    bracket = delta.d_var_q - delta.d_var_p + k2 * j33
    if bracket == 0.0:
        undefined["c2_in_out"] = "zero output spin variance bracket"
        undefined["c2_out_meter"] = "zero output spin variance bracket"
        return FiguresOfMerit(undefined=undefined, **values)

    if var_p > 0.0:
        values["c2_out_meter"] = delta.d_cov_pq ** 2 / (var_p * bracket)
    else:
        undefined["c2_out_meter"] = f"var_p = {var_p:.6g} is not positive"

    if delta.n_pulses < 3:
        undefined["c2_in_out"] = "needs three pulses"
    elif delta.d_cov_pq == 0.0:
        undefined["c2_in_out"] = "d_cov_pq is zero"
    else:
        values["c2_in_out"] = (k2 * j33 * delta.d_cov_pr ** 2
                               / (delta.d_cov_pq ** 2 * bracket))
    return FiguresOfMerit(undefined=undefined, **values)


@dataclass(frozen=True)
class NonClassicality:
    """Input-referred uncertainty figures.

    ``r_a_assumed`` is set (to 1) when the run could not identify the
    atomic survival and the state-prep figure was normalized under that
    assumption; None means the exact three-pulse route was used.
    """

    dx2_s_given_m: float | None
    dx2_m: float | None
    dx2_s: float | None
    product_sm: float | None
    r_a_assumed: float | None = None
    warnings: tuple[str, ...] = ()


def nonclassicality(delta: DeltaStats, var_p: float, kappa: float,
                    j33: float, j0: float) -> NonClassicality:
    """Exact three-pulse non-classicality figures (module docstring forms).

    ``product_sm`` is the squared uncertainty product
    max(0, dx2_s) * max(0, dx2_m); comparing it against 1 is the
    information-damage criterion.
    """
    if delta.n_pulses != 3:
        raise UndefinedInputError("non-classicality figures need three pulses")
    if kappa == 0.0:
        raise UndefinedInputError("kappa must be nonzero")
    if j0 <= 0.0:
        raise UndefinedInputError(f"j0 must be positive, got {j0}")
    if j33 < 0.0:
        raise UndefinedInputError(f"j33 must be nonnegative, got {j33}")
    if var_p <= 0.0:
        raise UndefinedInputError(f"var_p must be positive, got {var_p}")
    if delta.d_cov_pr == 0.0:
        raise UndefinedInputError("d_cov_pr is zero; spin-meter ratio undefined")

    k2j0 = kappa * kappa * j0
    warnings: list[str] = []
    ratio = delta.d_cov_pq / delta.d_cov_pr
    excess = delta.d_var_q - delta.d_var_p - delta.d_cov_pq ** 2 / var_p
    dx2_s_given_m = ratio * (j33 / j0 + excess / k2j0)
    dx2_m = (var_p - kappa * kappa * j33) / k2j0
    dx2_s = ratio * (delta.d_var_q - delta.d_var_p) / k2j0
    if dx2_s < 0.0:
        warnings.append(
            "dx2_s is negative (loss dominates added spin noise); "
            "clipped to zero inside the uncertainty product"
        )
    if dx2_m < 0.0:
        warnings.append(
            "dx2_m is negative (sampled var_p below kappa**2*j33); "
            "clipped to zero inside the uncertainty product"
        )
    product = max(0.0, dx2_s) * max(0.0, dx2_m)
    return NonClassicality(
        dx2_s_given_m=dx2_s_given_m,
        dx2_m=dx2_m,
        dx2_s=dx2_s,
        product_sm=product,
        warnings=tuple(warnings),
    )


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


# Input vector layout for error propagation.
_V_DP, _V_DQ, _V_DR, _V_PQ, _V_PR, _V_VP = range(6)


def _propagate_se(fn, values: tuple, ses: tuple) -> float:
    """First-order (central-difference) error of fn(values) with
    independent input errors.  Both tuples hold numpy float64 scalars, so
    a zero denominator in ``fn`` gives inf with a RuntimeWarning."""
    total = 0.0
    for i, se in enumerate(ses):
        if se == 0.0:
            continue
        value = values[i]
        h = max(1e-6 * abs(value), 1e-9)
        head, tail = values[:i], values[i + 1:]
        slope = (fn(head + (value + h,) + tail)
                 - fn(head + (value - h,) + tail)) / (2.0 * h)
        total += (slope * se) ** 2
    return float(np.sqrt(total))


def _fallback_nonclassicality(delta: DeltaStats, var_p: float, kappa: float,
                              j33: float, j0: float) -> NonClassicality:
    """Reduced figures when the survival factor is not identifiable:
    dx2_m stays exact, the state-prep figure assumes r_a = 1, and the
    product (hence the info-damage criterion) is unavailable."""
    warnings: list[str] = []
    dx2_m = None
    dx2_s_given_m = None
    r_a_assumed = None
    if kappa != 0.0 and j0 > 0.0:
        dx2_m = (var_p - kappa * kappa * j33) / (kappa * kappa * j0)
        if delta.n_pulses >= 2 and var_p > 0.0:
            cond = conditional_variance_from_stats(delta, var_p, kappa, j33)
            dx2_s_given_m = cond / j0
            r_a_assumed = 1.0
            warnings.append(
                "state-prep figure normalized with r_a assumed 1 "
                "(survival not identifiable from this run)"
            )
    return NonClassicality(
        dx2_s_given_m=dx2_s_given_m,
        dx2_m=dx2_m,
        dx2_s=None,
        product_sm=None,
        r_a_assumed=r_a_assumed,
        warnings=tuple(warnings),
    )


def certify(delta: DeltaStats, var_p: float, kappa: float, j33: float,
            j0: float, z_threshold: float = 3.0,
            var_p_se: float | None = None) -> CertificationReport:
    """Run the full certification pipeline on measured statistics.

    Parameters
    ----------
    delta : DeltaStats
        Reference-subtracted moments, with standard errors for sampled
        data (enables gating).
    var_p : float
        Probe-arm first-meter variance, with optional ``var_p_se``.
    kappa, j33, j0 : float
        Calibrated coupling, input spin variance, projection-noise scale.
    z_threshold : float
        Gate width in standard errors; also sets the noise floor below
        which delta covariances count as uninformative.
    """
    if j33 < 0.0:
        raise UndefinedInputError(f"j33 must be nonnegative, got {j33}")
    if j0 <= 0.0:
        raise UndefinedInputError(f"j0 must be positive, got {j0}")
    if kappa == 0.0:
        raise UndefinedInputError("kappa must be nonzero")

    n = delta.n_pulses
    reasons: list[str] = []
    warns: list[str] = []
    gated = delta.se is not None

    def floor(name: str) -> float:
        se = delta.se_of(name)
        return z_threshold * se if se else 0.0

    informative = True
    if n >= 2 and abs(delta.d_cov_pq) <= floor("d_cov_pq"):
        informative = False
        reasons.append(
            "uninformative coupling: |d_cov_pq| = "
            f"{abs(delta.d_cov_pq):.6g} at or below its noise floor "
            f"{floor('d_cov_pq'):.6g}"
        )
    if n == 3 and informative and abs(delta.d_cov_pr) <= floor("d_cov_pr"):
        informative = False
        reasons.append(
            "uninformative coupling: |d_cov_pr| = "
            f"{abs(delta.d_cov_pr):.6g} at or below its noise floor "
            f"{floor('d_cov_pr'):.6g}"
        )
    if n < 3:
        reasons.append(
            f"full certification needs three pulses, run has {n}; "
            "reduced report"
        )

    figures = holland_figures(delta, var_p, kappa, j33)

    estimates: EstimatedModel | None = None
    if n == 3 and informative:
        try:
            estimates = invert_three_pulse(delta, var_p, kappa, j33)
        except QndError as exc:
            reasons.append(f"model inversion failed: {exc}")
    if estimates is not None:
        warns.extend(estimates.warnings)

    exact_route = False
    ncl: NonClassicality | None = None
    if n == 3 and informative:
        try:
            ncl = nonclassicality(delta, var_p, kappa, j33, j0)
            exact_route = True
        except UndefinedInputError as exc:
            reasons.append(f"non-classicality figures unavailable: {exc}")
    if ncl is None:
        ncl = _fallback_nonclassicality(delta, var_p, kappa, j33, j0)
    warns.extend(ncl.warnings)

    squeezing: SqueezingVerdict | None = None
    if n >= 2:
        try:
            squeezing = squeezing_condition(delta, var_p)
        except UndefinedInputError as exc:
            reasons.append(f"squeezing test unavailable: {exc}")
    else:
        reasons.append("squeezing test needs two pulses")

    # Standard errors of the derived figures, by first-order propagation
    # over (d_var_p, d_var_q, d_var_r, d_cov_pq, d_cov_pr, var_p).
    se_map: dict[str, float] = {}
    if gated:
        names = ("d_var_p", "d_var_q", "d_var_r", "d_cov_pq", "d_cov_pr")
        raw = [getattr(delta, name) for name in names] + [var_p]
        values = tuple(np.array([0.0 if v is None else v for v in raw]))
        input_ses = tuple(np.array([delta.se_of(name, 0.0) for name in names]
                                   + [var_p_se or 0.0]))
        k2 = kappa * kappa

        def f_m(v):
            return (v[_V_VP] - k2 * j33) / (k2 * j0)

        def f_cond(v):
            return j33 + (v[_V_DQ] - v[_V_DP]
                          - v[_V_PQ] ** 2 / v[_V_VP]) / k2

        def f_sgm(v):
            if exact_route:
                return (v[_V_PQ] / v[_V_PR]) * f_cond(v) / j0
            return f_cond(v) / j0

        def f_s(v):
            return (v[_V_PQ] * (v[_V_DQ] - v[_V_DP])
                    / (v[_V_PR] * k2 * j0))

        def f_prod(v):
            return max(0.0, f_s(v)) * max(0.0, f_m(v))

        for key, fn in (("dx2_m", f_m), ("dx2_s_given_m", f_sgm),
                        ("dx2_s", f_s), ("product_sm", f_prod)):
            if getattr(ncl, key) is not None:
                se_map[key] = _propagate_se(fn, values, input_ses)

    def gate(value: float | None, se_key: str) -> bool | None:
        if value is None:
            return None
        return (1.0 - value) > z_threshold * se_map.get(se_key, 0.0)

    def point(value: float | None) -> bool | None:
        if value is None:
            return None
        return value < 1.0

    verdict_state_prep = gate(ncl.dx2_s_given_m, "dx2_s_given_m")
    verdict_info_damage = gate(ncl.product_sm, "product_sm")
    point_state_prep = point(ncl.dx2_s_given_m)
    point_info_damage = point(ncl.product_sm)
    verdict_full = (None if verdict_state_prep is None
                    or verdict_info_damage is None
                    else verdict_state_prep and verdict_info_damage)
    point_full = (None if point_state_prep is None or point_info_damage is None
                  else point_state_prep and point_info_damage)

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
