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

is positive.  It is decided by the sign of margin / var_p, as
d_cov_pq (d_cov_pq / var_p) > d_var_q - d_var_p, whose terms stay in
range far from unit scale, where the reported margin underflows.

The route is exact when the run has three pulses, an informative
coupling and a positive var_p; with two or more pulses and a positive
var_p the state-prep figure assumes r_a = 1 (survival not identifiable),
and since r_a <= 1 it is then a lower bound, which can refute state
preparation but never certify it; otherwise only dx2_m is formed.

Every verdict is gated: a criterion counts as certified only when its
margin to 1 exceeds ``z_threshold`` propagated standard errors (0.0 for
exact inputs); the clipped product takes the unclipped dx2_s * dx2_m's.
Each figure is written once, in the figure table (``estimation._table``)
over (d_var_p, d_var_q, d_var_r, d_cov_pq, d_cov_pr, var_p), which gives
its value; the table's part with an error gives the standard error
sqrt(diag(J Sigma J^T)), J by complex step, good to rounding.
The inputs share shots, so Sigma, their error covariance, is Isserlis'
within each arm, Cov(S_ij, S_kl) = (S_ik S_jl + S_il S_jk) / (n - 1),
summed over the two independent arms (:mod:`qndcert.statistics`);
var_p's variance is ``var_p_se**2`` if given, else the delta's own.  The
mean reported error is 0.85 to 1.15 times the run-to-run spread of its
figure (seeded runs, 4k shots, 400 seeds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .estimation import (
    _EXACT,
    _INPUTS,
    _METER_ONLY,
    _R_A_ASSUMED,
    EstimatedModel,
    _entry_rule,
    _evaluate,
    _inputs,
    _inversion,
)
from .statistics import DeltaStats, _require_finite_squares

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


def _transfer_figures(t: dict[str, float], delta: DeltaStats,
                      var_p: float) -> FiguresOfMerit:
    """The transfer figures from the table ``t`` at the measured point.

    Entries whose denominators are unavailable or zero, or whose value is
    not finite, come back None instead of raising, so reduced (one- or
    two-pulse) runs still get whatever is defined.
    """
    undefined: dict[str, str] = {}
    if not var_p > 0.0:
        undefined["c2_in_meter"] = f"var_p = {var_p:.6g} is not positive"
    if delta.n_pulses < 2:
        undefined["c2_in_out"] = "needs three pulses"
        undefined["c2_out_meter"] = "needs two pulses"
    elif t["d_var_q - d_var_p + kappa**2 j33"] == 0.0:
        undefined["c2_in_out"] = undefined["c2_out_meter"] = (
            "zero output spin variance bracket")
    else:
        if "c2_in_meter" in undefined:
            undefined["c2_out_meter"] = undefined["c2_in_meter"]  # var_p's
        if delta.n_pulses < 3:
            undefined["c2_in_out"] = "needs three pulses"
        elif delta.d_cov_pq == 0.0:
            undefined["c2_in_out"] = "d_cov_pq is zero"
    values = {name: None if name in undefined else t[name]
              for name in ("c2_in_meter", "c2_in_out", "c2_out_meter")}
    for name, value in values.items():  # the one exit: each figure finite
        if value is not None and not math.isfinite(value):
            values[name] = None
            undefined[name] = f"out of floating-point range ({value})"
    return FiguresOfMerit(undefined=undefined, **values)


@dataclass(frozen=True)
class NonClassicality:
    """Input-referred uncertainty figures; a figure off the run's route
    is None.

    ``r_a_assumed`` is set (to 1) when the run could not identify the
    atomic survival and the state-prep figure was normalized under that
    assumption; None means the exact three-pulse route was used.
    ``product_sm`` is the squared uncertainty product
    max(0, dx2_s) * max(0, dx2_m), the information-damage criterion
    against 1, with the unclipped product's standard error; the
    report's ``warnings`` name a factor clipped to 0.
    """

    dx2_s_given_m: float | None
    dx2_m: float | None
    dx2_s: float | None
    product_sm: float | None
    r_a_assumed: float | None = None


class SqueezingVerdict(NamedTuple):
    """Conditional spin squeezing: ``margin`` is the squeezing margin of
    the module docstring, and ``squeezed`` whether it is positive, by
    the ratio form there, which holds where ``margin`` underflows."""

    squeezed: bool
    margin: float


@dataclass(frozen=True)
class CertificationReport:
    """Everything :func:`certify` concluded, in one verdict bundle.

    ``verdict_*`` are the gated verdicts (margin beyond z_threshold
    standard errors; ``gated`` is False when no input carries error);
    ``point_*`` compare the point values against 1 with no gate.  With
    r_a assumed 1 the state-prep figure is a lower bound, so a state-prep
    pass, gated or point, is None, and a reason says so.  A None
    verdict means the run cannot decide that criterion, and
    ``inconclusive`` is set exactly when the full-QND verdict is None.
    """

    n_pulses: int
    kappa: float
    j33: float
    j0: float
    z_threshold: float
    var_p: float
    var_p_se: float
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
        Reference-subtracted moments, with their error covariance (zero
        for exact data, Isserlis' for sampled data).
    var_p : float
        Probe-arm first-meter variance.
    kappa, j33, j0 : float
        Calibrated coupling, input spin variance, projection-noise scale.
    z_threshold : float
        Gate width in standard errors, finite and nonnegative; also sets
        the noise floor below which delta covariances count as
        uninformative, for the gate and for the model inversion alike.
    var_p_se : float, optional
        ``var_p``'s standard error, taken as a Python float; its row of
        Sigma is scaled to it.  When None, the delta's own row of Sigma
        (the probe arm's) gives it.  The report holds the value used.

    Checked first, in order: the gate width and the calibration, by the rule
    ``invert_three_pulse`` applies too, taken as Python floats, which the
    report echoes; a moment or ``var_p`` whose square overflows.  The noise
    floors and the standard errors both read the delta's Sigma, in one call.
    The inversion runs on the exact route only, which meets each of its
    checks, so it runs past them; its warnings move to the report's list.  A
    verdict whose standard error is not finite is None.
    """
    z_threshold, kappa, k2, j33, j0 = _entry_rule(z_threshold, kappa, j33, j0)
    var_p = float(var_p)
    inputs = _inputs(delta, var_p)
    # the figures' inputs: all but d_var_r, which the inversion alone reads
    read = [i for i, name in enumerate(_INPUTS) if name != "d_var_r"]
    _require_finite_squares({_INPUTS[i]: inputs[i] for i in read})

    n = delta.n_pulses
    positive = var_p > 0.0
    reasons: list[str] = []
    warns: list[str] = []
    sigma = delta._sigma(_INPUTS)

    informative = True
    for name in ("d_cov_pq", "d_cov_pr")[:n - 1]:
        size = abs(getattr(delta, name))
        i = _INPUTS.index(name)  # the inversion's floor, from Sigma
        floor = z_threshold * math.sqrt(sigma[i][i])
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
    exact = n == 3 and informative
    if exact and not positive:
        reasons.append("non-classicality figures unavailable: var_p "
                       f"must be positive, got {var_p}")
    # The one route decision (module docstring).
    route = (_EXACT if exact and positive else
             _R_A_ASSUMED if n >= 2 and positive else _METER_ONLY)

    # Standard errors: the inputs' joint covariance, propagated
    # as given, or the delta's own: var_p's row of Sigma
    var_p_se = math.sqrt(sigma[5][5]) if var_p_se is None else float(var_p_se)
    # var_p's variance is var_p_se**2; its correlations are kept
    sd = abs(var_p_se)
    rescale = sd / math.sqrt(sigma[5][5]) if sigma[5][5] else 0.0
    for i in range(5):
        sigma[i][5] = sigma[5][i] = sigma[i][5] * rescale
    sigma[5][5] = sd * sd
    t, errors = _evaluate(inputs, sigma, kappa, k2, j33, j0, route)
    se_map = {name: errors[name] for name in route}
    figures = _transfer_figures(t, delta, var_p)

    ncl_values = {**dict.fromkeys(_EXACT),
                  **{name: t[name] for name in route}}
    estimates: EstimatedModel | None = None
    if route == _EXACT:
        estimates = _inversion(t, errors, z_threshold)
        if estimates.warnings:  # moved to the report's list, their holder
            warns.extend(estimates.warnings)
            estimates = replace(estimates, warnings=())
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
        squeezing = SqueezingVerdict(
            squeezed=t["d_var_q - d_var_p - d_cov_pq**2 / var_p"] < 0.0,
            margin=float(t["squeezing margin"]))

    def gate(value: float | None, se_key: str, z: float = z_threshold,
             errors: dict[str, float] = se_map) -> bool | None:
        """Whether ``value`` is below 1 by more than z standard errors; a
        point verdict is the gate at z = 0 over no errors."""
        se = errors.get(se_key, 0.0)
        if value is not None and not se < math.inf:  # NaN or inf
            reasons.append(f"standard error of {se_key} is not finite "
                           f"({se}); its verdict is undecided")
            return None
        return None if value is None else (1.0 - value) > z * se

    def both(a: bool | None, b: bool | None) -> bool | None:
        return None if a is None or b is None else a and b

    verdict_state_prep = gate(ncl.dx2_s_given_m, "dx2_s_given_m")
    point_state_prep = gate(ncl.dx2_s_given_m, "dx2_s_given_m", 0.0, {})
    if route == _R_A_ASSUMED and (verdict_state_prep or point_state_prep):
        # a lower bound refutes, never certifies: a pass is undecided
        verdict_state_prep = verdict_state_prep and None
        point_state_prep = point_state_prep and None
        reasons.append("state-prep figure is a lower bound with r_a assumed "
                       "1: it can refute state preparation, not certify it")
    verdict_info_damage = gate(ncl.product_sm, "product_sm")
    point_info_damage = gate(ncl.product_sm, "product_sm", 0.0, {})
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
        gated=any(sigma[i][i] for i in read),  # some figure input has error
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
