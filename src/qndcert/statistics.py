"""Measurable meter statistics: predictions, sample estimates, deltas.

Everything the certification consumes is expressed through second moments
of the pulse meters (P_y, Q_y, R_y) in two arms:

* the probe arm, measured with atoms present, and
* a no-atoms reference arm (coupling off, lossless, noiseless) that
  calibrates the raw optical noise.

Delta statistics subtract the reference, scaled by the optical
transmission squared,

    delta x = x_measured - r_L**2 * x_reference

which cancels the input light noise, including classical correlations
between pulses, and leaves only what the atoms imprinted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import GaussianState, get_entry
from .dynamics import ExperimentParams, NoiseModel
from .errors import DimensionMismatchError, UndefinedInputError

__all__ = [
    "MomentSet",
    "DeltaStats",
    "ShotRecords",
    "MomentAccumulator",
    "SqueezingVerdict",
    "meter_moments",
    "predicted_moments",
    "no_atoms_moments",
    "delta_stats",
    "sample_moments",
    "conditional_variance_from_stats",
    "squeezing_condition",
]

_MOMENT_FIELDS = {
    1: ("var_p",),
    2: ("var_p", "var_q", "cov_pq"),
    3: ("var_p", "var_q", "var_r", "cov_pq", "cov_pr", "cov_qr"),
}

_DELTA_FIELDS = {
    1: ("d_var_p",),
    2: ("d_var_p", "d_var_q", "d_cov_pq"),
    3: ("d_var_p", "d_var_q", "d_var_r", "d_cov_pq", "d_cov_pr"),
}


# Each moment of ``_MOMENT_FIELDS[n]`` with the 0-based indices (j, k),
# j <= k, of the two meters it couples: var_q -> (1, 1), cov_pr -> (0, 2).
_METER_PAIRS = {
    n: tuple((name, "pqr".index(name[4]), "pqr".index(name[-1]))
             for name in names)
    for n, names in _MOMENT_FIELDS.items()
}


def _check_fields(obj, table: dict[int, tuple[str, ...]]) -> None:
    required = table[obj.n_pulses]
    for name in table[3]:  # the 3-pulse entry names every field
        value = getattr(obj, name)
        if name in required and value is None:
            raise ValueError(f"{name} required for n_pulses={obj.n_pulses}")
        if name not in required and value is not None:
            raise ValueError(f"{name} not defined for n_pulses={obj.n_pulses}")
    if obj.se is not None:
        extra = set(obj.se) - set(required)
        if extra:
            raise ValueError(f"standard errors for absent moments: {sorted(extra)}")


@dataclass(frozen=True)
class MomentSet:
    """Second moments of the meters of one arm.

    ``se`` carries standard errors keyed by field name when the moments
    are sample estimates (``n_shots`` set); analytic predictions leave
    both unset.
    """

    n_pulses: int
    var_p: float
    var_q: float | None = None
    var_r: float | None = None
    cov_pq: float | None = None
    cov_pr: float | None = None
    cov_qr: float | None = None
    n_shots: int | None = None
    se: dict[str, float] | None = None

    def __post_init__(self) -> None:
        if self.n_pulses not in (1, 2, 3):
            raise ValueError(f"n_pulses must be 1, 2 or 3, got {self.n_pulses}")
        _check_fields(self, _MOMENT_FIELDS)
        for name in ("var_p", "var_q", "var_r"):
            value = getattr(self, name)
            if value is not None and value < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value}")

    def entries(self) -> dict[str, float]:
        """Present moments as a plain dict (for reports)."""
        return {name: getattr(self, name) for name in _MOMENT_FIELDS[self.n_pulses]}


@dataclass(frozen=True)
class DeltaStats:
    """Reference-subtracted moments; see the module docstring."""

    n_pulses: int
    d_var_p: float
    d_var_q: float | None = None
    d_var_r: float | None = None
    d_cov_pq: float | None = None
    d_cov_pr: float | None = None
    se: dict[str, float] | None = None

    def __post_init__(self) -> None:
        if self.n_pulses not in (1, 2, 3):
            raise ValueError(f"n_pulses must be 1, 2 or 3, got {self.n_pulses}")
        _check_fields(self, _DELTA_FIELDS)

    def entries(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in _DELTA_FIELDS[self.n_pulses]}

    def se_of(self, name: str) -> float | None:
        if self.se is None:
            return None
        return self.se.get(name)


@dataclass(frozen=True)
class ShotRecords:
    """Per-shot meter outcomes for both arms.

    Rows are shots, columns are (p_y[, q_y[, r_y]]).  ``seed`` and
    ``params_hash`` travel with simulated data and are None for records
    loaded without metadata.
    """

    with_atoms: np.ndarray
    no_atoms: np.ndarray
    seed: int | None = None
    params_hash: str | None = None

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("with_atoms", "no_atoms"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2 or not 1 <= arr.shape[1] <= 3 or arr.shape[0] < 1:
                raise DimensionMismatchError(
                    f"{name} must be a nonempty (n_shots, n_pulses<=3) array, "
                    f"got shape {arr.shape}"
                )
            arr = arr.copy()
            arr.setflags(write=False)
            arrays[name] = arr
        if arrays["with_atoms"].shape[1] != arrays["no_atoms"].shape[1]:
            raise DimensionMismatchError("arms disagree on the pulse count")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def n_pulses(self) -> int:
        return self.with_atoms.shape[1]

    @property
    def n_shots(self) -> int:
        return self.with_atoms.shape[0]


class MomentAccumulator:
    """Streaming mean and covariance over rows, mergeable across chunks.

    Keeps (count, mean, centered comoment) and combines partial results
    with the standard pairwise update, so feeding the data in any chunking
    gives the same moments up to rounding.
    """

    def __init__(self, n_cols: int):
        self.count = 0
        self.mean = np.zeros(n_cols)
        self.comoment = np.zeros((n_cols, n_cols))

    @classmethod
    def of(cls, rows: np.ndarray) -> "MomentAccumulator":
        """An accumulator fed all of ``rows`` in one update."""
        acc = cls(np.shape(rows)[1])
        acc.update(rows)
        return acc

    def update(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.mean.size:
            raise DimensionMismatchError(
                f"expected (n, {self.mean.size}) rows, got {rows.shape}"
            )
        if rows.shape[0] == 0:
            return
        n_b = rows.shape[0]
        mean_b = rows.mean(axis=0)
        centered = rows - mean_b
        self._combine(n_b, mean_b, centered.T @ centered)

    def merge(self, other: "MomentAccumulator") -> None:
        self._combine(other.count, other.mean, other.comoment)

    def _combine(self, n_b: int, mean_b: np.ndarray, com_b: np.ndarray) -> None:
        if n_b == 0:
            return
        n_a = self.count
        n = n_a + n_b
        delta = mean_b - self.mean
        self.mean = self.mean + delta * (n_b / n)
        self.comoment = self.comoment + com_b + np.outer(delta, delta) * (n_a * n_b / n)
        self.count = n

    @property
    def covariance(self) -> np.ndarray:
        """Unbiased (n-1 normalized) covariance of everything seen so far."""
        if self.count < 2:
            raise UndefinedInputError("need at least 2 rows for a covariance")
        return self.comoment / (self.count - 1)

    def moments(self) -> MomentSet:
        """Unbiased sample moments of the rows seen, with their standard
        errors."""
        n = self.count
        if n < 2:
            raise UndefinedInputError("need at least 2 shots per arm")
        cov = self.covariance
        values: dict[str, float] = {}
        ses: dict[str, float] = {}
        for name, j, k in _METER_PAIRS[self.mean.size]:
            c = float(cov[j, k])
            values[name] = c
            if j == k:
                ses[name] = c * np.sqrt(2.0 / (n - 1))
            else:
                # Gaussian delta-method error of a sample covariance.
                ses[name] = np.sqrt((cov[j, j] * cov[k, k] + c * c) / (n - 1))
        return MomentSet(n_pulses=self.mean.size, n_shots=n, se=ses, **values)


def meter_moments(state: GaussianState) -> MomentSet:
    """Meter variances and covariances read straight off ``state``'s
    covariance matrix; with :func:`~qndcert.dynamics.propagate` this is the
    matrix route that :func:`predicted_moments` is checked against."""
    meters = state.layout.meter_labels
    values = {name: get_entry(state, meters[j], meters[k])
              for name, j, k in _METER_PAIRS[state.layout.n_pulses]}
    return MomentSet(n_pulses=state.layout.n_pulses, **values)


def predicted_moments(params: ExperimentParams, noise: NoiseModel,
                      initial: GaussianState) -> MomentSet:
    """Closed-form meter moments of the probe arm.

    ``initial`` is the pre-interaction state; its atom-light cross block
    must be zero (independently prepared inputs).  With a_0 the input spin
    variance and a_k = r_A**2 a_{k-1} + N33 the spin variance after k
    pulses, the moments are

        var(Y_k)      = r_L**2 C[y_k, y_k] + kappa**2 a_{k-1} + N55
        cov(Y_j, Y_k) = r_L**2 C[y_j, y_k]
                        + kappa**2 r_A**(k-j) a_{j-1}
                        + kappa r_A**(k-1-j) N35          (j < k)

    where C is the input optical covariance, which may correlate pulses.
    """
    if np.any(initial.cov[:3, 3:]):
        raise UndefinedInputError(
            "closed forms require a zero atom-light cross block in the input"
        )
    layout = initial.layout
    kappa = params.kappa
    j33 = get_entry(initial, "J_z", "J_z")
    meters = layout.meter_labels
    values: dict[str, float] = {}
    # Spin variance entering each pulse.
    a = [j33]
    for _ in range(layout.n_pulses - 1):
        a.append(params.r_a ** 2 * a[-1] + noise.n33)
    for name, j, k in _METER_PAIRS[layout.n_pulses]:
        light = params.r_l ** 2 * get_entry(initial, meters[j], meters[k])
        if j == k:
            values[name] = light + kappa * kappa * a[k] + noise.n55
        else:
            values[name] = (light
                            + kappa * kappa * params.r_a ** (k - j) * a[j]
                            + kappa * params.r_a ** (k - 1 - j) * noise.n35)
    return MomentSet(n_pulses=layout.n_pulses, **values)


def no_atoms_moments(params: ExperimentParams,
                     initial: GaussianState) -> MomentSet:
    """Meter moments of the reference arm (coupling off, r_L = 1, no noise):
    the raw input optical moments, read straight from ``initial``.

    ``params`` is accepted for signature parity with
    :func:`predicted_moments`; the reference arm ignores it by definition.
    """
    del params
    return meter_moments(initial)


def delta_stats(measured: MomentSet, reference: MomentSet,
                r_l: float) -> DeltaStats:
    """Subtract the r_L**2-scaled reference from the measured moments.

    Standard errors combine in quadrature when both inputs carry them:
    se(delta)**2 = se(measured)**2 + r_L**4 se(reference)**2.
    """
    if measured.n_pulses != reference.n_pulses:
        raise DimensionMismatchError(
            f"arms disagree on pulse count: {measured.n_pulses} vs "
            f"{reference.n_pulses}"
        )
    scale = r_l * r_l
    values: dict[str, float] = {}
    ses: dict[str, float] = {}
    for name in _DELTA_FIELDS[measured.n_pulses]:
        moment = name[2:]  # d_var_p -> var_p
        values[name] = getattr(measured, moment) - scale * getattr(reference, moment)
        if measured.se is not None and reference.se is not None:
            ses[name] = float(np.hypot(measured.se[moment],
                                       scale * reference.se[moment]))
    return DeltaStats(n_pulses=measured.n_pulses, se=ses or None, **values)


def sample_moments(records: ShotRecords) -> tuple[MomentSet, MomentSet]:
    """Unbiased sample moments of (probe arm, reference arm)."""
    return (MomentAccumulator.of(records.with_atoms).moments(),
            MomentAccumulator.of(records.no_atoms).moments())


def conditional_variance_from_stats(delta: DeltaStats, var_p: float,
                                    kappa: float, j33: float) -> float:
    """Spin variance after the first readout, from measured statistics only:

        j33 + (d_var_q - d_var_p - d_cov_pq**2 / var_p) / kappa**2

    ``var_p`` is the probe-arm meter variance (not reference-subtracted).
    Needs at least two pulses.
    """
    if delta.n_pulses < 2:
        raise UndefinedInputError(
            "measured conditional variance needs at least two pulses"
        )
    if kappa == 0.0:
        raise UndefinedInputError("kappa must be nonzero")
    if var_p <= 0.0:
        raise UndefinedInputError(f"var_p must be positive, got {var_p}")
    excess = delta.d_var_q - delta.d_var_p - delta.d_cov_pq ** 2 / var_p
    return j33 + excess / (kappa * kappa)


class SqueezingVerdict(NamedTuple):
    squeezed: bool
    margin: float


def squeezing_condition(delta: DeltaStats, var_p: float) -> SqueezingVerdict:
    """Conditional spin squeezing test on measured statistics.

    The readout reduced the spin variance below its input value exactly
    when

        d_cov_pq**2 > var_p * (d_var_q - d_var_p)

    The returned margin is the difference of the two sides; positive
    margin means squeezed.
    """
    if delta.n_pulses < 2:
        raise UndefinedInputError("squeezing test needs at least two pulses")
    if var_p <= 0.0:
        raise UndefinedInputError(f"var_p must be positive, got {var_p}")
    margin = delta.d_cov_pq ** 2 - var_p * (delta.d_var_q - delta.d_var_p)
    return SqueezingVerdict(squeezed=margin > 0.0, margin=float(margin))
