"""Measurable meter statistics: predictions, sample estimates, deltas.

Everything the certification consumes is expressed through second moments
of the pulse meters (P_y, Q_y, R_y) in two arms:

* the probe arm, measured with atoms present, and
* a no-atoms reference arm (coupling off, lossless, noiseless) that
  calibrates the raw optical noise.

An arm's moments are one read-only n x n meter covariance ``cov`` (n
pulses, meters in measurement order), held by a :class:`MomentSet`; each
moment name is a read-only view of entry (j, k), j <= k, as listed in
``_ENTRIES``, and reads None where the pulse count has no such entry.

Every set carries ``moment_cov``, the covariance Sigma of its moments'
errors: Isserlis' for a sampled set (n Gaussian shots, Cov(S_ij, S_kl) =
(S_ik S_jl + S_il S_jk) / (n - 1)), and 0 for an exact one.  Sigma is
the one holder of the standard errors: ``se`` reads the root of its
diagonal, by reported name, into a new dict at each read.  A set given
``se`` by keyword has Sigma = diag(se**2), 0 for a name not given, so 0
without ``se``; an ``se`` whose square Sigma cannot hold is refused.

Sample moments are accumulated in chunks of ``CHUNK_SHOTS`` (16384)
shots, the one grain of the whole program: the sampler draws, the writer
formats and the reader parses arms in these chunks, and
:meth:`MomentAccumulator.update` folds in any rows it is given
``CHUNK_SHOTS`` at a time, so every route to an arm's moments -- the
sampler's chunks as drawn, the sidecar's as written, a CSV's as parsed,
or one whole array, in any memory layout -- gives the same bits.  A
pipeline holds one chunk per arm, never a whole arm, so memory does not
grow with the shot count.
:meth:`MomentAccumulator.moments` is the one rule, on every route, for
whether an arm's state gives moments and a Sigma in range.

Delta statistics subtract the reference, scaled by the optical
transmission squared,

    delta.cov = measured.cov - r_L**2 * reference.cov

which cancels the input light noise, including classical correlations
between pulses, and leaves only what the atoms imprinted.  A
:class:`DeltaStats` names its entries ``d_var_p`` ... ``d_cov_qr``; it
carries ``d_cov_qr`` but leaves it out of ``entries()``, ``se`` and
every report.  The arms are independent: the deltas' Sigma is
Sigma_with + r_L**4 Sigma_no, plus var_p's row from Sigma_with, and
:func:`_propagate_se` carries it into every other standard error.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import FrozenInstanceError
from typing import Callable, TypeVar

import numpy as np

from .config import check_r_l
from .core import GaussianState, Layout, get_entry
from .dynamics import ExperimentParams, NoiseModel
from .errors import ConfigError, DimensionMismatchError, UndefinedInputError

__all__ = [
    "CHUNK_SHOTS",
    "MomentSet",
    "DeltaStats",
    "ARM_ROLES",
    "map_arms",
    "MomentAccumulator",
    "meter_moments",
    "predicted_moments",
    "no_atoms_moments",
    "delta_stats",
]

# Moment name -> its meter covariance entry (j, k), j <= k, in report order.
_ENTRIES = {"var_p": (0, 0), "var_q": (1, 1), "var_r": (2, 2),
            "cov_pq": (0, 1), "cov_pr": (0, 2), "cov_qr": (1, 2)}


class _MeterCovariance:
    """A read-only ``cov`` with ``n_pulses``, ``n_shots`` and ``moment_cov``
    (Sigma over every entry, then ``_also_in_sigma``; ``se`` reads its
    diagonal) beside it, and one attribute per moment name.  Leaving
    out an unreported name puts NaN in ``cov``; it reads None."""

    __slots__ = ("cov", "n_pulses", "n_shots", "moment_cov")
    _unreported: tuple[str, ...] = ()
    _also_in_sigma: tuple[str, ...] = ()
    _nonnegative = False  # refuse a negative variance

    def __init_subclass__(cls) -> None:
        # The subclass's slots are its moment names, in _ENTRIES order.
        cls._entries = dict(zip(cls.__slots__, _ENTRIES.values()))
        cls._setters = tuple(getattr(cls, name).__set__ for name
                             in _MeterCovariance.__slots__ + cls.__slots__)
        # Reported names per pulse count, in order; the keys serve as a set.
        cls._reported = {n: dict.fromkeys(
            name for name, (_, k) in cls._entries.items()
            if k < n and name not in cls._unreported) for n in (1, 2, 3)}
        cls._sigma_rows = {n: {name: row for row, name in enumerate(
            [*(name for name, (_, k) in cls._entries.items() if k < n),
             *cls._also_in_sigma])} for n in (1, 2, 3)}

    def __new__(cls, n_pulses: int, *, n_shots: int | None = None,
                se: dict[str, float] = {}, **values: float | None):
        Layout(n_pulses)  # refuses a bad pulse count (a ValueError)
        rows = [[np.nan] * n_pulses for _ in range(n_pulses)]
        for name, (j, k) in cls._entries.items():
            value = values.pop(name, None)
            if value is None:
                if k < n_pulses and name not in cls._unreported:
                    raise ValueError(f"{name} required for n_pulses={n_pulses}")
            elif k < n_pulses:
                value = float(value)
                if not -math.inf < value < math.inf:
                    raise ValueError(f"{name} must be finite, got {value}")
                rows[j][k] = rows[k][j] = value
            else:
                raise ValueError(f"{name} not defined for n_pulses={n_pulses}")
        if values:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword "
                            f"argument {min(values)!r}")
        if not se.keys() <= cls._reported[n_pulses].keys():
            extra = sorted(se.keys() - cls._reported[n_pulses].keys())
            raise ValueError(f"standard errors for absent moments: {extra}")
        for name, value in se.items():
            if not 0.0 <= value < math.inf:
                raise ValueError(f"standard error of {name} must be finite "
                                 f"and nonnegative, got {value}")
            sd = float(value)
            if math.sqrt(sd * sd) != sd:  # Sigma = diag(se**2) cannot hold it
                raise ValueError(f"standard error of {name} = {value:g} has "
                                 f"a square out of floating-point range")
        moment_cov = np.diag(np.square(np.array(
            [se.get(name, 0.0) for name in cls._sigma_rows[n_pulses]], float)))
        return cls._of(np.array(rows), n_shots, moment_cov)

    @classmethod
    def _exact(cls, cov: np.ndarray):
        """Wrap and freeze the new array ``cov``, exact: Sigma = 0."""
        m = len(cls._sigma_rows[len(cov)])
        return cls._of(cov, None, np.zeros((m, m)))

    @classmethod
    def _of(cls, cov: np.ndarray, n_shots: int | None,
            moment_cov: np.ndarray):
        """Wrap and freeze the new arrays ``cov`` and ``moment_cov``."""
        rows = cov.tolist()
        n = len(rows)
        cov.setflags(write=False)
        moment_cov.setflags(write=False)
        fields = [cov, n, n_shots, moment_cov]
        for name, (j, k) in cls._entries.items():
            value = rows[j][k] if k < n else None
            if value != value and name in cls._unreported:
                value = None  # left out: NaN in cov
            elif cls._nonnegative and j == k < n and value < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
            fields.append(value)
        self = object.__new__(cls)
        for set_field, value in zip(cls._setters, fields):
            set_field(self, value)
        return self

    def __setattr__(self, name: str, value=None) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self):
        return self._of, (np.array(self.cov), self.n_shots, self.moment_cov)

    def __repr__(self) -> str:
        fields = f"{self.entries()}, n_shots={self.n_shots}, se={self.se}"
        return f"{type(self).__name__}({fields})"

    def entries(self) -> dict[str, float]:
        """Reported moments by name, in report order."""
        return {name: getattr(self, name)
                for name in self._reported[self.n_pulses]}

    @property
    def se(self) -> dict[str, float]:
        """Standard errors by reported name (Sigma's first rows, in order),
        the root of Sigma's diagonal, as a new dict; all 0.0 when exact."""
        return dict(zip(self._reported[self.n_pulses],
                        np.sqrt(self.moment_cov.diagonal()).tolist()))

    def _sigma(self, names) -> list[list[float]]:
        """Sigma over ``names``, as new rows; a name it lacks has no error."""
        full = self.moment_cov.tolist()
        rows = [self._sigma_rows[self.n_pulses].get(name) for name in names]
        return [[0.0 if i is None or j is None else full[i][j] for j in rows]
                for i in rows]


class MomentSet(_MeterCovariance):
    """Second moments of the meters of one arm; a sample estimate sets
    ``n_shots`` and ``moment_cov``, an exact one has None and Sigma 0."""

    __slots__ = tuple(_ENTRIES)
    _nonnegative = True


class DeltaStats(_MeterCovariance):
    """Reference-subtracted moments; see the module docstring."""

    __slots__ = tuple("d_" + name for name in _ENTRIES)
    _unreported = ("d_cov_qr",)
    _also_in_sigma = ("var_p",)  # the probe arm's, which the figures read


# The two arms of a record set, in the order every result lists them.
ARM_ROLES = ("with_atoms", "no_atoms")

# Shots per chunk: the one grain of sampling, writing, parsing and moment
# accumulation (see the module docstring).
CHUNK_SHOTS = 16384


_T = TypeVar("_T")


def map_arms(fn: Callable[[str], _T]) -> tuple[_T, _T]:
    """``fn(role)`` for each of ``ARM_ROLES``, the arms side by side: the
    no-atoms call on a worker thread, the with-atoms call on the calling
    thread.  Its callers: ``simulate_moments`` samples the arms,
    ``write_arms`` writes them and ``read_records`` hashes their CSVs.

    Returns the results in role order.  Both calls finish before this
    returns or raises; if either raised, the first failure in role order
    is re-raised.  The worker starts with numpy's default error state,
    not the caller's.  One thread is added, not two: each thread that
    allocates gets its own malloc arena, whose high-water mark stays
    resident.  A plain thread, not an executor, keeps
    ``concurrent.futures`` and the ``logging`` it imports out of start-up.
    """
    no_atoms: dict[str, object] = {}

    def run() -> None:
        try:
            no_atoms["result"] = fn(ARM_ROLES[1])
        except BaseException as exc:  # handed to the calling thread
            no_atoms["error"] = exc

    worker = threading.Thread(target=run, name="qndcert-no-atoms")
    worker.start()
    try:
        with_atoms = fn(ARM_ROLES[0])
    finally:
        worker.join()
    if "error" in no_atoms:
        raise no_atoms["error"]
    return with_atoms, no_atoms["result"]


class MomentAccumulator:
    """Streaming mean and covariance over rows.

    Keeps (count, mean, centered comoment), folded from chunks with the
    standard pairwise update or read from a sidecar summary; either way,
    :meth:`moments` is the one rule for the arm's moments.
    """

    def __init__(self, n_cols: int):
        self.count = 0
        self.mean = np.zeros(n_cols)
        self.comoment = np.zeros((n_cols, n_cols))

    def update(self, rows: np.ndarray) -> None:
        """Fold in ``rows``, ``CHUNK_SHOTS`` at a time: the grain every
        arm is streamed in, so a whole array gives the bits its chunks
        give.  A sum that overflows does so without a warning:
        :meth:`moments` refuses it.

        Each chunk is copied once as a contiguous (k, count) array, one
        row per column of ``rows``.  Across an (n, k) chunk numpy runs its
        k-wide inner loop n times; along a contiguous row it runs once, so
        the mean, the centring (in place, on the copy) and the comoment
        ``centered @ centered.T`` each take one pass.  The copy also makes
        the bits depend on the values alone, not on how ``rows`` is laid
        out.  The chunk mean is numpy's pairwise row sum over the count,
        whose rounding error grows with log n rather than n."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.mean.size:
            raise DimensionMismatchError(
                f"expected (n, {self.mean.size}) rows, got {rows.shape}"
            )
        with np.errstate(all="ignore"):
            for start in range(0, rows.shape[0], CHUNK_SHOTS):
                centered = rows[start:start + CHUNK_SHOTS].T.copy()
                n_a, n_b = self.count, centered.shape[1]
                n = n_a + n_b
                mean_b = centered.sum(axis=1) / n_b
                centered -= mean_b[:, None]
                delta = mean_b - self.mean
                self.mean = self.mean + delta * (n_b / n)
                self.comoment = (self.comoment + centered @ centered.T
                                 + np.outer(delta, delta) * (n_a * n_b / n))
                self.count = n

    def moments(self) -> MomentSet:
        """Unbiased (n-1 normalized) sample moments of the rows seen, with
        their error covariance Sigma (Isserlis, see the module docstring).
        Refused (``UndefinedInputError``), in order: fewer than 2 shots, a
        mean or comoment not finite, a comoment not symmetric or with a
        negative diagonal, a Sigma that overflows or underflows to a zero
        error for a nonzero moment.  No numpy warning escapes."""
        n, mean, comoment = self.count, self.mean, self.comoment
        if n < 2:
            raise UndefinedInputError("need at least 2 shots per arm")
        if not (np.isfinite(mean).all() and np.isfinite(comoment).all()):
            raise UndefinedInputError(
                "the mean or comoment of its values overflows")
        if (comoment != comoment.T).any() or (comoment.diagonal() < 0.0).any():
            raise UndefinedInputError("arm comoment must be symmetric with "
                                      "a nonnegative diagonal")
        cov = comoment / (n - 1)
        j, k = np.array([_ENTRIES[name] for name
                         in MomentSet._reported[mean.size]]).T
        with np.errstate(all="ignore"):  # refused below
            moment_cov = (cov[np.ix_(j, j)] * cov[np.ix_(k, k)]
                          + cov[np.ix_(j, k)] * cov[np.ix_(k, j)]) / (n - 1)
        if not np.isfinite(moment_cov).all():
            raise UndefinedInputError(
                "the error covariance of its moments overflows")
        if ((moment_cov.diagonal() == 0.0) & (cov[j, k] != 0.0)).any():
            raise UndefinedInputError(
                "the error covariance of its moments underflows")
        return MomentSet._of(cov, n, moment_cov)


def meter_moments(state: GaussianState) -> MomentSet:
    """Meter variances and covariances read straight off ``state``'s
    covariance matrix; with :func:`~qndcert.dynamics.propagate` this is the
    matrix route that :func:`predicted_moments` is checked against."""
    meters = state.layout.meter_slice
    return MomentSet._exact(state.cov[meters, meters].copy())


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
    n = initial.layout.n_pulses
    kappa, r_a, r_l = params.kappa, params.r_a, params.r_l
    n33, n35, n55 = noise.n33, noise.n35, noise.n55
    j33 = get_entry(initial, "J_z", "J_z")
    meters = initial.layout.meter_slice
    rows = initial.cov[meters, meters].tolist()  # the input light, C
    # Spin variance entering each pulse.
    a = [j33]
    for _ in range(n - 1):
        a.append(r_a ** 2 * a[-1] + n33)
    for j in range(n):
        for k in range(j, n):
            light = r_l ** 2 * rows[j][k]
            if j == k:
                rows[j][k] = light + kappa * kappa * a[k] + n55
            else:
                rows[j][k] = rows[k][j] = (
                    light + kappa * kappa * r_a ** (k - j) * a[j]
                    + kappa * r_a ** (k - 1 - j) * n35)
    return MomentSet._exact(np.array(rows))


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

    ``r_l`` follows the rule of ``--r-l`` (:func:`~qndcert.config.check_r_l`).
    The deltas get Sigma_with + r_L**4 Sigma_no (the arms independent,
    an exact arm's 0), and var_p's row Sigma_with's.
    """
    try:
        r_l = check_r_l(r_l)
    except ConfigError as exc:
        raise UndefinedInputError(str(exc)) from None
    n = measured.n_pulses
    if n != reference.n_pulses:
        raise DimensionMismatchError(
            f"arms disagree on pulse count: {n} vs {reference.n_pulses}")
    scale = r_l * r_l
    with_atoms = measured.moment_cov
    m = len(with_atoms)  # the deltas, in MomentSet's order; then var_p
    moment_cov = np.empty((m + 1, m + 1))
    moment_cov[:m, :m] = with_atoms + scale * scale * reference.moment_cov
    moment_cov[m, :m] = moment_cov[:m, m] = with_atoms[0]
    moment_cov[m, m] = with_atoms[0, 0]
    return DeltaStats._of(measured.cov - scale * reference.cov, None,
                          moment_cov)


def _require_finite_squares(values: dict[str, float]) -> None:
    """Refuse a value, by name, whose square overflows: Python's ``x ** 2``
    raises there, where ``x * x`` gives inf.  NaN passes."""
    for name, value in values.items():
        if math.isinf(value * value):
            raise UndefinedInputError(
                f"{name} = {value:g} is out of range: its square overflows")


def _calibration_k2(kappa: float, j33: float,
                    j0: float | None = None) -> float:
    """``kappa**2``, by the one calibration rule, which its two callers,
    ``certify`` and ``invert_three_pulse``, apply first.  In order, it
    refuses: ``j33`` negative, ``j0`` (if given) not positive, ``kappa``
    zero, any of them not finite, and ``kappa**2`` or its products with
    ``j33`` and ``j0`` overflowing, or underflowing to 0 from nonzero
    factors.  Valid input takes the first comparisons."""
    kappa, j33 = float(kappa), float(j33)  # Python floats overflow quietly
    k2 = kappa * kappa
    if 0.0 < k2 < math.inf and 0.0 < k2 * j33 < math.inf and (
            j0 is None or 0.0 < k2 * float(j0) < math.inf):
        return k2  # the common case, in a few comparisons
    j0 = None if j0 is None else float(j0)
    if j33 < 0.0:
        raise UndefinedInputError(f"j33 must be nonnegative, got {j33}")
    if j0 is not None and j0 <= 0.0:
        raise UndefinedInputError(f"j0 must be positive, got {j0}")
    if kappa == 0.0:
        raise UndefinedInputError("kappa must be nonzero")
    for name, value in (("kappa", kappa), ("j33", j33), ("j0", j0)):
        if value is not None and not math.isfinite(value):
            raise UndefinedInputError(f"{name} must be finite, got {value}")
    for name, value, factor in (("kappa**2", k2, kappa),
                                ("kappa**2 * j33", k2 * j33, j33),
                                ("kappa**2 * j0", k2 * (j0 or 0.0), j0)):
        if math.isinf(value) or value == 0.0 and factor:
            raise UndefinedInputError(
                f"{name} = {value:g} {'overflows' if value else 'underflows'}"
                f" (kappa = {kappa:g}, j33 = {j33:g}"
                + ("" if j0 is None else f", j0 = {j0:g}") + ")")
    return k2


def _propagate_se(fn, values, sigma, keys) -> dict[str, float]:
    """Standard errors sqrt(diag(J Sigma J^T)) of the figures ``keys`` of
    the dict ``fn(values)``, for the input covariance ``sigma`` (rows).
    J is by complex step (Squire and Trapp, SIAM Rev. 40, 110 (1998)):
    ``fn`` is called once per input x of nonzero variance, at x + ih, and
    each slope is Im fn / h, good to rounding as nothing is subtracted, if
    only +, -, * and / act on the inputs (a branch may read real parts).
    h = 2**-60 |x|, or 2**-60 times x's standard error where that is 0:
    never absolute, so inputs and Sigma scaled by 2**s give the same bits.
    Where Python raises (a zero denominator, an overflow), numpy scalars
    give inf or NaN quietly: a caller names an error that is not finite."""
    try:
        return _jacobian_se(fn, [float(x) for x in values], sigma, keys)
    except ArithmeticError:
        with np.errstate(all="ignore"):
            return _jacobian_se(fn, [np.float64(x) for x in values], sigma,
                                keys)


def _jacobian_se(fn, values, sigma, keys) -> dict[str, float]:
    inputs = [i for i, row in enumerate(sigma) if row[i] != 0.0]
    slopes = {}  # by input, the slope of each key
    for i in inputs:
        point = values.copy()
        h = 2.0 ** -60 * abs(point[i]) or 2.0 ** -60 * math.sqrt(sigma[i][i])
        point[i] += h * 1j
        out = fn(point)
        slopes[i] = [out[key].imag / h for key in keys]
    sds = [(slopes[i], math.sqrt(sigma[i][i])) for i in inputs]
    pairs = [(slopes[i], slopes[j], 2.0 * sigma[i][j]) for i, j
             in itertools.combinations(inputs, 2) if sigma[i][j] != 0.0]
    se = {}
    for k, key in enumerate(keys):
        total = 0.0  # the diagonal in input order, then each pair twice
        for slope, sd in sds:
            total += (slope[k] * sd) ** 2
        for slope_i, slope_j, twice in pairs:
            total += slope_i[k] * twice * slope_j[k]
        se[key] = math.sqrt(max(total, 0.0))
    return se
