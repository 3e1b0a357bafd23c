"""Phase-space layout and Gaussian state container.

The phase space stacks one collective-spin block and one Stokes block per
probe pulse, in pulse order:

    (J_x, J_y, J_z, P_x, P_y, P_z, Q_x, Q_y, Q_z, R_x, R_y, R_z)

with pulses labelled P, Q, R.  A layout with ``n_pulses`` pulses has
dimension ``3 * (1 + n_pulses)``.  Its component labels, the label ->
index map and the meter labels are built once per pulse count, as
module tables for n = 1..3, so a label lookup is one dict access.
States carry a mean vector and a symmetric covariance matrix over these
components.  A matrix that enters the program (a state's covariance, a
block, a noise matrix) is checked finite, so that no numpy warning comes
first, then symmetric within ``SYMMETRY_RTOL`` times its largest
magnitude, a rule with no unit, and symmetrized, so every downstream
consumer can rely on exact symmetry.  A state holds one read-only copy
of each: the symmetrized covariance is itself a new array, so it is
frozen as it is, and only the mean is copied.

Positivity is one rule, checked where a covariance enters: the
covariance of ``GaussianState(...)``, of an :class:`AtomicBlock` or
:class:`OpticalBlock` (a loaded config's ``atoms`` and ``light``) and a
:class:`~qndcert.dynamics.NoiseModel`'s matrix are each refused with
:class:`~qndcert.errors.NotPositiveSemidefiniteError` when the least
eigenvalue is below ``-PSD_RTOL`` times its own trace; a block also
refuses a non-finite mean.  A state made from checked parts is not
checked again.  :func:`make_initial_state` places two checked blocks on
the diagonal,
which is positive semidefinite (PSD) exactly when both are, and a
block's trace is at most the state's, so its tolerance is no looser.  A
pulse (``cov -> M cov M' + N``) and a conditioning step (a Schur
complement) take a PSD state to a PSD state, since every noise N is PSD:
every state is PSD within the tolerance.  A derived covariance is
symmetric in exact arithmetic, so it is symmetrized with no absolute
symmetry gap: the rounding of ``M cov M'`` grows with the state's
magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import (
    DimensionMismatchError,
    LayoutError,
    NotPositiveSemidefiniteError,
    NotSymmetricError,
    UndefinedInputError,
)

PULSE_NAMES = ("P", "Q", "R")
AXES = ("x", "y", "z")

SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-9
# Past this magnitude, the sum of an entry and its mirror may overflow.
_HALF_MAX = np.finfo(float).max / 2.0


# Per-pulse-count tables, built once: component labels, label -> index
# and the meter (y-component) labels in measurement order.
_LABELS = {n: tuple(f"{name}_{axis}" for name in ("J",) + PULSE_NAMES[:n]
                    for axis in AXES)
           for n in (1, 2, 3)}
_INDEX = {n: {label: k for k, label in enumerate(labels)}
          for n, labels in _LABELS.items()}
_METER_LABELS = {n: tuple(f"{name}_y" for name in PULSE_NAMES[:n])
                 for n in (1, 2, 3)}


def _as_square(matrix, size: int, what: str) -> np.ndarray:
    out = np.asarray(matrix, dtype=float)
    if out.shape != (size, size):
        raise DimensionMismatchError(
            f"{what} must have shape {(size, size)}, got {out.shape}"
        )
    return out


def _largest_magnitude(matrix: np.ndarray, what: str) -> float:
    """The largest magnitude in ``matrix``, refused where an entry is not
    finite (a NaN propagates through the maximum and fails ``<``)."""
    largest = float(abs(matrix).max())
    if not largest < math.inf:
        raise UndefinedInputError(f"{what} holds a non-finite entry")
    return largest


def _require_symmetric(matrix: np.ndarray, what: str) -> np.ndarray:
    """A new, read-only, exactly symmetric copy of ``matrix``, the check of
    every entering matrix: it refuses a non-finite entry, so that no
    numpy warning comes first, then a departure from symmetry beyond
    ``SYMMETRY_RTOL`` times its largest magnitude."""
    largest = _largest_magnitude(matrix, what)
    # A contiguous transpose: numpy is slower on the strided view.
    transpose = matrix.T.copy()
    near_max = largest > _HALF_MAX
    # m - m' is antisymmetric, and a - b == -(b - a) exactly, so its
    # largest entry is its largest magnitude.  Past _HALF_MAX it may
    # overflow, so the halves are compared: exact at that size.
    if near_max:
        half = float((matrix / 2.0 - transpose / 2.0).max())
        refused, gap = half > SYMMETRY_RTOL * (largest / 2.0), 2 * Decimal(half)
    else:
        gap = float((matrix - transpose).max())
        refused = gap > SYMMETRY_RTOL * largest
    if refused:
        raise NotSymmetricError(f"{what} departs from symmetry by {gap:.3e}")
    return _symmetric_part(matrix, transpose, near_max)


def _symmetric_part(matrix: np.ndarray, transpose: np.ndarray,
                    near_max: bool = False) -> np.ndarray:
    """``(matrix + transpose) / 2``, read-only.  With ``near_max`` (an
    entry past ``_HALF_MAX``), each sum that overflows is taken as
    ``matrix / 2 + transpose / 2`` instead: exact at that size."""
    # (a + a) / 2 == a, so symmetric input is copied bit-identical.
    if near_max:
        with np.errstate(over="ignore"):
            out = (matrix + transpose) / 2.0
        over = np.isinf(out)
        out[over] = matrix[over] / 2.0 + transpose[over] / 2.0
    else:
        out = matrix + transpose
        out /= 2.0
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Layout:
    """Component bookkeeping for a given pulse count (1 to 3)."""

    n_pulses: int

    def __post_init__(self) -> None:
        if type(self.n_pulses) is not int or self.n_pulses not in (1, 2, 3):
            raise LayoutError(f"n_pulses must be 1, 2 or 3, got {self.n_pulses!r}")

    @property
    def dimension(self) -> int:
        return 3 * (1 + self.n_pulses)

    def index(self, label: str) -> int:
        """0-based position of a component label such as ``\"P_y\"``."""
        try:
            return _INDEX[self.n_pulses][label]
        except (KeyError, TypeError):
            raise LayoutError(
                f"unknown component {label!r} for a {self.n_pulses}-pulse layout"
            ) from None

    def block_slice(self, block: int) -> slice:
        """Slice of block ``block``: 0 is the spin block, k >= 1 is pulse k."""
        if not 0 <= block <= self.n_pulses:
            raise LayoutError(
                f"block must be in 0..{self.n_pulses}, got {block}"
            )
        return slice(3 * block, 3 * block + 3)

    @property
    def meter_labels(self) -> tuple[str, ...]:
        """y-component labels of each pulse, in measurement order."""
        return _METER_LABELS[self.n_pulses]

    @property
    def meter_slice(self) -> slice:
        """The meter components as a slice: each pulse block's y."""
        return slice(self.index("P_y"), None, 3)


def _hold_block(block, mean_name: str, cov: np.ndarray, what: str) -> None:
    """Hold ``block``'s covariance ``cov``, named ``what``, and its mean
    field ``mean_name``, once each is checked as entering and finite."""
    cov = _require_symmetric(cov, what)
    mean = float(getattr(block, mean_name))
    if not math.isfinite(mean):
        raise UndefinedInputError(f"{mean_name} must be finite, got {mean}")
    _require_psd(cov, what)
    object.__setattr__(block, mean_name, mean)
    object.__setattr__(block, "cov", cov)


@dataclass(frozen=True, eq=False)
class AtomicBlock:
    """Collective-spin input: mean x-polarization and 3x3 covariance,
    finite, symmetric and PSD, checked when built."""

    mean_jx: float
    cov: np.ndarray

    def __post_init__(self) -> None:
        _hold_block(self, "mean_jx",
                    _as_square(self.cov, 3, "atomic covariance"),
                    "atomic covariance")

    @classmethod
    def coherent(cls, n_atoms: float) -> "AtomicBlock":
        """Fully x-polarized ensemble: <J_x> = N/2, var(J_y) = var(J_z) = N/4.

        The polarization itself is treated as a classical number, so the
        J_x row and column are zero.
        """
        n_atoms = float(n_atoms)
        if n_atoms < 0:
            raise ValueError(f"n_atoms must be nonnegative, got {n_atoms}")
        return cls(mean_jx=n_atoms / 2.0,
                   cov=np.diag([0.0, n_atoms / 4.0, n_atoms / 4.0]))

    @property
    def css_variance(self) -> float:
        """Spin variance of a coherent (projection-noise limited) state with
        this polarization: |<J_x>| / 2."""
        return abs(self.mean_jx) / 2.0


@dataclass(frozen=True, eq=False)
class OpticalBlock:
    """Stokes input for all pulses: mean x-polarization (shared) and the
    3n x 3n covariance, which may correlate different pulses; checked as
    an :class:`AtomicBlock` is."""

    mean_sx: float
    cov: np.ndarray

    def __post_init__(self) -> None:
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 3 != 0 \
                or not 3 <= cov.shape[0] <= 9:
            raise DimensionMismatchError(
                f"optical covariance must be 3n x 3n with n in 1..3, got {cov.shape}"
            )
        _hold_block(self, "mean_sx", cov, "optical covariance")

    @property
    def n_pulses(self) -> int:
        return self.cov.shape[0] // 3

    @classmethod
    def coherent(cls, n_photons: float, n_pulses: int) -> "OpticalBlock":
        """Independent x-polarized coherent pulses of N photons each:
        <S_x> = N/2 and var(S_y) = var(S_z) = N/4 per pulse."""
        n_photons = float(n_photons)
        if n_photons < 0:
            raise ValueError(f"n_photons must be nonnegative, got {n_photons}")
        Layout(n_pulses)  # refuses a bad pulse count
        one = np.diag([0.0, n_photons / 4.0, n_photons / 4.0])
        cov = np.zeros((3 * n_pulses, 3 * n_pulses))
        for k in range(n_pulses):
            cov[3 * k:3 * k + 3, 3 * k:3 * k + 3] = one
        return cls(mean_sx=n_photons / 2.0, cov=cov)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector and symmetric covariance over a :class:`Layout`.

    The covariance is symmetrized on construction and both arrays are
    frozen copies, so states can be shared without defensive copies.  A
    covariance that is not PSD within ``PSD_RTOL * trace`` is refused.
    """

    layout: Layout
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        dim = self.layout.dimension
        mean = np.array(self.mean, dtype=float)  # a copy: never the caller's
        if mean.shape != (dim,):
            raise DimensionMismatchError(
                f"mean must have shape ({dim},), got {mean.shape}"
            )
        _require_finite_mean(mean)
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        cov = _require_symmetric(_as_square(self.cov, dim, "covariance"),
                                 "covariance")
        _require_psd(cov, "covariance")
        object.__setattr__(self, "cov", cov)


def _require_finite_mean(mean: np.ndarray) -> None:
    # a NaN fails every comparison, so the PSD check would let it by
    if not math.isfinite(sum(mean.tolist())) and \
            not np.isfinite(mean).all():  # not a sum that overflows
        raise UndefinedInputError("mean holds a non-finite entry")


def _derived_state(parent: GaussianState, mean: np.ndarray,
                   cov: np.ndarray) -> GaussianState:
    """The state that a pulse (``M cov M' + N``, N PSD) or a Schur
    complement takes ``parent`` to, holding ``mean`` and the symmetric
    part of ``cov``, taken as ``_require_symmetric`` takes it, so that an
    entry past ``_HALF_MAX`` does not overflow.  Both maps keep a PSD
    state PSD, and every state is PSD, so no positivity check runs.
    ``cov`` is symmetric in exact arithmetic, so no absolute symmetry gap
    is asked of it; ``mean`` and ``cov`` are fresh arrays, or the
    parent's frozen ones, and are taken over without a copy."""
    _require_finite_mean(mean)
    near_max = _largest_magnitude(cov, "covariance") > _HALF_MAX
    # A contiguous transpose, as in _require_symmetric: the same bits.
    return _unchecked_state(parent.layout, mean,
                            _symmetric_part(cov, cov.T.copy(), near_max))


def _unchecked_state(layout: Layout, mean: np.ndarray,
                     cov: np.ndarray) -> GaussianState:
    """A state holding ``mean`` and ``cov`` as they are, frozen, with no
    check: each caller has made sure that they pass every check of
    ``GaussianState``, and that no one else holds them writable."""
    mean.setflags(write=False)
    cov.setflags(write=False)
    state = object.__new__(GaussianState)
    state.__dict__.update(layout=layout, mean=mean, cov=cov)
    return state


def _require_psd(cov: np.ndarray, what: str) -> None:
    """Refuse ``cov``, named ``what``, unless it is PSD within
    ``PSD_RTOL * trace``; where the trace overflows, the tolerance sums
    the diagonal scaled by ``PSD_RTOL`` instead."""
    min_eig = float(np.linalg.eigvalsh(cov)[0])
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf - inf
        tol = PSD_RTOL * max(float(cov.trace()), 0.0)
    if not math.isfinite(tol):
        tol = max(float((cov.diagonal() * PSD_RTOL).sum()), 0.0)
    if min_eig < -tol:
        raise NotPositiveSemidefiniteError(
            f"{what} has eigenvalue {min_eig:.6e} below tolerance {-tol:.6e}")


def make_initial_state(atomic: AtomicBlock, optical: OpticalBlock,
                       layout: Layout) -> GaussianState:
    """Assemble the pre-interaction state from its spin and light inputs.

    The two blocks are placed on the diagonal with no cross-correlation:
    atoms and the incoming light are prepared independently.  Cross-pulse
    correlations inside the optical block (classical technical noise shared
    between pulses) are carried through untouched.  Each block was checked
    where it was built, and the state is PSD exactly when both blocks are,
    so it is not checked again: it holds the bits ``GaussianState`` would.

    Parameters
    ----------
    atomic, optical : input blocks; the optical block must cover exactly
        ``layout.n_pulses`` pulses.
    layout : target component layout.
    """
    if optical.n_pulses != layout.n_pulses:
        raise DimensionMismatchError(
            f"optical block covers {optical.n_pulses} pulses, "
            f"layout expects {layout.n_pulses}"
        )
    dim = layout.dimension
    mean = np.zeros(dim)
    mean[0] = atomic.mean_jx  # J_x
    mean[3::3] = optical.mean_sx  # each pulse's S_x
    cov = np.zeros((dim, dim))
    cov[:3, :3] = atomic.cov
    cov[3:, 3:] = optical.cov
    return _unchecked_state(layout, mean, cov)


def get_entry(state: GaussianState, row: str, col: str) -> float:
    """Covariance entry addressed by component labels."""
    i = state.layout.index(row)
    j = state.layout.index(col)
    return float(state.cov[i, j])
