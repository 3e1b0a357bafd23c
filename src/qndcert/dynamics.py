"""One-pulse dynamics: linear map plus additive noise.

Each probe pulse k acts on the stacked state as

    mean -> M_k mean,        cov -> M_k cov M_k' + N_k

where M_k is the identity except for

* the spin block diagonal, scaled by the atomic survival factor r_A,
* pulse k's block diagonal, scaled by the optical transmission r_L,
* the meter coupling  (S_y of pulse k  <-  J_z)  with weight kappa,
* the back-action     (J_y            <-  S_z of pulse k)  with weight
  kappa_b,

and N_k embeds one 6x6 noise matrix over (J_x, J_y, J_z, S_x, S_y, S_z)
onto the spin block and pulse k's block.  Pulses already consumed and
pulses not yet arrived are untouched, so the matrix for pulse 2 is the
pulse-1 matrix conjugated by the permutation that swaps the two pulse
blocks (and likewise for pulse 3).

Where these entries sit depends only on the pulse count and the pulse,
so their flat positions are module tables, built once for every
(pulse count, pulse) pair like :mod:`qndcert.core`'s label tables: a
call copies the identity or zeros and puts its values there, with no
slicing or label lookup of its own.

kappa = g*tau*<S_x> and kappa_b = g*tau*<J_x> are fixed at their
calibration values; neither is rescaled as atoms or photons are lost.

A :class:`NoiseModel` refuses a matrix that is not positive
semidefinite (PSD) within :mod:`qndcert.core`'s ``PSD_RTOL * trace``
(``NotPositiveSemidefiniteError``) when it is built.  A pulse with PSD
noise keeps a PSD state PSD, so :func:`apply_pulse` does not check the
state it derives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .core import (
    _INDEX,
    AXES,
    PULSE_NAMES,
    GaussianState,
    Layout,
    _derived_state,
    _require_psd,
    _require_symmetric,
)
from .errors import LayoutError

__all__ = [
    "ExperimentParams",
    "NoiseModel",
    "interaction_matrix",
    "noise_matrix",
    "apply_pulse",
    "propagate",
]


@dataclass(frozen=True)
class ExperimentParams:
    """Coupling and loss parameters shared by all pulses.

    Attributes
    ----------
    g_tau : float
        Integrated coupling rate g*tau of one pulse.
    mean_sx : float
        Calibration Stokes polarization <S_x> of one pulse.
    mean_jx : float
        Calibration spin polarization <J_x>.
    r_a : float
        Fraction of atoms surviving one pulse, in [0, 1].
    r_l : float
        Optical field transmission of one pulse, in [0, 1].
    """

    g_tau: float
    mean_sx: float
    mean_jx: float
    r_a: float = 1.0
    r_l: float = 1.0

    def __post_init__(self) -> None:
        for name in ("g_tau", "mean_sx", "mean_jx"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("r_a", "r_l"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        _in_range("kappa = g_tau * mean_sx", self.g_tau, "*", self.mean_sx)
        _in_range("kappa_back = g_tau * mean_jx", self.g_tau, "*",
                  self.mean_jx)

    @property
    def kappa(self) -> float:
        """Meter coupling weight g*tau*<S_x>."""
        return self.g_tau * self.mean_sx

    @property
    def kappa_back(self) -> float:
        """Back-action weight g*tau*<J_x>."""
        return self.g_tau * self.mean_jx

    @classmethod
    def from_kappa(cls, kappa: float, mean_sx: float, mean_jx: float,
                   r_a: float = 1.0, r_l: float = 1.0) -> "ExperimentParams":
        """Build from the meter coupling instead of the raw rate."""
        return cls(g_tau=_g_tau(kappa, mean_sx), mean_sx=mean_sx,
                   mean_jx=mean_jx, r_a=r_a, r_l=r_l)


def _in_range(what: str, a: float, op: str, b: float) -> float:
    """``a op b`` (``*`` or ``/``), refused (ValueError naming ``what``)
    where it overflows, or underflows to 0 from nonzero ``a`` and ``b``."""
    a, b = float(a), float(b)
    value = a * b if op == "*" else a / b
    if math.isinf(value) or (value == 0.0 and a != 0.0 and b != 0.0):
        fault = "underflows to 0" if value == 0.0 else "overflows"
        raise ValueError(f"{what} {fault}: {a!r} {op} {b!r}")
    return value


def _g_tau(kappa: float, mean_sx: float) -> float:
    """The g_tau of meter weight ``kappa`` at ``mean_sx``: the one rule of
    ``ExperimentParams.from_kappa`` and a config's ``coupling.kappa``."""
    if mean_sx == 0.0:
        raise ValueError("needs a nonzero light mean_sx to infer g_tau")
    return _in_range("g_tau = kappa / mean_sx", kappa, "/", mean_sx)


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Symmetric 6x6 per-pulse noise over (J_x, J_y, J_z, S_x, S_y, S_z).

    The same matrix is added at every pulse (embedded onto the spin block
    and the active pulse's block).  Entries may correlate the spin-noise
    and meter-noise channels.  The matrix is a covariance, so it is
    checked as a state's is: finite, symmetric, and PSD within
    ``PSD_RTOL * trace`` (``NotPositiveSemidefiniteError`` otherwise).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (6, 6):
            raise ValueError(f"noise matrix must be 6x6, got {matrix.shape}")
        matrix = _require_symmetric(matrix, "noise matrix")
        _require_psd(matrix, "noise matrix")
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def zero(cls) -> "NoiseModel":
        return cls(np.zeros((6, 6)))

    @classmethod
    def from_entries(cls, entries: Mapping[tuple[int, int], float]) -> "NoiseModel":
        """Build from 1-based (row, col) entries; symmetry is implied."""
        matrix = np.zeros((6, 6))
        for (i, j), value in entries.items():
            if not (1 <= i <= 6 and 1 <= j <= 6):
                raise ValueError(f"noise entry index {(i, j)} outside 1..6")
            matrix[i - 1, j - 1] = value
            matrix[j - 1, i - 1] = value
        return cls(matrix)

    # Entries the measurement statistics actually depend on, in 1-based
    # naming: spin noise N33, spin-meter cross noise N35, meter noise N55.
    @property
    def n33(self) -> float:
        return float(self.matrix[2, 2])

    @property
    def n35(self) -> float:
        return float(self.matrix[2, 4])

    @property
    def n55(self) -> float:
        return float(self.matrix[4, 4])

    @property
    def is_zero(self) -> bool:
        return not np.any(self.matrix)


class _PulseTables(NamedTuple):
    """Flat positions, in a (dimension x dimension) matrix, of one
    pulse's entries; the pulse block is ``a`` = 3 pulse .. 3 pulse + 2."""

    identity: np.ndarray  # the identity M starts from
    # M's scaled blocks [:3, :3] and [a, a]: their diagonals, then their
    # off-diagonals; then the coupling entries (S_y of the pulse, J_z)
    # and (J_y, S_z of the pulse)
    interaction: np.ndarray
    # N's 6x6 grid over (J_x, J_y, J_z, a), row-major
    noise: np.ndarray


def _pulse_tables(n_pulses: int, pulse: int) -> _PulseTables:
    dim = 3 * (1 + n_pulses)
    index = _INDEX[n_pulses]
    name = PULSE_NAMES[pulse - 1]
    spin = [index[f"J_{axis}"] for axis in AXES]
    active = [index[f"{name}_{axis}"] for axis in AXES]

    def grid(rows, cols):
        return [row * dim + col for row in rows for col in cols]

    diagonal = [i * dim + i for i in spin + active]
    off_diagonal = [cell for cell in grid(spin, spin) + grid(active, active)
                    if cell not in diagonal]
    coupling = [index[f"{name}_y"] * dim + index["J_z"],
                index["J_y"] * dim + index[f"{name}_z"]]
    return _PulseTables(
        identity=np.eye(dim),
        interaction=np.array(diagonal + off_diagonal + coupling),
        noise=np.array(grid(spin + active, spin + active)))


_TABLES = {(n, pulse): _pulse_tables(n, pulse)
           for n in (1, 2, 3) for pulse in range(1, n + 1)}


def _tables(pulse: int, layout: Layout) -> _PulseTables:
    try:  # an integer pulse only: 1.0 hashes like 1
        return _TABLES[layout.n_pulses, operator.index(pulse)]
    except (KeyError, TypeError):
        raise LayoutError(
            f"pulse must be in 1..{layout.n_pulses}, got {pulse}"
        ) from None


def interaction_matrix(params: ExperimentParams, pulse: int,
                       layout: Layout) -> np.ndarray:
    """Linear one-pulse map M_k for ``pulse`` k (1-based).

    Identity on every inactive pulse block; the spin block is r_A times
    the 3x3 identity, the active block r_L times it (so r = -0.0 puts
    -0.0 off the block diagonal too), and the two coupling entries carry
    kappa (meter) and kappa_b (back-action); negating ``g_tau`` flips
    both, the opposite sign convention of the interaction.
    """
    tables = _tables(pulse, layout)
    r_a, r_l = params.r_a, params.r_l
    m = tables.identity.copy()
    # r times eye(3): r on the diagonal, 0.0 * r (-0.0 at r = -0.0) off it
    m.put(tables.interaction,
          [r_a] * 3 + [r_l] * 3 + [0.0 * r_a] * 6 + [0.0 * r_l] * 6
          + [params.kappa, params.kappa_back])
    return m


def noise_matrix(noise: NoiseModel, pulse: int, layout: Layout) -> np.ndarray:
    """Embed the 6x6 per-pulse noise onto the full layout for ``pulse``."""
    tables = _tables(pulse, layout)
    dim = layout.dimension
    out = np.zeros((dim, dim))
    out.put(tables.noise, noise.matrix)
    return out


def apply_pulse(state: GaussianState, params: ExperimentParams,
                noise: NoiseModel, pulse: int) -> GaussianState:
    """Propagate a state through one pulse: M cov M' + N and M mean."""
    m = interaction_matrix(params, pulse, state.layout)
    n = noise_matrix(noise, pulse, state.layout)
    return _derived_state(state, m @ state.mean, m @ state.cov @ m.T + n)


def propagate(params: ExperimentParams, noise: NoiseModel,
              initial: GaussianState) -> GaussianState:
    """Run ``initial`` through every pulse of its layout, in order.

    This brute-force matrix route is the oracle the closed forms are
    checked against.
    """
    state = initial
    for pulse in range(1, initial.layout.n_pulses + 1):
        state = apply_pulse(state, params, noise, pulse)
    return state
