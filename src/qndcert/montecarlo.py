"""Shot-level Monte Carlo of the pulsed measurement.

Each shot draws the initial phase-space vector from the input Gaussian
state, then applies the per-pulse linear map and adds a fresh noise draw
per pulse; the recorded outcomes are the meter components (P_y, Q_y,
R_y).  The no-atoms reference arm runs the identical discipline with the
coupling off, r_A = r_L = 1 and no added noise, so it samples the raw
input light.

The outcomes are linear in the draws, so the pulse maps are folded
once per arm into a composite readout: with E the meter-row selector
and R_p = E M_n ... M_{p+1} (R_n = E), the meters are R_0 mean, plus
the initial draws through R_0 times the initial-state factor, plus
pulse p's noise draws through the columns of R_p on the spin block and
pulse p's block times the noise factor.  Every chunk then costs one
matrix product per noise source onto the meter columns.  The readout is
built from ``interaction_matrix`` alone, never from the closed-form
moments, so the sampler stays an independent check of them.

Both factors come from an eigendecomposition, whose negative
eigenvalues clip to 0.  The sampler has no positivity tolerance of its
own: every state is PSD within :mod:`qndcert.core`'s ``PSD_RTOL *
trace``, and noise that a :class:`~qndcert.dynamics.NoiseModel` found
indefinite by the same rule is refused.

Generation is chunked: :func:`arm_chunks` yields an arm's outcomes
``CHUNK_SHOTS`` (16384) shots at a time, and every chunk gets its own
random substream keyed by (arm, chunk index) off one master seed.  Each
chunk draws the initial-state variates and then each pulse's noise
variates, in that order.  Chunks are therefore independent and
reproducible in isolation, results are bit-identical however the work
is scheduled, and the two arms never share randomness.

Each arm is one chunk pipeline: a consumer takes a chunk, accumulates it
(``MomentAccumulator.update``), and for records formats, hashes and
writes it (:func:`qndcert.recordio.write_arms`) before it asks for the
next.  :func:`simulate_moments` and :func:`empirical_check` run the two
pipelines side by side, the with-atoms arm on the calling thread and the
no-atoms arm on one worker thread (:func:`qndcert.statistics.map_arms`);
numpy releases the GIL in the draws and products, so the arms overlap.
There is no thread-count option: the two arms are the natural grain,
and every extra thread holds its own malloc arena.

Memory rule: a pipeline holds one chunk, never an arm, so its memory
does not grow with the shot count.  Each chunk is a view into one buffer
per arm that the next chunk overwrites, and a chunk's variates are drawn
``_DRAW_ROWS`` (4096) rows at a time; row-major draws consume a
substream in the same order however they are split, so no draw changes.
The product of a block of draws with its gain can change in the last
bits with the block's row count: 4096 gives the records of 1024, on
every configuration checked, where 8192 moved a two-pulse record.  At
three pulses the buffer is 0.4 MB and the draws at most
0.5 MB per arm, below what formatting a piece of records takes
(:mod:`qndcert.recordio`); four draws per chunk and noise source keep
the numpy calls that the two arms' threads interleave few.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .core import GaussianState, _psd_violation
from .dynamics import ExperimentParams, NoiseModel, interaction_matrix
from .errors import SamplerUnsupportedError
from .statistics import (
    CHUNK_SHOTS,
    MomentAccumulator,
    MomentSet,
    map_arms,
    no_atoms_moments,
    predicted_moments,
)

__all__ = [
    "arm_chunks",
    "simulate_moments",
    "params_hash",
    "CheckRow",
    "EmpiricalCheck",
    "empirical_check",
]

# Rows of variates drawn at a time within a chunk; see the module
# docstring's memory rule.
_DRAW_ROWS = 4096

_ARM_IDS = {True: 0, False: 1}

# The empirical check's bound: every sampled moment within this many
# standard errors of its closed form.
Z_MAX = 5.0


def _psd_factor(matrix: np.ndarray) -> np.ndarray:
    """Factor A with A @ A.T == matrix, dropping null directions, for a
    matrix that is PSD within ``PSD_RTOL * trace``: its negative
    eigenvalues are rounding, and clip to 0."""
    eigvals, eigvecs = np.linalg.eigh(matrix)
    eigvals = np.clip(eigvals, 0.0, None)
    keep = eigvals > 0.0
    return eigvecs[:, keep] * np.sqrt(eigvals[keep])


def _reference_variant(params: ExperimentParams) -> ExperimentParams:
    # Coupling off, lossless: the pulse maps collapse to the identity.
    return replace(params, g_tau=0.0, r_a=1.0, r_l=1.0)


def arm_chunks(params: ExperimentParams, noise: NoiseModel,
               initial: GaussianState, n_shots: int, seed: int,
               with_atoms: bool = True) -> Iterator[np.ndarray]:
    """Meter outcomes of one arm, ``CHUNK_SHOTS`` shots at a time: an
    iterator of (count, n_pulses) arrays, the last possibly shorter.

    Each chunk is a view into one buffer that the next chunk overwrites,
    so a consumer must be done with it before asking for the next.
    ``with_atoms=False`` runs the no-atoms reference variant (coupling
    off, r_A = r_L = 1, zero noise) on its own substream family.  The
    model is checked and the readout built here, before any chunk: noise
    that is not PSD is refused (``SamplerUnsupportedError``).
    """
    if n_shots < 1:
        raise ValueError(f"n_shots must be positive, got {n_shots}")
    layout = initial.layout
    if not with_atoms:
        params = _reference_variant(params)
        noise = NoiseModel.zero()

    pulses = range(1, layout.n_pulses + 1)
    maps = [interaction_matrix(params, pulse, layout) for pulse in pulses]
    # readouts[p] = R_p = E M_n ... M_{p+1}: the state just after pulse p
    # (p = 0: the input) onto the meter outcomes.
    readouts = [np.eye(layout.dimension)[layout.meter_slice]]
    for m in reversed(maps):
        readouts.append(readouts[-1] @ m)
    readouts.reverse()
    offset = readouts[0] @ initial.mean
    # (variates, n_pulses) gains, in the order each chunk draws them.
    gains = [(readouts[0] @ _psd_factor(initial.cov)).T]
    if not noise.is_zero:
        if not noise._psd:
            raise SamplerUnsupportedError(
                f"{_psd_violation(noise.matrix, 'noise matrix')}; "
                "cannot be sampled")
        noise_factor = _psd_factor(noise.matrix)
        for pulse in pulses:
            block = layout.block_slice(pulse)
            rows = np.r_[0:3, block.start:block.stop]
            gains.append((readouts[pulse][:, rows] @ noise_factor).T)
    return _draw_chunks(offset, gains, n_shots, seed,
                        _ARM_IDS[bool(with_atoms)])


def _draw_chunks(offset: np.ndarray, gains: list[np.ndarray], n_shots: int,
                 seed: int, arm: int) -> Iterator[np.ndarray]:
    buffer = np.empty((min(n_shots, CHUNK_SHOTS), offset.size))
    for chunk, start in enumerate(range(0, n_shots, CHUNK_SHOTS)):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(arm, chunk))
        )
        meters = buffer[:min(CHUNK_SHOTS, n_shots - start)]
        meters[:] = offset
        for gain in gains:
            for row in range(0, len(meters), _DRAW_ROWS):
                part = meters[row:row + _DRAW_ROWS]
                part += rng.standard_normal((len(part), gain.shape[0])) @ gain
        yield meters


def params_hash(params: ExperimentParams, noise: NoiseModel,
                initial: GaussianState) -> str:
    """Short stable digest of the model a record set was drawn from."""
    h = hashlib.sha256()
    fields = np.array([
        initial.layout.n_pulses, params.g_tau, params.mean_sx,
        params.mean_jx, params.r_a, params.r_l,
    ])
    for part in (fields, noise.matrix, initial.mean, initial.cov):
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()[:16]


def simulate_moments(params: ExperimentParams, noise: NoiseModel,
                     initial: GaussianState, n_shots: int,
                     seed: int) -> tuple[MomentSet, MomentSet]:
    """Sampled moments of (probe arm, reference arm): each arm's chunks
    are accumulated as they are drawn, on its own thread, so no arm is
    held whole.  At the same seed these are the bits that the sidecar of
    ``qndc simulate`` stores and that parsing its CSVs gives."""
    def sampled(role: str) -> MomentSet:
        acc = MomentAccumulator(initial.layout.n_pulses)
        for chunk in arm_chunks(params, noise, initial, n_shots, seed,
                                with_atoms=role == "with_atoms"):
            acc.update(chunk)
        return acc.moments()

    return map_arms(sampled)


@dataclass(frozen=True)
class CheckRow:
    arm: str
    moment: str
    predicted: float
    sampled: float
    se: float
    z: float


@dataclass(frozen=True)
class EmpiricalCheck:
    """Sampled-vs-predicted comparison for every meter moment of both
    arms; ``passed`` means every |z| (none NaN) stayed within ``Z_MAX``."""

    rows: tuple[CheckRow, ...]

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs([row.z for row in self.rows])))

    @property
    def passed(self) -> bool:
        return all(abs(row.z) <= Z_MAX for row in self.rows)


def _compare(arm: str, sampled: MomentSet, predicted: MomentSet) -> list[CheckRow]:
    rows = []
    for (name, expected), se in zip(predicted.entries().items(),
                                    sampled.se.values()):
        got = getattr(sampled, name)
        if se > 0.0:
            z = (got - expected) / se
        else:
            # Deterministic moment: exact agreement or a hard failure.
            z = 0.0 if got == expected else np.inf
        rows.append(CheckRow(
            arm=arm, moment=name, predicted=float(expected),
            sampled=float(got), se=float(se), z=float(z),
        ))
    return rows


def empirical_check(params: ExperimentParams, noise: NoiseModel,
                    initial: GaussianState, n_shots: int,
                    seed: int) -> EmpiricalCheck:
    """Simulate both arms and z-score every sampled moment against its
    closed-form prediction (:func:`simulate_moments`: no arm is held
    whole); the check passes when every |z| is at most ``Z_MAX``, and an
    arm whose Sigma is out of range is refused (``UndefinedInputError``)."""
    sampled_atoms, sampled_ref = simulate_moments(params, noise, initial,
                                                  n_shots, seed)
    rows = _compare("with_atoms", sampled_atoms,
                    predicted_moments(params, noise, initial))
    rows += _compare("no_atoms", sampled_ref,
                     no_atoms_moments(params, initial))
    return EmpiricalCheck(rows=tuple(rows))
