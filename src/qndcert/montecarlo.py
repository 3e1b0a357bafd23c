"""Shot-level Monte Carlo of the pulsed measurement.

Each shot draws the initial phase-space vector from the input Gaussian
state, then applies the per-pulse linear map and adds a fresh noise draw
per pulse; the recorded outcomes are the meter components (P_y, Q_y,
R_y).  The no-atoms reference arm runs the identical discipline with the
coupling off, r_A = r_L = 1 and no added noise, so it samples the raw
input light.

The meters are linear in the draws, so the pulse maps are folded once
per arm into composite readouts R_p = E M_n ... M_{p+1} (E the meter-row
selector, R_n = E).  A shot is R_0 mean + z G, z standard normal, where
the rows of G are every source variate's gain: the initial-state factor
through R_0, and pulse p's noise factor through R_p's columns on the
spin block and pulse p's block.  One thin QR of G gives a (k, n_pulses)
triangle R, k <= n_pulses, with R.T R = G.T G, so R_0 mean + z R with k
standard normals has the same mean and covariance, hence the same
Gaussian, and shots stay independent.  A shot costs at most n_pulses
variates, not one per source component (8 to 14 at three pulses).  QR
never forms G.T G, so it neither overflows at large variances nor clips
eigenvalues.  The readout comes from ``interaction_matrix`` alone, never
from the closed forms or ``apply_pulse``, so the sampler stays an
independent check of them.

Both factors come from an eigendecomposition, whose negative
eigenvalues are dropped.  The sampler has no positivity check of its
own: every state and :class:`~qndcert.dynamics.NoiseModel` is PSD within
:mod:`qndcert.core`'s ``PSD_RTOL * trace``, so they are rounding.

Generation is chunked: :func:`arm_chunks` yields an arm's outcomes
``CHUNK_SHOTS`` (16384) shots at a time, and every chunk draws its
(count, k) standard normals from its own random substream, keyed by
(arm, chunk index) off one master seed.  Chunks are therefore
independent and reproducible in isolation, results are bit-identical
however the work is scheduled, and the two arms never share randomness.

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
per arm that the next chunk overwrites, and its variates are drawn
``_DRAW_ROWS`` (4096) rows at a time, each block added through R to its
rows; a substream gives the same draws however they are split, and on
the BLAS checked a product's bits do not depend on its row count.  A
block's draws and product take 0.1 MB each per arm at three pulses; a
whole chunk's draws, held, were no faster and took the traced peak of
``qndc simulate`` from under 1.7 to 1.86 MB.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .core import GaussianState
from .dynamics import ExperimentParams, NoiseModel, interaction_matrix
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
    eigenvalues are rounding, and are dropped with the zero ones."""
    eigvals, eigvecs = np.linalg.eigh(matrix)
    keep = eigvals > 0.0
    return eigvecs[:, keep] * np.sqrt(eigvals[keep])


def arm_chunks(params: ExperimentParams, noise: NoiseModel,
               initial: GaussianState, n_shots: int, seed: int,
               with_atoms: bool = True) -> Iterator[np.ndarray]:
    """Meter outcomes of one arm, ``CHUNK_SHOTS`` shots at a time: an
    iterator of (count, n_pulses) arrays, the last possibly shorter.

    Each chunk is a view into one buffer that the next chunk overwrites,
    so a consumer must be done with it before asking for the next.
    ``with_atoms=False`` runs the no-atoms reference variant (coupling
    off, r_A = r_L = 1, zero noise) on its own substream family.  The
    readout is built here, before any chunk.
    """
    if n_shots < 1:
        raise ValueError(f"n_shots must be positive, got {n_shots}")
    layout = initial.layout
    if not with_atoms:
        # coupling off, lossless: the pulse maps collapse to the identity
        params = replace(params, g_tau=0.0, r_a=1.0, r_l=1.0)
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
    gains = [(readouts[0] @ _psd_factor(initial.cov)).T]
    if not noise.is_zero:
        noise_factor = _psd_factor(noise.matrix)
        for pulse in pulses:
            block = layout.block_slice(pulse)
            rows = np.r_[0:3, block.start:block.stop]
            gains.append((readouts[pulse][:, rows] @ noise_factor).T)
    # R.T @ R == G.T @ G, so a shot draws k <= n_pulses variates
    factor = np.linalg.qr(np.vstack(gains), mode="r")
    return _draw_chunks(offset, factor, n_shots, seed,
                        _ARM_IDS[bool(with_atoms)])


def _draw_chunks(offset: np.ndarray, factor: np.ndarray, n_shots: int,
                 seed: int, arm: int) -> Iterator[np.ndarray]:
    buffer = np.empty((min(n_shots, CHUNK_SHOTS), offset.size))
    for chunk, start in enumerate(range(0, n_shots, CHUNK_SHOTS)):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(arm, chunk))
        )
        meters = buffer[:min(CHUNK_SHOTS, n_shots - start)]
        meters[:] = offset
        for row in range(0, len(meters), _DRAW_ROWS):
            part = meters[row:row + _DRAW_ROWS]
            part += rng.standard_normal((len(part), len(factor))) @ factor
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
