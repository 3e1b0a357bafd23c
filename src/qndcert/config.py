"""Experiment configuration: JSON in, validated model objects out.

Schema (top level; unknown keys are rejected)::

    {
      "n_pulses": 3,
      "coupling": {"g_tau": 0.02},        # or {"kappa": 1.0}
      "atoms":    {"n_atoms": 100},       # or {"mean_jx": 50.0, "cov": [[..3x3..]]}
      "light":    {"n_photons": 100},     # or {"mean_sx": 50.0, "cov": [[..3n x 3n..]]}
      "r_a": 1.0, "r_l": 1.0,             # optional, default 1
      "noise": {"33": 2.0, "35": 0.5, "55": 4.0},  # optional, PSD; 1-based keys or 6x6
      "n_shots": 100000, "seed": 1,       # optional defaults
      "j33": null, "j0": null,            # optional calibration overrides
      "z_threshold": 3.0                  # optional
    }

Validation failures raise ConfigError naming the offending field; JSON
syntax errors carry the line and column.  The model's own refusals, such
as an asymmetric block or an indefinite noise matrix, come as ConfigError
too.  A loaded config holds the initial state that it built and checked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import AtomicBlock, GaussianState, Layout, OpticalBlock, make_initial_state
from .dynamics import ExperimentParams, NoiseModel, _g_tau
from .errors import ConfigError, QndError

__all__ = ["ExperimentConfig", "check_number", "check_r_l", "load_config"]

_TOP_KEYS = {
    "n_pulses", "coupling", "atoms", "light", "r_a", "r_l", "noise",
    "n_shots", "seed", "j33", "j0", "z_threshold",
}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    n_pulses: int
    n_shots: int
    seed: int
    params: ExperimentParams
    noise: NoiseModel
    initial: GaussianState
    j33: float
    j0: float
    z_threshold: float

    def initial_state(self) -> GaussianState:
        """The pre-interaction state, built and checked at load."""
        return self.initial


def _number(raw: dict, field: str, default=None, minimum=None, maximum=None,
            positive=False):
    if field not in raw:
        if default is None:
            raise ConfigError(f"{field}: required")
        return default
    value = raw[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        raise ConfigError(f"{field}: must be finite, got an integer of "
                          f"more than 308 digits") from None
    if not math.isfinite(value):
        raise ConfigError(f"{field}: must be finite, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{field}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{field}: must be <= {maximum}, got {value}")
    if positive and value <= 0.0:
        raise ConfigError(f"{field}: must be positive, got {value}")
    return value


def check_number(field: str, value, minimum=None, maximum=None,
                 positive=False) -> float:
    """``value`` by the rule the config applies to its numbers: a real
    number, not a bool, finite, within the bounds given (above 0 when
    ``positive``).  Raises ConfigError naming ``field`` otherwise."""
    return _number({field: value}, field, minimum=minimum, maximum=maximum,
                   positive=positive)


def check_r_l(value) -> float:
    """``value`` as the optical transmission ``r_l``: in [0, 1]."""
    return check_number("r_l", value, minimum=0.0, maximum=1.0)


def _integer(raw: dict, field: str, default=None, minimum=None) -> int:
    value = _number(raw, field, default=default, minimum=minimum)
    if value != int(value):
        raise ConfigError(f"{field}: must be an integer, got {value}")
    return int(value)


def _matrix(value, size: int, field: str) -> np.ndarray:
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: must be a numeric matrix") from None
    if out.shape != (size, size):
        raise ConfigError(
            f"{field}: must be {size}x{size}, got shape {out.shape}"
        )
    if not np.isfinite(out).all():
        raise ConfigError(f"{field}: entries must be finite")
    return out


def _parse_block(raw: dict, name: str, n_pulses: int) -> AtomicBlock | OpticalBlock:
    """The ``atoms`` or ``light`` section as its block: coherent from a
    count, or a mean with its covariance; the light covers ``n_pulses``."""
    block, count, mean = {"atoms": (AtomicBlock, "n_atoms", "mean_jx"),
                          "light": (OpticalBlock, "n_photons", "mean_sx")}[name]
    pulses = (n_pulses,) if name == "light" else ()
    section = raw.get(name)
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: required section")
    if count in section:
        if set(section) != {count}:
            raise ConfigError(f"{name}: {count} cannot be combined with other keys")
        return block.coherent(_number(section, count, minimum=0.0), *pulses)
    if set(section) != {mean, "cov"}:
        raise ConfigError(f"{name}: expected {count}, or {mean} with cov")
    return block(_number(section, mean), _matrix(
        section["cov"], 3 * n_pulses if pulses else 3, f"{name}.cov"))


def _parse_noise(raw: dict) -> NoiseModel:
    section = raw.get("noise")
    if section is None:
        return NoiseModel.zero()
    if isinstance(section, list):
        return NoiseModel(_matrix(section, 6, "noise"))
    if not isinstance(section, dict):
        raise ConfigError("noise: must be an entry map or a 6x6 matrix")
    entries: dict[tuple[int, int], float] = {}
    for key, value in section.items():
        if not (isinstance(key, str) and len(key) == 2 and key.isdigit()):
            raise ConfigError(
                f"noise.{key}: keys are two 1-based digits, e.g. \"35\""
            )
        i, j = int(key[0]), int(key[1])
        if not (1 <= i <= 6 and 1 <= j <= 6):
            raise ConfigError(f"noise.{key}: indices must be in 1..6")
        entries[(i, j)] = check_number(f"noise.{key}", value)
    return NoiseModel.from_entries(entries)


def _parse_coupling(raw: dict, mean_sx: float) -> float:
    section = raw.get("coupling")
    if not isinstance(section, dict):
        raise ConfigError("coupling: required section")
    if set(section) == {"g_tau"}:
        return _number(section, "g_tau")
    if set(section) == {"kappa"}:
        kappa = _number(section, "kappa")
        try:
            return _g_tau(kappa, mean_sx)
        except ValueError as exc:
            raise ConfigError(f"coupling.kappa: {exc}") from None
    raise ConfigError("coupling: exactly one of g_tau or kappa")


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")
    try:
        return _parse(raw)
    except (QndError, ValueError) as exc:  # a ConfigError keeps its words
        raise ConfigError(str(exc)) from None


def _parse(raw: dict) -> ExperimentConfig:
    n_pulses = _integer(raw, "n_pulses")
    if n_pulses not in (1, 2, 3):
        raise ConfigError(f"n_pulses: must be 1, 2 or 3, got {n_pulses}")
    atomic, optical = (_parse_block(raw, name, n_pulses)
                       for name in ("atoms", "light"))
    noise = _parse_noise(raw)
    g_tau = _parse_coupling(raw, optical.mean_sx)
    r_a = _number(raw, "r_a", default=1.0, minimum=0.0, maximum=1.0)
    r_l = check_r_l(raw.get("r_l", 1.0))
    params = ExperimentParams(g_tau=g_tau, mean_sx=optical.mean_sx,
                              mean_jx=atomic.mean_jx, r_a=r_a, r_l=r_l)

    j33 = _number(raw, "j33", default=float(atomic.cov[2, 2]), minimum=0.0)
    if "j0" in raw:
        j0 = _number(raw, "j0", positive=True)
    elif atomic.css_variance > 0.0:
        j0 = atomic.css_variance
    else:
        raise ConfigError("j0: required when atoms have zero mean polarization")
    return ExperimentConfig(
        n_pulses=n_pulses,
        n_shots=_integer(raw, "n_shots", default=100000, minimum=2),
        seed=_integer(raw, "seed", default=1, minimum=0),
        params=params,
        noise=noise,
        j33=j33,
        j0=j0,
        z_threshold=_number(raw, "z_threshold", default=3.0, minimum=0.0),
        # built last, so that every field's own refusal comes first
        initial=make_initial_state(atomic, optical, Layout(n_pulses)),
    )
