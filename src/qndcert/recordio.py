"""Shot-record files: CSV per arm plus a JSON metadata sidecar.

A record set with prefix ``run`` lands in three files::

    run.with_atoms.csv   shot,p_y[,q_y[,r_y]]
    run.no_atoms.csv     same columns
    run.meta.json        seed, shot count, params hash

Floats are written with 17 significant digits, so reading a file back
reproduces the original float64 values exactly, and identical inputs
produce byte-identical files.  An arm is formatted and streamed to disk
in blocks of the sampler's ``CHUNK_SHOTS`` rows, so its full text is
never held in memory.  All writes go through a temp file in the target
directory followed by an atomic rename.

Writing refuses records holding a non-finite value, and reading refuses
a file whose values are not all finite or whose ``shot`` column is not
0, 1, ..., n-1.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import RecordError
from .montecarlo import CHUNK_SHOTS
from .statistics import ShotRecords

__all__ = [
    "write_atomic_text",
    "write_records",
    "read_records",
    "sibling_meta_path",
]

META_SCHEMA_VERSION = 1
_COLUMNS = ("p_y", "q_y", "r_y")


def write_atomic_text(path: Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or the pieces of an iterable of strings in order,
    to a temp file beside ``path`` and rename it into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_arm(rows: np.ndarray) -> Iterator[str]:
    """Yield an arm's CSV text: the header line, then one string per
    block of ``CHUNK_SHOTS`` rows."""
    n_columns = rows.shape[1]
    yield "shot," + ",".join(_COLUMNS[:n_columns]) + "\n"
    line = "%d," + ",".join(["%.17g"] * n_columns) + "\n"
    for start in range(0, rows.shape[0], CHUNK_SHOTS):
        block = rows[start:start + CHUNK_SHOTS]
        shots = range(start, start + block.shape[0])
        yield "".join([line % row for row in zip(shots, *block.T.tolist())])


def write_records(records: ShotRecords, prefix: str | Path) -> dict[str, Path]:
    """Write both arms and the sidecar; returns the paths by role.

    Records holding a non-finite value are refused before any file is
    created, since reading would refuse the file."""
    for role in ("with_atoms", "no_atoms"):
        finite = np.isfinite(getattr(records, role)).all(axis=1)
        if not finite.all():
            raise RecordError(f"{role} arm: row {int(np.argmin(finite))} "
                              "holds a non-finite value; not written")
    prefix = Path(prefix)
    paths = {
        "with_atoms": prefix.with_name(prefix.name + ".with_atoms.csv"),
        "no_atoms": prefix.with_name(prefix.name + ".no_atoms.csv"),
        "meta": prefix.with_name(prefix.name + ".meta.json"),
    }
    write_atomic_text(paths["with_atoms"], _format_arm(records.with_atoms))
    write_atomic_text(paths["no_atoms"], _format_arm(records.no_atoms))
    meta = {
        "schema_version": META_SCHEMA_VERSION,
        "kind": "shot_records",
        "seed": records.seed,
        "n_shots": records.n_shots,
        "n_pulses": records.n_pulses,
        "params_hash": records.params_hash,
    }
    write_atomic_text(paths["meta"], json.dumps(meta, indent=2) + "\n")
    return paths


def _read_arm(path: Path) -> np.ndarray:
    try:
        with open(path) as handle:
            header = handle.readline().strip()
            fields = header.split(",")
            if fields[0] != "shot" or tuple(fields[1:]) not in {
                _COLUMNS[:1], _COLUMNS[:2], _COLUMNS[:3]
            }:
                raise RecordError(f"{path}: unrecognized header {header!r}")
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
    except RecordError:
        raise
    except OSError as exc:
        raise RecordError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise RecordError(f"{path}: {exc}") from None
    if data.shape[0] < 1 or data.shape[1] != len(fields):
        raise RecordError(
            f"{path}: expected {len(fields)} columns of data, got shape "
            f"{data.shape}"
        )
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise RecordError(f"{path}: row {row} (line {row + 2}) holds a "
                          f"non-finite value")
    shots = data[:, 0]
    misplaced = np.flatnonzero(shots != np.arange(shots.size))
    if misplaced.size:
        row = int(misplaced[0])
        raise RecordError(f"{path}: row {row} (line {row + 2}) has shot "
                          f"index {shots[row]:g}, expected {row}")
    return data[:, 1:]


def sibling_meta_path(with_atoms_path: str | Path) -> Path | None:
    """Sidecar path next to a ``*.with_atoms.csv`` file, if it exists."""
    path = Path(with_atoms_path)
    if not path.name.endswith(".with_atoms.csv"):
        return None
    meta = path.with_name(path.name[: -len(".with_atoms.csv")] + ".meta.json")
    return meta if meta.exists() else None


def read_records(with_atoms_path: str | Path, no_atoms_path: str | Path,
                 meta_path: str | Path | None = None) -> ShotRecords:
    """Load both arms; the sidecar (when given) supplies seed and params
    hash and is cross-checked against the data shape."""
    with_atoms = _read_arm(Path(with_atoms_path))
    no_atoms = _read_arm(Path(no_atoms_path))
    seed = None
    params_hash = None
    if meta_path is not None:
        try:
            meta = json.loads(Path(meta_path).read_text())
        except OSError as exc:
            raise RecordError(f"{meta_path}: {exc.strerror or exc}") from None
        except json.JSONDecodeError as exc:
            raise RecordError(
                f"{meta_path}:{exc.lineno}:{exc.colno}: {exc.msg}"
            ) from None
        if meta.get("kind") != "shot_records":
            raise RecordError(f"{meta_path}: not a shot-records sidecar")
        if meta.get("n_pulses") != with_atoms.shape[1]:
            raise RecordError(
                f"{meta_path}: sidecar says {meta.get('n_pulses')} pulses, "
                f"data has {with_atoms.shape[1]}"
            )
        if meta.get("n_shots") != with_atoms.shape[0]:
            raise RecordError(
                f"{meta_path}: sidecar says {meta.get('n_shots')} shots, "
                f"data has {with_atoms.shape[0]}"
            )
        seed = meta.get("seed")
        params_hash = meta.get("params_hash")
    records = ShotRecords(with_atoms=with_atoms, no_atoms=no_atoms,
                          seed=seed, params_hash=params_hash)
    return records
