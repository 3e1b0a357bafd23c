"""Shot-record files: CSV per arm plus a JSON metadata sidecar.

A record set with prefix ``run`` lands in three files::

    run.with_atoms.csv   shot,p_y[,q_y[,r_y]]
    run.no_atoms.csv     same columns
    run.meta.json        seed, shot count, params hash, r_l, arm summaries

Each row is the text of ``("%d," + ",".join(["%.17g"] * k) + "\\n") % row``:
floats carry 17 significant digits, so reading a file back reproduces
the original float64 values exactly, and identical inputs produce
byte-identical files.  The text is produced by the exact numpy kernel
:func:`qndcert.recordfmt.format_rows`, one ``bytes`` object per
``SUB_BLOCK_ROWS`` (4096) rows, and streamed to disk through the sha256
digest, so an arm's full text is never held in memory.  All writes go
through a temp file in the target directory followed by an atomic
rename.

The sidecar (schema 2) also holds an ``arms`` block: per role, the
sha256 of the CSV as written and the arm's ``MomentAccumulator`` state
(``count``, ``mean``, ``comoment``), taken from the in-memory rows.  A
CSV reproduces those rows exactly, so these are the values parsing it
would give.  :func:`read_summary` hashes the CSVs it is given; when both
digests match the sidecar's, the arms' moments come from the stored
summaries and no CSV is parsed.  Otherwise, and for sidecars of
schema 1 or without an ``arms`` block (written when a summary is not
finite), the caller parses the CSVs with :func:`read_records`.

Writing refuses records holding a non-finite value, and reading refuses
a file whose values are not all finite or whose ``shot`` column is not
0, 1, ..., n-1.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .config import check_r_l
from .errors import ConfigError, RecordError
from .recordfmt import format_rows
from .statistics import MomentAccumulator, MomentSet, ShotRecords

__all__ = [
    "RecordSummary",
    "write_atomic",
    "write_records",
    "read_records",
    "read_summary",
    "sibling_meta_path",
]

META_SCHEMA_VERSION = 2
_COLUMNS = ("p_y", "q_y", "r_y")
_ROLES = ("with_atoms", "no_atoms")
_HASH_BLOCK_BYTES = 1 << 18
# Rows formatted per piece: the formatter's temporaries, and so the
# writer's peak memory, grow with it.
SUB_BLOCK_ROWS = 4096


def write_atomic(path: Path, data: bytes | Iterable[bytes]) -> None:
    """Write ``data``, or the pieces of an iterable of bytes in order, to
    a temp file beside ``path`` and rename it into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_arm(rows: np.ndarray) -> Iterator[bytes]:
    """Yield an arm's CSV bytes: the header line, then one piece per
    ``SUB_BLOCK_ROWS`` rows."""
    yield ("shot," + ",".join(_COLUMNS[:rows.shape[1]]) + "\n").encode()
    for start in range(0, rows.shape[0], SUB_BLOCK_ROWS):
        yield format_rows(rows[start:start + SUB_BLOCK_ROWS], start)


def _hashed(pieces: Iterable[bytes], digest) -> Iterator[bytes]:
    """Pass ``pieces`` through, feeding each one to ``digest``."""
    for piece in pieces:
        digest.update(piece)
        yield piece


def _arm_summaries(records: ShotRecords,
                   digests: dict[str, str]) -> dict | None:
    """The sidecar's ``arms`` block, or None when a summary is not finite
    (readers then parse the CSVs)."""
    arms = {}
    with np.errstate(all="ignore"):
        for role in _ROLES:
            acc = MomentAccumulator.of(getattr(records, role))
            if not (np.isfinite(acc.mean).all()
                    and np.isfinite(acc.comoment).all()):
                return None
            arms[role] = {"sha256": digests[role], "count": acc.count,
                          "mean": acc.mean.tolist(),
                          "comoment": acc.comoment.tolist()}
    return arms


def write_records(records: ShotRecords, prefix: str | Path,
                  r_l: float | None = None) -> dict[str, Path]:
    """Write both arms and the sidecar; returns the paths by role.

    ``r_l``, the optical transmission the records were simulated at, is
    stored in the sidecar for readers given no other value.  Records
    holding a non-finite value are refused before any file is created,
    since reading would refuse the file."""
    for role in _ROLES:
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
    digests = {}
    for role in _ROLES:
        digest = hashlib.sha256()
        write_atomic(paths[role],
                     _hashed(_format_arm(getattr(records, role)), digest))
        digests[role] = digest.hexdigest()
    meta = {
        "schema_version": META_SCHEMA_VERSION,
        "kind": "shot_records",
        "seed": records.seed,
        "n_shots": records.n_shots,
        "n_pulses": records.n_pulses,
        "params_hash": records.params_hash,
        "r_l": r_l,
    }
    arms = _arm_summaries(records, digests)
    if arms is not None:
        meta["arms"] = arms
    write_atomic(paths["meta"],
                 (json.dumps(meta, indent=2, allow_nan=False) + "\n").encode())
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
            with warnings.catch_warnings():
                # a file without data rows is refused below instead
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(handle, delimiter=",", ndmin=2)
    except RecordError:
        raise
    except OSError as exc:
        raise RecordError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise RecordError(f"{path}: {exc}") from None
    if data.size == 0:
        raise RecordError(f"{path}: no data rows")
    if data.shape[1] != len(fields):
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


def _read_meta(meta_path: str | Path) -> dict:
    try:
        meta = json.loads(Path(meta_path).read_text())
    except OSError as exc:
        raise RecordError(f"{meta_path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise RecordError(
            f"{meta_path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(meta, dict) or meta.get("kind") != "shot_records":
        raise RecordError(f"{meta_path}: not a shot-records sidecar")
    return meta


def read_records(with_atoms_path: str | Path, no_atoms_path: str | Path,
                 meta_path: str | Path | None = None) -> ShotRecords:
    """Load both arms; the sidecar (when given) supplies seed and params
    hash and is cross-checked against the data shape."""
    with_atoms = _read_arm(Path(with_atoms_path))
    no_atoms = _read_arm(Path(no_atoms_path))
    seed = None
    params_hash = None
    if meta_path is not None:
        meta = _read_meta(meta_path)
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


@dataclass(frozen=True)
class RecordSummary:
    """What a record set's sidecar and digests say, before any parsing.

    ``sha256`` holds each CSV's digest by role.  ``moments`` holds the
    (with-atoms, no-atoms) moments when the sidecar's stored summaries
    match both digests, else None; ``stale`` lists the CSVs whose digest
    differs from the one the sidecar stored for them.  A sidecar that a
    CSV contradicts supplies nothing else: ``seed``, ``params_hash`` and
    ``r_l`` are then None.
    """

    sha256: dict[str, str]
    seed: int | None = None
    params_hash: str | None = None
    r_l: float | None = None
    moments: tuple[MomentSet, MomentSet] | None = None
    stale: tuple[Path, ...] = ()

    @property
    def moments_source(self) -> str:
        return "parsed" if self.moments is None else "sidecar"


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(_HASH_BLOCK_BYTES), b""):
                digest.update(block)
    except OSError as exc:
        raise RecordError(f"{path}: {exc.strerror or exc}") from None
    return digest.hexdigest()


def _stored_moments(meta: dict, arm: dict, meta_path: str | Path) -> MomentSet:
    """An arm's moments from its sidecar summary, which must agree with
    the sidecar's own shot and pulse counts."""
    n_shots, n_pulses = meta.get("n_shots"), meta.get("n_pulses")
    try:
        mean = np.array(arm["mean"], dtype=float)
        comoment = np.array(arm["comoment"], dtype=float)
        count = arm["count"]
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordError(f"{meta_path}: malformed arm summary: {exc!r}") \
            from None
    if (n_pulses not in (1, 2, 3) or count != n_shots
            or mean.shape != (n_pulses,)
            or comoment.shape != (n_pulses, n_pulses)):
        raise RecordError(
            f"{meta_path}: arm summary of {count} shots and {mean.size} "
            f"pulses disagrees with the sidecar's {n_shots} shots and "
            f"{n_pulses} pulses")
    if not (np.isfinite(mean).all() and np.isfinite(comoment).all()):
        raise RecordError(f"{meta_path}: arm summary holds a non-finite "
                          f"value")
    acc = MomentAccumulator(n_pulses)
    acc.count, acc.mean, acc.comoment = count, mean, comoment
    return acc.moments()


def read_summary(with_atoms_path: str | Path, no_atoms_path: str | Path,
                 meta_path: str | Path | None = None) -> RecordSummary:
    """Hash both CSVs in fixed-size chunks and read the sidecar (when
    given); see :class:`RecordSummary`.  No CSV is parsed."""
    paths = {"with_atoms": Path(with_atoms_path),
             "no_atoms": Path(no_atoms_path)}
    sha256 = {role: _file_sha256(path) for role, path in paths.items()}
    if meta_path is None:
        return RecordSummary(sha256)
    meta = _read_meta(meta_path)
    r_l = meta.get("r_l")
    if r_l is not None:
        try:
            r_l = check_r_l(r_l)
        except ConfigError as exc:
            raise RecordError(f"{meta_path}: {exc}") from None
    arms = meta.get("arms", {})
    if not (isinstance(arms, dict)
            and all(isinstance(arm, dict) for arm in arms.values())):
        raise RecordError(f"{meta_path}: malformed arms block")
    stale = tuple(path for role, path in paths.items()
                  if role in arms and arms[role].get("sha256") != sha256[role])
    if stale:
        return RecordSummary(sha256, stale=stale)
    moments = None
    if all(role in arms for role in _ROLES):
        moments = tuple(_stored_moments(meta, arms[role], meta_path)
                        for role in _ROLES)
    return RecordSummary(sha256, meta.get("seed"), meta.get("params_hash"),
                         r_l, moments)
