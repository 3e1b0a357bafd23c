"""Shot-record files: CSV per arm plus a JSON metadata sidecar.

A record set with prefix ``run`` lands in three files::

    run.with_atoms.csv   shot,p_y[,q_y[,r_y]]
    run.no_atoms.csv     same columns
    run.meta.json        seed, shot count, params hash, r_l, arm summaries

Each row is the text of ``("%d," + ",".join(["%.17g"] * k) + "\\n") % row``:
floats carry 17 significant digits, so reading a file back reproduces
the original float64 values exactly, and identical inputs produce
byte-identical files.  The text is produced by the exact numpy kernel
:func:`qndcert.recordfmt.format_rows`.  All writes go through a temp
file in the target directory followed by an atomic rename.

Every arm is one chunk pipeline with ``CHUNK_SHOTS`` (16384) shots as
its grain.  :func:`write_arms` takes each arm's chunks, as
:func:`qndcert.montecarlo.arm_chunks` draws them, and on the arm's own
thread (:func:`qndcert.statistics.map_arms`) checks each chunk finite,
accumulates it, formats it in ``SUB_BLOCK_ROWS`` (2048) row pieces,
hashes the pieces and streams them to disk; the sidecar is written from
the two accumulators and digests once both CSVs are written.  It renames
none of the three files into place before all three are written: a
write that fails part way leaves the previous set whole.  On reading,
``_read_arm`` parses ``CHUNK_SHOTS`` data rows at a time with every
check, and :func:`read_moments` accumulates the chunks.  Reading stays
serial: ``loadtxt`` holds the GIL.

Memory rule: no pipeline holds an arm, so ``qndc simulate`` and a
``qndc`` command that parses the CSVs take the same memory at any shot
count; each arm holds one chunk and a formatter's piece, or one parsed
chunk and the next.

The sidecar (schema 2) also holds an ``arms`` block: per role, the
sha256 of the CSV as written and the arm's ``MomentAccumulator`` state
(``count``, ``mean``, ``comoment``) after its chunks.  Parsing the CSV
feeds the same values in the same chunks, so it gives the same bits.
Sidecars written before the chunk pipeline hold one-shot summaries,
which differ in the last bits; they still read.  :func:`read_summary`
hashes the CSVs it is given; when both digests match the sidecar's, the
arms' moments come from the stored summaries and no CSV is parsed.
Otherwise, and for sidecars of schema 1 or without an ``arms`` block
(written when a summary is not finite), the caller parses the CSVs with
:func:`read_moments`.

Writing refuses records holding a non-finite value or arms of different
shot counts.  Reading refuses a file whose values are not all finite or
whose ``shot`` column is not 0, 1, ..., n-1, arms of different shot
counts, and a sidecar whose counts are not integers (pulses 1 to 3),
seed not a nonnegative integer or null, hash not a string, or stored
comoment not symmetric with a nonnegative diagonal.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .config import check_r_l
from .errors import ConfigError, RecordError
from .recordfmt import format_rows
from .statistics import (
    ARM_ROLES,
    CHUNK_SHOTS,
    MomentAccumulator,
    MomentSet,
    map_arms,
)

__all__ = [
    "RecordSummary",
    "write_atomic",
    "write_arms",
    "read_moments",
    "read_summary",
    "sibling_meta_path",
]

META_SCHEMA_VERSION = 2
_COLUMNS = ("p_y", "q_y", "r_y")
_HASH_BLOCK_BYTES = 1 << 18
# Rows formatted per piece: the formatter's temporaries, and so the
# writer's peak memory, grow with it; one arm's formatter per thread.
SUB_BLOCK_ROWS = 2048


def _write_temp(path: Path, data: bytes | Iterable[bytes]) -> str:
    """Write ``data``, or the pieces of an iterable of bytes in order, to
    a new temp file beside ``path``; returns its name.  The file is
    created with mode 0o666 less the umask, as ``open`` would create it.
    A failed write leaves no temp file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = f"{path}.{os.urandom(6).hex()}"  # O_EXCL: never an existing file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines([data] if isinstance(data, bytes) else data)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def write_atomic(path: Path, data: bytes | Iterable[bytes]) -> None:
    """Write ``data``, or the pieces of an iterable of bytes in order, to
    a temp file beside ``path`` and rename it into place."""
    path = Path(path)
    tmp = _write_temp(path, data)
    try:
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _arm_pieces(chunks: Iterable[np.ndarray], role: str, n_pulses: int,
                acc: MomentAccumulator, digest) -> Iterator[bytes]:
    """Yield an arm's CSV bytes from its chunks: the header line, then each
    chunk in pieces of ``SUB_BLOCK_ROWS`` rows, shot numbers running on
    across chunks.  Each chunk is checked finite and fed to ``acc`` before
    it is formatted; each piece is fed to ``digest``."""
    header = ("shot," + ",".join(_COLUMNS[:n_pulses]) + "\n").encode()
    digest.update(header)
    yield header
    start = 0
    for chunk in chunks:
        finite = np.isfinite(chunk).all(axis=1)
        if not finite.all():
            raise RecordError(f"{role} arm: row {start + int(np.argmin(finite))}"
                              " holds a non-finite value; not written")
        with np.errstate(all="ignore"):  # a sum may overflow: see _sidecar
            acc.update(chunk)
        for row in range(0, len(chunk), SUB_BLOCK_ROWS):
            piece = format_rows(chunk[row:row + SUB_BLOCK_ROWS], start + row)
            digest.update(piece)
            yield piece
        start += len(chunk)


def _check_shot_counts(counts: list[int], tail: str = "") -> None:
    if counts[0] != counts[1]:
        raise RecordError(f"arms disagree on the shot count: {counts[0]} "
                          f"with_atoms, {counts[1]} no_atoms{tail}")


def _sidecar(arms: dict[str, tuple[str, MomentAccumulator]], n_pulses: int,
             seed: int | None, params_hash: str | None,
             r_l: float | None) -> bytes:
    """The sidecar's bytes from each arm's (digest, accumulator); its
    ``arms`` block is left out when a summary is not finite (readers then
    parse the CSVs)."""
    meta = {
        "schema_version": META_SCHEMA_VERSION,
        "kind": "shot_records",
        "seed": seed,
        "n_shots": arms[ARM_ROLES[0]][1].count,
        "n_pulses": n_pulses,
        "params_hash": params_hash,
        "r_l": r_l,
    }
    if all(np.isfinite(acc.mean).all() and np.isfinite(acc.comoment).all()
           for _, acc in arms.values()):
        meta["arms"] = {role: {"sha256": digest, "count": acc.count,
                               "mean": acc.mean.tolist(),
                               "comoment": acc.comoment.tolist()}
                        for role, (digest, acc) in arms.items()}
    return (json.dumps(meta, indent=2, allow_nan=False) + "\n").encode()


def write_arms(chunks_of: Callable[[str], Iterable[np.ndarray]],
               prefix: str | Path, n_pulses: int, seed: int | None = None,
               params_hash: str | None = None,
               r_l: float | None = None) -> dict[str, Path]:
    """Write a record set from each arm's chunks; returns the paths by role.

    ``chunks_of(role)`` gives the role's (count, n_pulses) chunks in shot
    order; a chunk may be overwritten once the next is asked for.  Each
    arm runs one pipeline on its own thread: every chunk is checked
    finite, accumulated, formatted, hashed and written to a temp file,
    then the sidecar is written from the accumulators and digests.  The
    three files are renamed into place only once all are written, so a
    failed write, a non-finite value (a ``RecordError`` naming its row)
    or arms of different lengths leave a previous set under ``prefix``
    as it was, and no temp file."""
    prefix = Path(prefix)
    paths = {
        "with_atoms": prefix.with_name(prefix.name + ".with_atoms.csv"),
        "no_atoms": prefix.with_name(prefix.name + ".no_atoms.csv"),
        "meta": prefix.with_name(prefix.name + ".meta.json"),
    }

    temps: dict[str, str] = {}  # written, not yet renamed, by key

    def write_arm(role: str) -> tuple[str, MomentAccumulator]:
        acc, digest = MomentAccumulator(n_pulses), hashlib.sha256()
        temps[role] = _write_temp(paths[role], _arm_pieces(
            chunks_of(role), role, n_pulses, acc, digest))
        return digest.hexdigest(), acc

    try:
        arms = dict(zip(ARM_ROLES, map_arms(write_arm)))
        _check_shot_counts([acc.count for _, acc in arms.values()],
                           "; not written")
        temps["meta"] = _write_temp(paths["meta"], _sidecar(
            arms, n_pulses, seed, params_hash, r_l))
        for key in (*ARM_ROLES, "meta"):  # none before all are written
            os.replace(temps[key], paths[key])
            del temps[key]
    except BaseException:
        for tmp in temps.values():
            os.unlink(tmp)
        raise
    return paths


def _read_arm(path: Path) -> Iterator[np.ndarray]:
    """Parse an arm's CSV ``CHUNK_SHOTS`` data rows at a time, yielding
    each chunk's (count, n_pulses) values as a new array.  The header,
    the column count, finite values and a ``shot`` column running 0, 1,
    ..., n-1 across chunks are checked on the way; a file without data
    rows is refused at its end."""
    start = 0  # rows yielded so far
    try:
        with open(path) as handle:
            header = handle.readline().strip()
            fields = header.split(",")
            if fields[0] != "shot" or tuple(fields[1:]) not in {
                _COLUMNS[:1], _COLUMNS[:2], _COLUMNS[:3]
            }:
                raise RecordError(f"{path}: unrecognized header {header!r}")
            while True:
                with warnings.catch_warnings():
                    # the end of the file is found by reading no data, and
                    # a blank line is no row, as max_rows counts rows
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data",
                        UserWarning)
                    warnings.filterwarnings(
                        "ignore", r"Input line \d+ contained no data",
                        UserWarning)
                    data = np.loadtxt(handle, delimiter=",", ndmin=2,
                                      max_rows=CHUNK_SHOTS)
                if data.size == 0:
                    break
                if data.shape[1] != len(fields):
                    raise RecordError(
                        f"{path}: expected {len(fields)} columns of data, "
                        f"got shape {data.shape}")
                finite = np.isfinite(data).all(axis=1)
                if not finite.all():
                    row = start + int(np.argmin(finite))
                    raise RecordError(f"{path}: row {row} (line {row + 2}) "
                                      f"holds a non-finite value")
                shots = data[:, 0]
                misplaced = np.flatnonzero(
                    shots != np.arange(start, start + len(shots)))
                if misplaced.size:
                    row = start + int(misplaced[0])
                    raise RecordError(
                        f"{path}: row {row} (line {row + 2}) has shot index "
                        f"{shots[row - start]:g}, expected {row}")
                yield data[:, 1:]
                start += len(data)
                if len(data) < CHUNK_SHOTS:
                    break
    except RecordError:
        raise
    except OSError as exc:
        raise RecordError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        # loadtxt counts rows from the start of the chunk it parses
        where = f" (in the chunk from row {start}, line {start + 2})"
        raise RecordError(f"{path}: {exc}{where if start else ''}") from None
    if start == 0:
        raise RecordError(f"{path}: no data rows")


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
    # JSON keeps integers apart from floats and bools: type(v) is int.
    n_pulses, seed = meta.get("n_pulses"), meta.get("seed")
    for field, valid, rule in (
            ("n_shots", type(meta.get("n_shots")) is int, "an integer"),
            ("n_pulses", type(n_pulses) is int and 1 <= n_pulses <= 3,
             "1, 2 or 3"),
            ("seed", seed is None or type(seed) is int and seed >= 0,
             "a nonnegative integer or null"),
            ("params_hash", isinstance(meta.get("params_hash"),
                                       (str, type(None))), "a string or null")):
        if not valid:
            raise RecordError(f"{meta_path}: {field} must be {rule}, got "
                              f"{meta.get(field)!r}")
    return meta


def _check_counts(meta: dict, meta_path, role: str, n_shots: int,
                  n_pulses: int) -> None:
    for field, count in (("n_pulses", n_pulses), ("n_shots", n_shots)):
        if meta and meta[field] != count:
            raise RecordError(f"{meta_path}: sidecar says {meta[field]} "
                              f"{field[2:]}, {role} data has {count}")


def read_moments(with_atoms_path: str | Path, no_atoms_path: str | Path,
                 meta_path: str | Path | None = None
                 ) -> tuple[MomentSet, MomentSet]:
    """Both arms' moments, each arm parsed and accumulated chunk by chunk,
    never held whole.  Each file gets every check of ``_read_arm``; the
    arms must agree on the shot count and, when a sidecar is given, with
    its shot and pulse counts."""
    meta = {} if meta_path is None else _read_meta(meta_path)
    accs = []
    for role, path in zip(ARM_ROLES, (with_atoms_path, no_atoms_path)):
        chunks = _read_arm(Path(path))
        first = next(chunks)  # a file has one or more
        acc = MomentAccumulator(first.shape[1])
        acc.update(first)
        for chunk in chunks:
            acc.update(chunk)
        _check_counts(meta, meta_path, role, acc.count, acc.mean.size)
        accs.append(acc)
    _check_shot_counts([acc.count for acc in accs])
    return tuple(acc.moments() for acc in accs)


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
    n_shots, n_pulses = meta["n_shots"], meta["n_pulses"]
    try:
        mean = np.array(arm["mean"], dtype=float)
        comoment = np.array(arm["comoment"], dtype=float)
        count = arm["count"]
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordError(f"{meta_path}: malformed arm summary: {exc!r}") \
            from None
    if type(count) is not int:
        raise RecordError(f"{meta_path}: arm count must be an integer, got "
                          f"{count!r}")
    if (count != n_shots or mean.shape != (n_pulses,)
            or comoment.shape != (n_pulses, n_pulses)):
        raise RecordError(
            f"{meta_path}: arm summary of {count} shots and {mean.size} "
            f"pulses disagrees with the sidecar's {n_shots} shots and "
            f"{n_pulses} pulses")
    if not (np.isfinite(mean).all() and np.isfinite(comoment).all()):
        raise RecordError(f"{meta_path}: arm summary holds a non-finite "
                          f"value")
    if (comoment != comoment.T).any() or (comoment.diagonal() < 0.0).any():
        raise RecordError(f"{meta_path}: arm comoment must be symmetric with "
                          f"a nonnegative diagonal")
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
    if all(role in arms for role in ARM_ROLES):
        moments = tuple(_stored_moments(meta, arms[role], meta_path)
                        for role in ARM_ROLES)
    return RecordSummary(sha256, meta.get("seed"), meta.get("params_hash"),
                         r_l, moments)
