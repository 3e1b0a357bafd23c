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
accumulates it, formats it in ``SUB_BLOCK_ROWS`` (4096) row pieces,
hashes the pieces and streams them to disk; the sidecar is written from
the two accumulators and digests once both CSVs are written.  It renames
none of the three files into place before all three are written: a
write that fails part way leaves the previous set whole.  On reading,
``_read_arm`` parses ``CHUNK_SHOTS`` data rows at a time with every
check, and :func:`read_records` accumulates the chunks.  Its hashing
runs one arm per thread; parsing stays serial, since ``loadtxt`` holds
the GIL.

Memory rule: no pipeline holds an arm, so ``qndc simulate`` and a
``qndc`` command that parses the CSVs take the same memory at any shot
count; each arm holds one chunk and a formatter's piece, or one parsed
chunk and the next.  A piece is as many rows as the formatter can take
in about 1 MB at three pulses (:mod:`qndcert.recordfmt`): few pieces
mean few numpy calls, so the two arms' threads overlap.  A whole chunk
does not fit: its text alone is 1 MB.

The sidecar (schema 2) also holds an ``arms`` block: per role, the
sha256 of the CSV as written and the arm's ``MomentAccumulator`` state
(``count``, ``mean``, ``comoment``) after its chunks.  Parsing the CSV
feeds the same values in the same chunks, so it gives the same bits.
Sidecars written before the chunk pipeline hold one-shot summaries,
which differ in the last bits; they still read.  So do sidecars written
before each chunk was folded as contiguous columns: their summaries
summed each chunk's rows in order, where the fold now sums each column
pairwise, so they too differ from a fresh parse in the last bits.  :func:`read_records`
is the one reader: it hashes the CSVs it is given and reads and checks
the sidecar once.  When both digests match the sidecar's, the arms'
moments come from the stored summaries and no CSV is parsed.  Otherwise,
and for sidecars of schema 1 or without an ``arms`` block (written when
a summary is not finite), it parses the CSVs; its ``RecordSet`` says
which (``moments_source``) and names the CSVs a stored digest
contradicts (``stale``).

Writing refuses records holding a non-finite value or arms of different
shot counts.  Reading checks the files' own formats: a CSV's values
finite and its ``shot`` column 0, 1, ..., n-1, the arms' shot counts
equal, and a sidecar's ``schema_version`` (1 or 2), integer counts
(pulses 1 to 3), seed (a nonnegative integer or null), hash (a string
or null) and a finite summary of its own counts.  Each arm's moments,
parsed or stored, then meet :meth:`MomentAccumulator.moments`'s rule,
whose refusal names the CSV or the sidecar.
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
from .errors import ConfigError, RecordError, UndefinedInputError
from .recordfmt import format_rows
from .statistics import (
    ARM_ROLES,
    CHUNK_SHOTS,
    MomentAccumulator,
    MomentSet,
    map_arms,
)

__all__ = [
    "RecordSet",
    "write_atomic",
    "write_arms",
    "read_records",
    "sibling_meta_path",
]

META_SCHEMA_VERSION = 2
_COLUMNS = ("p_y", "q_y", "r_y")
_HASH_BLOCK_BYTES = 1 << 18
# Rows formatted per piece: the formatter's temporaries, and so the
# writer's peak memory, grow with it; one arm's formatter per thread.
# See the module docstring's memory rule.
SUB_BLOCK_ROWS = 4096


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


def _nonfinite_row(rows: np.ndarray) -> int | None:
    """Index of the first row of ``rows`` holding a non-finite value, or
    None.  The whole block is tested at once, the rows only if it fails:
    a per-row reduction costs far more than one over the block."""
    finite = np.isfinite(rows)
    if finite.all():
        return None
    return int(np.argmin(finite.all(axis=1)))


def _arm_pieces(chunks: Iterable[np.ndarray], role: str, n_pulses: int,
                acc: MomentAccumulator,
                digest) -> Iterator[bytes | memoryview]:
    """Yield an arm's CSV bytes from its chunks: the header line, then each
    chunk in pieces of ``SUB_BLOCK_ROWS`` rows, shot numbers running on
    across chunks.  Each chunk is checked finite and fed to ``acc`` before
    it is formatted; each piece is fed to ``digest``."""
    header = ("shot," + ",".join(_COLUMNS[:n_pulses]) + "\n").encode()
    digest.update(header)
    yield header
    start = 0
    for chunk in chunks:
        bad = _nonfinite_row(chunk)
        if bad is not None:
            raise RecordError(f"{role} arm: row {start + bad}"
                              " holds a non-finite value; not written")
        acc.update(chunk)
        for row in range(0, len(chunk), SUB_BLOCK_ROWS):
            piece = format_rows(chunk[row:row + SUB_BLOCK_ROWS], start + row)
            digest.update(piece)
            yield piece
            del piece  # freed before the next piece is formatted
        start += len(chunk)


def _check_arms_agree(what: str, counts: list[int], tail: str = "") -> None:
    if counts[0] != counts[1]:
        raise RecordError(f"arms disagree on the {what}: {counts[0]} "
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
        _check_arms_agree("shot count",
                          [acc.count for _, acc in arms.values()],
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
                bad = _nonfinite_row(data)
                if bad is not None:
                    row = start + bad
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
    version = meta.get("schema_version")
    n_pulses, seed = meta.get("n_pulses"), meta.get("seed")
    for field, valid, rule in (
            ("schema_version", type(version) is int and 1 <= version <= 2,
             "1 or 2"),
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


def _file_sha256(path: Path) -> str:
    """The file's sha256, read through one reused buffer: a new block per
    read would grow the malloc arena of the thread that hashes."""
    digest, block = hashlib.sha256(), bytearray(_HASH_BLOCK_BYTES)
    view = memoryview(block)
    try:
        with open(path, "rb") as handle:
            while size := handle.readinto(block):
                digest.update(view[:size])
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
    acc = MomentAccumulator(n_pulses)
    acc.count, acc.mean, acc.comoment = count, mean, comoment
    return _arm_moments(acc, meta_path)


def _arm_moments(acc: MomentAccumulator, path: str | Path) -> MomentSet:
    """``acc.moments()``, its refusal a ``RecordError`` naming ``path``."""
    try:
        return acc.moments()
    except UndefinedInputError as exc:
        raise RecordError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class RecordSet:
    """Both arms' moments, with what the record set's digests and sidecar
    say about them.

    ``moments`` holds the (with-atoms, no-atoms) moments; ``moments_source``
    says where they came from: ``"sidecar"`` when its stored summaries
    match both digests, else ``"parsed"``.  ``sha256`` holds each CSV's
    digest by role, and ``stale`` the CSVs whose digest differs from the
    one the sidecar stored for them.  A sidecar that a CSV contradicts
    supplies nothing else: ``seed``, ``params_hash`` and ``r_l`` are then
    None, as without a sidecar.
    """

    moments: tuple[MomentSet, MomentSet]
    moments_source: str
    sha256: dict[str, str]
    seed: int | None = None
    params_hash: str | None = None
    r_l: float | None = None
    stale: tuple[Path, ...] = ()


def _parsed_moments(paths: dict[str, Path], meta: dict,
                    meta_path) -> tuple[MomentSet, MomentSet]:
    """Both arms' moments, each arm parsed and accumulated chunk by chunk,
    never held whole.  Each file gets every check of ``_read_arm``; the
    arms must agree on the shot and pulse counts and with ``meta``'s own,
    when it has any."""
    accs = []
    for role, path in paths.items():
        chunks = _read_arm(path)
        first = next(chunks)  # a file has one or more
        acc = MomentAccumulator(first.shape[1])
        acc.update(first)
        for chunk in chunks:
            acc.update(chunk)
        for field, count in (("n_pulses", acc.mean.size),
                             ("n_shots", acc.count)):
            if meta and meta[field] != count:
                raise RecordError(f"{meta_path}: sidecar says {meta[field]} "
                                  f"{field[2:]}, {role} data has {count}")
        accs.append(acc)
    _check_arms_agree("shot count", [acc.count for acc in accs])
    _check_arms_agree("pulse count", [acc.mean.size for acc in accs])
    return tuple(_arm_moments(acc, path)
                 for acc, path in zip(accs, paths.values()))


def read_records(with_atoms_path: str | Path, no_atoms_path: str | Path,
                 meta_path: str | Path | None = None) -> RecordSet:
    """Read a record set; see :class:`RecordSet`.

    Both CSVs are hashed in fixed-size blocks, one arm per thread
    (:func:`qndcert.statistics.map_arms`), and the sidecar, when given,
    is read and checked once.  When both digests match the sidecar's, the
    moments come from its stored summaries and no CSV is parsed;
    otherwise each CSV is parsed with every check of ``_read_arm``, and
    held to the sidecar's shot and pulse counts unless a CSV contradicts
    it."""
    paths = {"with_atoms": Path(with_atoms_path),
             "no_atoms": Path(no_atoms_path)}
    sha256 = dict(zip(ARM_ROLES,
                      map_arms(lambda role: _file_sha256(paths[role]))))
    meta = {} if meta_path is None else _read_meta(meta_path)
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
    if stale:  # a sidecar that a CSV contradicts supplies nothing
        meta, arms, r_l = {}, {}, None
    if all(role in arms for role in ARM_ROLES):
        moments = tuple(_stored_moments(meta, arms[role], meta_path)
                        for role in ARM_ROLES)
        source = "sidecar"
    else:
        moments, source = _parsed_moments(paths, meta, meta_path), "parsed"
    return RecordSet(moments, source, sha256, meta.get("seed"),
                     meta.get("params_hash"), r_l, stale)
