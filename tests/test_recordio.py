import dataclasses
import errno
import hashlib
import itertools
import json
import os
import stat
import threading
import warnings

import numpy as np
import pytest

from qndcert import (
    AtomicBlock,
    Layout,
    MomentAccumulator,
    OpticalBlock,
    RecordError,
    delta_stats,
    make_initial_state,
)
from qndcert import params_hash, recordio
from qndcert.montecarlo import arm_chunks, simulate_moments
from qndcert.recordfmt import format_rows
from qndcert.recordio import (
    SUB_BLOCK_ROWS,
    read_records,
    sibling_meta_path,
    write_arms,
    write_atomic,
)
from qndcert.statistics import ARM_ROLES, CHUNK_SHOTS

SMALL_HASH = "0123456789abcdef"


def _drawn(param_set, n_shots, seed):
    """Each arm's shots of a run of at most one chunk, by role."""
    assert n_shots <= CHUNK_SHOTS
    return {role: np.array(next(arm_chunks(*param_set, n_shots, seed,
                                           with_atoms=role == "with_atoms")))
            for role in ARM_ROLES}


@pytest.fixture
def small_rows(noisy_set):
    return _drawn(noisy_set, 64, 21)


def _write(rows, prefix, r_l=None):
    """Write ``rows`` (by role), one chunk per arm, as seed 21."""
    return write_arms(lambda role: [rows[role]], prefix,
                      rows["with_atoms"].shape[1], 21, SMALL_HASH, r_l)


def _write_run(param_set, n_shots, seed, prefix, r_l=None):
    """Write a run as ``qndc simulate`` does, chunk by chunk."""
    params, noise, initial = param_set
    return write_arms(
        lambda role: arm_chunks(params, noise, initial, n_shots, seed,
                                with_atoms=role == "with_atoms"),
        prefix, initial.layout.n_pulses, seed,
        params_hash(params, noise, initial), r_l)


def _assert_parsed(path, chunks):
    """The CSV at ``path`` parses to ``chunks``, one by one, bit for bit."""
    for got, want in itertools.zip_longest(recordio._read_arm(path), chunks):
        assert got is not None and want is not None
        np.testing.assert_array_equal(got, want)


class TestRoundTrip:
    def test_exact(self, tmp_path, small_rows):
        paths = _write(small_rows, tmp_path / "run")
        for role in ARM_ROLES:
            _assert_parsed(paths[role], [small_rows[role]])
        records = read_records(paths["with_atoms"], paths["no_atoms"],
                               paths["meta"])
        assert records.seed == 21
        assert records.params_hash == SMALL_HASH

    def test_without_sidecar(self, tmp_path, small_rows):
        paths = _write(small_rows, tmp_path / "run")
        records = read_records(paths["with_atoms"], paths["no_atoms"])
        assert records.seed is None
        assert records.moments_source == "parsed"
        for got in records.moments:
            assert got.n_shots == 64

    def test_file_layout(self, tmp_path, small_rows):
        paths = _write(small_rows, tmp_path / "run")
        assert paths["with_atoms"].name == "run.with_atoms.csv"
        text = paths["with_atoms"].read_text()
        lines = text.splitlines()
        assert lines[0] == "shot,p_y,q_y,r_y"
        assert lines[1].startswith("0,")
        assert len(lines) == 65
        assert text.endswith("\n")

    def test_sidecar_contents(self, tmp_path, small_rows):
        paths = _write(small_rows, tmp_path / "run")
        meta = json.loads(paths["meta"].read_text())
        assert meta["kind"] == "shot_records"
        assert meta["n_shots"] == 64
        assert meta["n_pulses"] == 3
        assert meta["seed"] == 21

    def test_sibling_discovery(self, tmp_path, small_rows):
        paths = _write(small_rows, tmp_path / "run")
        assert sibling_meta_path(paths["with_atoms"]) == paths["meta"]
        assert sibling_meta_path(tmp_path / "other.csv") is None
        (tmp_path / "lone.with_atoms.csv").write_text("shot,p_y\n0,1.0\n")
        assert sibling_meta_path(tmp_path / "lone.with_atoms.csv") is None


class TestFormat:
    EDGE_VALUES = np.array([
        [-0.0, 5e-324],
        [1e-310, 1.7976931348623157e308],
        [0.1, 1 / 3],
        [1.0, -123456789.0],
    ])
    EDGE_TEXT = (
        "shot,p_y,q_y\n"
        "0,-0,4.9406564584124654e-324\n"
        "1,9.9999999999999694e-311,1.7976931348623157e+308\n"
        "2,0.10000000000000001,0.33333333333333331\n"
        "3,1,-123456789\n"
    )

    def test_golden_bytes(self, tmp_path):
        rows = {"with_atoms": self.EDGE_VALUES,
                "no_atoms": self.EDGE_VALUES[::-1]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = _write(rows, tmp_path / "edge")
        # the summaries overflow, so the sidecar leaves them out
        assert "arms" not in json.loads(paths["meta"].read_text())
        assert paths["with_atoms"].read_bytes() == self.EDGE_TEXT.encode()
        for role in ARM_ROLES:
            _assert_parsed(paths[role], [rows[role]])
        (parsed,) = recordio._read_arm(paths["with_atoms"])
        np.testing.assert_array_equal(np.signbit(parsed),
                                      np.signbit(self.EDGE_VALUES))

    def test_shot_index_continues_across_blocks(self, tmp_path, noisy_set):
        params, noise, initial = noisy_set
        n_shots = CHUNK_SHOTS + 5
        paths = _write_run(noisy_set, n_shots, 4, tmp_path / "big")
        lines = paths["with_atoms"].read_text().splitlines()
        assert len(lines) == n_shots + 1
        shots = [int(line.split(",", 1)[0]) for line in lines[1:]]
        assert shots == list(range(n_shots))
        for role in ARM_ROLES:
            _assert_parsed(paths[role], arm_chunks(
                params, noise, initial, n_shots, 4,
                with_atoms=role == "with_atoms"))


def _initial(n_pulses):
    return make_initial_state(AtomicBlock.coherent(100.0),
                              OpticalBlock.coherent(100.0, n_pulses),
                              Layout(n_pulses))


def _without_arms(meta):
    """A copy of sidecar ``meta`` without its ``arms`` block: readers then
    parse the CSVs and hold them to its counts."""
    return {key: value for key, value in meta.items() if key != "arms"}


def _drop_arms(meta_path):
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps(_without_arms(meta)))


def _edit_byte(path, offset, new):
    data = bytearray(path.read_bytes())
    data[offset] = ord(new)
    path.write_bytes(bytes(data))


class TestSummary:
    @pytest.mark.parametrize("n_shots", [2, CHUNK_SHOTS - 1, CHUNK_SHOTS + 1,
                                         50_000])
    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    def test_sidecar_moments_equal_parsed_moments(self, tmp_path, noisy_set,
                                                  n_pulses, n_shots):
        params, noise, _ = noisy_set
        paths = _write_run((params, noise, _initial(n_pulses)), n_shots, 7,
                           tmp_path / "run")
        records = read_records(paths["with_atoms"], paths["no_atoms"],
                               paths["meta"])
        assert records.moments_source == "sidecar"
        parsed = read_records(paths["with_atoms"], paths["no_atoms"])
        assert parsed.moments_source == "parsed"
        for stored, reference in zip(records.moments, parsed.moments):
            assert stored.n_shots == reference.n_shots == n_shots
            assert stored.entries() == reference.entries()
            assert stored.se == reference.se

    def test_sidecar_holds_digests_and_r_l(self, tmp_path, small_rows):
        paths = _write(small_rows, tmp_path / "run", r_l=0.9)
        meta = json.loads(paths["meta"].read_text())
        assert meta["schema_version"] == 2
        assert meta["r_l"] == 0.9
        for role in ("with_atoms", "no_atoms"):
            digest = hashlib.sha256(paths[role].read_bytes()).hexdigest()
            assert meta["arms"][role]["sha256"] == digest
            assert meta["arms"][role]["count"] == 64
        records = read_records(paths["with_atoms"], paths["no_atoms"],
                               paths["meta"])
        assert records.r_l == 0.9 and records.seed == 21
        assert records.params_hash == SMALL_HASH

    def test_sidecar_is_byte_identical_across_reruns(self, tmp_path,
                                                     small_rows):
        first = _write(small_rows, tmp_path / "a", r_l=0.9)
        second = _write(small_rows, tmp_path / "b", r_l=0.9)
        assert first["meta"].read_bytes() == second["meta"].read_bytes()

    def test_no_sidecar_means_parsing(self, tmp_path, small_rows):
        paths = _write(small_rows, tmp_path / "run")
        records = read_records(paths["with_atoms"], paths["no_atoms"])
        assert records.moments_source == "parsed" and records.stale == ()

    def test_schema_1_sidecar_still_reads(self, tmp_path, small_rows):
        paths = _write(small_rows, tmp_path / "run")
        meta = json.loads(paths["meta"].read_text())
        del meta["arms"], meta["r_l"]
        meta["schema_version"] = 1
        paths["meta"].write_text(json.dumps(meta, indent=2) + "\n")
        records = read_records(paths["with_atoms"], paths["no_atoms"],
                               paths["meta"])
        assert records.moments_source == "parsed" and records.stale == ()
        assert records.seed == 21 and records.r_l is None
        assert records.params_hash == SMALL_HASH
        for got in records.moments:
            assert got.n_shots == 64

    def test_swapped_arms_are_parsed(self, tmp_path, small_rows):
        paths = _write(small_rows, tmp_path / "run")
        records = read_records(paths["no_atoms"], paths["with_atoms"],
                               paths["meta"])
        assert records.moments_source == "parsed"
        assert records.stale == (paths["no_atoms"], paths["with_atoms"])

    @pytest.mark.parametrize("role", ["with_atoms", "no_atoms"])
    def test_edited_byte_is_parsed(self, tmp_path, small_rows, role):
        paths = _write(small_rows, tmp_path / "run")
        data = paths[role].read_bytes()
        offset = len(data) - 5  # the 14th digit of the last value
        assert chr(data[offset]).isdigit()
        _edit_byte(paths[role], offset, "7" if data[offset] != ord("7")
                   else "8")
        records = read_records(paths["with_atoms"], paths["no_atoms"],
                               paths["meta"])
        assert records.moments_source == "parsed"
        assert records.stale == (paths[role],)
        (parsed,) = recordio._read_arm(paths[role])
        assert not np.array_equal(parsed, small_rows[role])

    @pytest.mark.parametrize("role", ["with_atoms", "no_atoms"])
    def test_stale_sidecar_gives_only_its_digests(self, tmp_path,
                                                  small_rows, role):
        paths = _write(small_rows, tmp_path / "run", r_l=0.9)
        with open(paths[role], "ab") as handle:
            handle.write(b"\n")
        records = read_records(paths["with_atoms"], paths["no_atoms"],
                               paths["meta"])
        assert records.stale == (paths[role],)
        assert (records.seed, records.params_hash, records.r_l) == \
            (None, None, None)

    @pytest.mark.parametrize("role", ["with_atoms", "no_atoms"])
    def test_edit_to_non_numeric_is_refused(self, tmp_path, small_rows,
                                            role):
        paths = _write(small_rows, tmp_path / "run")
        _edit_byte(paths[role], 200, "x")
        with pytest.raises(RecordError, match=paths[role].name):
            read_records(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])

    @pytest.mark.parametrize("arms", [[], {"with_atoms": 5}])
    def test_malformed_arms_block_is_refused(self, tmp_path, small_rows,
                                             arms):
        paths = _write(small_rows, tmp_path / "run")
        meta = json.loads(paths["meta"].read_text())
        meta["arms"] = arms
        paths["meta"].write_text(json.dumps(meta))
        with pytest.raises(RecordError, match="malformed arms block"):
            read_records(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])

    @pytest.mark.parametrize("field, value, message", [
        ("count", 63, "disagrees"),
        ("mean", [0.0, 0.0], "disagrees"),
        ("comoment", [[1.0]], "disagrees"),
        ("mean", [0.0, float("nan"), 0.0], "non-finite"),
        ("comoment", "x", "malformed"),
    ])
    def test_bad_summary_is_refused(self, tmp_path, small_rows, field,
                                    value, message):
        paths = _write(small_rows, tmp_path / "run")
        meta = json.loads(paths["meta"].read_text())
        meta["arms"]["with_atoms"][field] = value
        paths["meta"].write_text(json.dumps(meta))
        with pytest.raises(RecordError, match=message):
            read_records(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])


class TestOneGrain:
    """Every route to an arm's moments accumulates the same ``CHUNK_SHOTS``
    chunks, however its rows arrive: same bits."""

    @pytest.mark.parametrize("n_shots", [CHUNK_SHOTS - 1,
                                         2 * CHUNK_SHOTS + 5])
    def test_every_route_gives_the_same_moments(self, tmp_path, noisy_set,
                                                n_shots):
        params, noise, initial = noisy_set
        paths = _write_run(noisy_set, n_shots, 3, tmp_path / "run")
        csvs = paths["with_atoms"], paths["no_atoms"]

        def whole(path):
            acc = MomentAccumulator(3)
            acc.update(np.concatenate(list(recordio._read_arm(path))))
            return acc.moments()

        routes = {
            "sidecar": read_records(*csvs, paths["meta"]).moments,
            "parsed": read_records(*csvs).moments,
            "parsed whole": tuple(whole(path) for path in csvs),
        }
        streamed = simulate_moments(params, noise, initial, n_shots, 3)
        for name, moments in routes.items():
            for got, want in zip(moments, streamed):
                assert got.n_shots == want.n_shots == n_shots, name
                np.testing.assert_array_equal(got.cov, want.cov, name)
                np.testing.assert_array_equal(got.moment_cov, want.moment_cov,
                                              name)

    @pytest.mark.parametrize("n_shots", [1, CHUNK_SHOTS + 1])
    def test_streamed_write_equals_in_memory_write(self, tmp_path, noisy_set,
                                                   n_shots):
        # the sampler's chunks, and the same arm handed over as one array
        params, noise, initial = noisy_set
        streamed = _write_run(noisy_set, n_shots, 8, tmp_path / "a", r_l=0.9)
        arms = {role: np.concatenate([chunk.copy() for chunk in arm_chunks(
                    params, noise, initial, n_shots, 8,
                    with_atoms=role == "with_atoms")])
                for role in ARM_ROLES}
        in_memory = write_arms(lambda role: [arms[role]], tmp_path / "b", 3, 8,
                               params_hash(params, noise, initial), 0.9)
        for key, path in streamed.items():
            assert in_memory[key].read_bytes() == path.read_bytes(), key

    def test_oversized_chunk_keeps_the_grain(self, tmp_path):
        # one chunk of more than CHUNK_SHOTS rows per arm: the sidecar's
        # summaries are the parsed moments, bit for bit (summed in one
        # piece, they differed in the last bits)
        rng = np.random.default_rng(8)
        rows = {role: rng.normal(3.0, 7.0, (20_000, 3)) for role in ARM_ROLES}
        paths = write_arms(lambda role: [rows[role]], tmp_path / "run", 3)
        csvs = paths["with_atoms"], paths["no_atoms"]
        stored = read_records(*csvs, paths["meta"]).moments
        for got, want in zip(stored, read_records(*csvs).moments,
                             strict=True):
            np.testing.assert_array_equal(got.cov, want.cov)
            np.testing.assert_array_equal(got.moment_cov, want.moment_cov)

    def test_streamed_non_finite_value_names_its_row(self, tmp_path):
        # a chunk past the first: the global row is named, nothing is left
        def chunks(role):
            for start in range(0, 3 * CHUNK_SHOTS, CHUNK_SHOTS):
                chunk = np.ones((CHUNK_SHOTS, 2))
                if role == "no_atoms" and start == CHUNK_SHOTS:
                    chunk[7, 1] = np.inf
                yield chunk

        with pytest.raises(RecordError, match=rf"no_atoms arm: row "
                                              rf"{CHUNK_SHOTS + 7} holds"):
            write_arms(chunks, tmp_path / "run", 2)
        assert list(tmp_path.iterdir()) == []


class TestSidecarFields:
    """Schema version, counts, seed and hash in a sidecar must have the
    types and values the writer gives them; anything else is refused,
    whether or not the CSVs are parsed."""

    @pytest.mark.parametrize("field, value", [
        ("n_pulses", 3.0), ("n_pulses", True), ("n_pulses", 4),
        ("n_pulses", None), ("n_shots", 64.0), ("n_shots", False),
        ("n_shots", "64"), ("seed", 21.5), ("seed", -1), ("seed", True),
        ("seed", "21"), ("params_hash", 5), ("params_hash", ["x"]),
        # a later schema must not be read as if it were schema 2
        ("schema_version", 3), ("schema_version", 99), ("schema_version", 0),
        ("schema_version", 2.0), ("schema_version", True),
        ("schema_version", None),
    ])
    def test_bad_field_is_refused(self, tmp_path, small_rows, field,
                                  value):
        paths = _write(small_rows, tmp_path / "run")
        meta = json.loads(paths["meta"].read_text())
        meta[field] = value
        for edit in (meta, _without_arms(meta)):
            paths["meta"].write_text(json.dumps(edit))
            with pytest.raises(RecordError, match=f"{field} must be"):
                read_records(paths["with_atoms"], paths["no_atoms"],
                             paths["meta"])

    @pytest.mark.parametrize("value", [64.0, True, "64", None])
    def test_non_integer_arm_count_is_refused(self, tmp_path, small_rows,
                                              value):
        paths = _write(small_rows, tmp_path / "run")
        meta = json.loads(paths["meta"].read_text())
        for role in ("with_atoms", "no_atoms"):
            meta["arms"][role]["count"] = value
        paths["meta"].write_text(json.dumps(meta))
        with pytest.raises(RecordError, match="arm count must be an integer"):
            read_records(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])

    @pytest.mark.parametrize("seed, params_hash", [(0, None), (None, "ab")])
    def test_null_and_boundary_values_are_accepted(self, tmp_path,
                                                   small_rows, seed,
                                                   params_hash):
        paths = _write(small_rows, tmp_path / "run")
        meta = json.loads(paths["meta"].read_text())
        meta["seed"], meta["params_hash"] = seed, params_hash
        paths["meta"].write_text(json.dumps(meta))
        records = read_records(paths["with_atoms"], paths["no_atoms"],
                               paths["meta"])
        assert (records.seed, records.params_hash) == (seed, params_hash)
        assert records.moments_source == "sidecar"


class TestReadValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(RecordError, match="nope"):
            read_records(tmp_path / "nope.csv", tmp_path / "nope2.csv")

    def test_wrong_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,p_y\n0,1.0\n")
        good = tmp_path / "good.csv"
        good.write_text("shot,p_y\n0,1.0\n")
        with pytest.raises(RecordError, match="header"):
            read_records(bad, good)

    def test_corrupt_number(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("shot,p_y\n0,1.0\n1,oops\n")
        with pytest.raises(RecordError):
            read_records(bad, bad)

    def test_more_columns_than_the_header_names(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("shot,p_y\n0,1.0,2.0\n1,3.0,4.0\n")
        with pytest.raises(RecordError, match=r"bad\.csv: expected 2 "
                                              r"columns of data, got shape "
                                              r"\(2, 3\)"):
            read_records(bad, bad)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"shot,p_y,q_y\n0,1.0,2.0\n1,3.0,{value}\n")
        with pytest.raises(RecordError,
                           match=r"bad\.csv: row 1 .*non-finite"):
            read_records(bad, bad)

    @pytest.mark.parametrize("shots, bad_row", [
        ([0, 1, 1, 3], 2),
        ([0, 2, 1, 3], 1),
        ([0, 1, 2, 3, 4, 77, 6], 5),
        ([1, 2, 3], 0),
    ], ids=["duplicated", "out-of-order", "jump", "one-based"])
    def test_shot_index_must_count_from_zero(self, tmp_path, shots, bad_row):
        bad = tmp_path / "bad.csv"
        bad.write_text("shot,p_y\n" + "".join(f"{s},1.5\n" for s in shots))
        with pytest.raises(RecordError,
                           match=rf"bad\.csv: row {bad_row} .*shot index "
                                 rf"{shots[bad_row]}, expected {bad_row}"):
            read_records(bad, bad)

    @pytest.mark.parametrize("value, message", [
        ("nan", "holds a non-finite value"),
        ("shot", "has shot index 0, expected"),
    ])
    def test_rows_are_counted_across_chunks(self, tmp_path, value, message):
        # the bad row lies in the second parsed chunk
        bad_row = CHUNK_SHOTS + 2
        lines = [f"{shot},1.5\n" for shot in range(CHUNK_SHOTS + 5)]
        lines[bad_row] = (f"{bad_row},nan\n" if value == "nan"
                          else "0,1.5\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("shot,p_y\n" + "".join(lines))
        with pytest.raises(RecordError,
                           match=rf"row {bad_row} \(line {bad_row + 2}\) "
                                 rf"{message}"):
            read_records(bad, bad)

    def test_parse_error_names_its_chunk(self, tmp_path):
        lines = [f"{shot},1.5\n" for shot in range(CHUNK_SHOTS + 5)]
        lines[CHUNK_SHOTS + 3] = f"{CHUNK_SHOTS + 3},oops\n"
        bad = tmp_path / "bad.csv"
        bad.write_text("shot,p_y\n" + "".join(lines))
        with pytest.raises(RecordError,
                           match=rf"'oops'.* at row 3, column 2\. \(in the "
                                 rf"chunk from row {CHUNK_SHOTS}, line "
                                 rf"{CHUNK_SHOTS + 2}\)"):
            read_records(bad, bad)

    def test_empty_data(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("shot,p_y\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RecordError, match="bad.csv: no data rows"):
                read_records(bad, bad)
        assert caught == []

    def test_one_row_arms_are_refused_naming_the_csv(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("shot,p_y\n0,1.0\n")
        b = tmp_path / "b.csv"
        b.write_text("shot,p_y\n0,3.0\n")
        with pytest.raises(RecordError,
                           match=f"^{a}: need at least 2 shots per arm$"):
            read_records(a, b)

    def test_sidecar_of_one_shot_arms_is_refused_naming_it(self, tmp_path,
                                                           small_rows):
        # the digests match, so the stored summaries are read
        paths = _write(small_rows, tmp_path / "run")
        meta = json.loads(paths["meta"].read_text())
        meta["n_shots"] = 1
        for arm in meta["arms"].values():
            arm["count"] = 1
        paths["meta"].write_text(json.dumps(meta))
        with pytest.raises(RecordError, match=f"^{paths['meta']}: need at "
                                              f"least 2 shots per arm$"):
            read_records(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])

    def test_arm_shape_mismatch(self, tmp_path):
        # arms read as separate record sets still meet delta_stats' refusal
        a = tmp_path / "a.csv"
        a.write_text("shot,p_y,q_y\n0,1.0,2.0\n1,3.0,4.0\n")
        b = tmp_path / "b.csv"
        b.write_text("shot,p_y\n0,1.0\n1,3.0\n")
        with pytest.raises(ValueError, match="pulse count: 2 vs 1"):
            delta_stats(read_records(a, a).moments[0],
                        read_records(b, b).moments[1], 1.0)

    def test_arms_of_unequal_length_are_refused(self, tmp_path):
        # without a sidecar nothing else holds the arms to one shot count
        a = tmp_path / "a.csv"
        a.write_text("shot,p_y\n0,1.0\n1,2.0\n2,4.0\n")
        b = tmp_path / "b.csv"
        b.write_text("shot,p_y\n0,1.0\n1,3.0\n")
        with pytest.raises(RecordError, match="^arms disagree on the shot "
                                              "count: 3 with_atoms, 2 "
                                              "no_atoms$"):
            read_records(a, b)

    def test_arms_of_unequal_width_are_refused(self, tmp_path):
        # without a sidecar nothing else holds the arms to one pulse count
        a = tmp_path / "a.csv"
        a.write_text("shot,p_y,q_y\n0,1.0,2.0\n1,3.0,4.0\n")
        b = tmp_path / "b.csv"
        b.write_text("shot,p_y\n0,1.0\n1,3.0\n")
        with pytest.raises(RecordError, match="^arms disagree on the pulse "
                                              "count: 2 with_atoms, 1 "
                                              "no_atoms$"):
            read_records(a, b)

    def test_meta_shot_count_mismatch(self, tmp_path, small_rows):
        paths = _write(small_rows, tmp_path / "run")
        meta = json.loads(paths["meta"].read_text())
        meta["n_shots"] = 9999
        paths["meta"].write_text(json.dumps(_without_arms(meta)))
        with pytest.raises(RecordError, match="9999"):
            read_records(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])

    @pytest.mark.parametrize("role", ["with_atoms", "no_atoms"])
    def test_meta_shot_count_is_checked_for_each_arm(self, tmp_path,
                                                     small_rows, role):
        paths = _write(small_rows, tmp_path / "run")
        _drop_arms(paths["meta"])
        lines = paths[role].read_text().splitlines(keepends=True)
        paths[role].write_text("".join(lines[:33]))
        with pytest.raises(RecordError,
                           match=rf"64 shots, {role} data has 32"):
            read_records(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])

    def test_meta_pulse_count_is_checked_for_each_arm(self, tmp_path,
                                                      small_rows,
                                                      noisy_set):
        params, noise, _ = noisy_set
        paths = _write(small_rows, tmp_path / "run")
        _drop_arms(paths["meta"])
        other = _write_run((params, noise, _initial(2)), 64, 5,
                           tmp_path / "other")
        paths["no_atoms"].write_bytes(other["no_atoms"].read_bytes())
        with pytest.raises(RecordError,
                           match=r"3 pulses, no_atoms data has 2"):
            read_records(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])

    @pytest.mark.parametrize("role", ["with_atoms", "no_atoms"])
    def test_moments_that_overflow_are_refused(self, tmp_path, role):
        # each value is finite, but its square is not: refused by name,
        # with no numpy warning on the way
        paths = {name: tmp_path / f"{name}.csv" for name in ARM_ROLES}
        for name, path in paths.items():
            value = 1e160 if name == role else 1.0
            path.write_text(f"shot,p_y\n0,{value}\n1,{-value}\n")
        with pytest.raises(RecordError, match=f"^{paths[role]}: the mean or "
                                              f"comoment of its values "
                                              f"overflows$"):
            read_records(paths["with_atoms"], paths["no_atoms"])

    def test_unreadable_paths_are_refused(self, tmp_path, small_rows):
        # a directory where a file should be: refused by name, exit 2
        with pytest.raises(RecordError, match=f"^{tmp_path}: Is a directory$"):
            list(recordio._read_arm(tmp_path))
        paths = _write(small_rows, tmp_path / "run")
        with pytest.raises(RecordError, match=f"^{tmp_path}: Is a directory$"):
            read_records(paths["with_atoms"], paths["no_atoms"], tmp_path)

    def test_meta_wrong_kind(self, tmp_path, small_rows):
        paths = _write(small_rows, tmp_path / "run")
        paths["meta"].write_text('{"kind": "something_else"}')
        with pytest.raises(RecordError, match="sidecar"):
            read_records(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])

    def test_meta_bad_json_reports_position(self, tmp_path, small_rows):
        paths = _write(small_rows, tmp_path / "run")
        paths["meta"].write_text("{broken")
        with pytest.raises(RecordError, match=r":1:2:"):
            read_records(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])


class TestWriteValidation:
    @pytest.mark.parametrize("arm", ["with_atoms", "no_atoms"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_refused(self, tmp_path, small_rows, arm,
                                         value):
        small_rows[arm][5, 1] = value
        with pytest.raises(RecordError, match=rf"{arm}.*row 5.*non-finite"):
            _write(small_rows, tmp_path / "run")
        assert list(tmp_path.iterdir()) == []

    def test_arms_of_different_lengths_are_refused(self, tmp_path,
                                                   small_rows):
        small_rows["no_atoms"] = small_rows["no_atoms"][:32]
        with pytest.raises(RecordError, match=r"64 with_atoms.*32 no_atoms"):
            _write(small_rows, tmp_path / "run")
        assert list(tmp_path.iterdir()) == []


def _serial_files(param_set, n_shots, seed, r_l):
    """The bytes of each file of a run written as ``qndc simulate`` writes
    it, made one arm after the other, each chunk formatted in one piece."""
    params, noise, initial = param_set
    n_pulses = initial.layout.n_pulses
    files, arms = {}, {}
    for role in ARM_ROLES:
        header = "shot," + ",".join(["p_y", "q_y", "r_y"][:n_pulses])
        pieces, start = [(header + "\n").encode()], 0
        acc = MomentAccumulator(n_pulses)
        for chunk in arm_chunks(params, noise, initial, n_shots, seed,
                                with_atoms=role == "with_atoms"):
            pieces.append(format_rows(chunk, start))
            acc.update(chunk)
            start += len(chunk)
        files[role] = b"".join(pieces)
        arms[role] = {"sha256": hashlib.sha256(files[role]).hexdigest(),
                      "count": acc.count, "mean": acc.mean.tolist(),
                      "comoment": acc.comoment.tolist()}
    meta = {"schema_version": 2, "kind": "shot_records", "seed": seed,
            "n_shots": n_shots, "n_pulses": n_pulses,
            "params_hash": params_hash(params, noise, initial), "r_l": r_l,
            "arms": arms}
    files["meta"] = (json.dumps(meta, indent=2) + "\n").encode()
    return files


class TestArmThreads:
    """Both arms are formatted, hashed and written side by side; the
    files must be those of a serial write."""

    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    @pytest.mark.parametrize("n_shots", [1, SUB_BLOCK_ROWS + 1,
                                         CHUNK_SHOTS + 1])
    def test_equals_serial_write(self, tmp_path, noisy_set, n_pulses,
                                 n_shots):
        params, noise, _ = noisy_set
        run = params, noise, _initial(n_pulses)
        paths = _write_run(run, n_shots, 6, tmp_path / "run", r_l=0.9)
        for role, data in _serial_files(run, n_shots, 6, 0.9).items():
            assert paths[role].read_bytes() == data, role

    @pytest.mark.parametrize("blocked", [("no_atoms",), ("with_atoms",),
                                         ("with_atoms", "no_atoms")])
    def test_failed_arm_reaches_the_caller(self, tmp_path, small_rows,
                                           blocked):
        # a directory where an arm's CSV should go makes its rename fail
        for role in blocked:
            (tmp_path / f"run.{role}.csv").mkdir()
        threads = threading.active_count()
        with pytest.raises(IsADirectoryError) as caught:
            _write(small_rows, tmp_path / "run")
        first = tmp_path / f"run.{blocked[0]}.csv"
        assert caught.value.filename2 == str(first)
        assert threading.active_count() == threads
        assert list(tmp_path.glob("*.csv.*")) == []
        assert not (tmp_path / "run.meta.json").exists()

    @pytest.mark.parametrize("failing", ["with_atoms", "no_atoms"])
    def test_failed_write_keeps_the_previous_set(self, tmp_path, noisy_set,
                                                 monkeypatch, failing):
        # one arm's formatting runs out of disk space part way through a
        # rewrite: the set written before must survive whole
        n_shots = SUB_BLOCK_ROWS + 1000  # two pieces
        old_paths = _write(_drawn(noisy_set, n_shots, 1), tmp_path / "run")
        before = {role: path.read_bytes() for role, path in old_paths.items()}
        rows = _drawn(noisy_set, n_shots, 2)
        bad_rows = rows[failing]

        def format_piece(rows, first_shot, _format=recordio.format_rows):
            # the failing arm's second piece: its first is written
            if first_shot > 0 and np.shares_memory(rows, bad_rows):
                raise OSError(errno.ENOSPC, "No space left on device")
            return _format(rows, first_shot)

        monkeypatch.setattr(recordio, "format_rows", format_piece)
        with pytest.raises(OSError, match="No space left"):
            _write(rows, tmp_path / "run")
        assert {role: path.read_bytes()
                for role, path in old_paths.items()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            path.name for path in old_paths.values())


def _assert_same_records(got, want):
    """Two ``RecordSet``s equal field for field, moments bit for bit."""
    for field in dataclasses.fields(got):
        if field.name != "moments":
            assert getattr(got, field.name) == getattr(want, field.name)
    for mine, theirs in zip(got.moments, want.moments, strict=True):
        assert mine.n_shots == theirs.n_shots
        np.testing.assert_array_equal(mine.cov, theirs.cov)
        np.testing.assert_array_equal(mine.moment_cov, theirs.moment_cov)


class TestHashThreads:
    """``read_records`` hashes the two CSVs side by side, one arm per
    thread: its digests, refusals and record set must be those of a
    serial read."""

    @pytest.fixture
    def run(self, noisy_set, tmp_path):
        # 5000 shots at three pulses: each CSV spans two hash blocks
        paths = _write_run(noisy_set, 5000, 8, tmp_path / "run", r_l=0.9)
        assert paths["with_atoms"].stat().st_size > recordio._HASH_BLOCK_BYTES
        return paths

    def test_digests_are_the_files_sha256(self, run):
        records = read_records(run["with_atoms"], run["no_atoms"])
        assert records.sha256 == {
            role: hashlib.sha256(run[role].read_bytes()).hexdigest()
            for role in ARM_ROLES}

    def test_both_missing_names_the_with_atoms_file(self, tmp_path):
        threads = threading.active_count()
        with pytest.raises(RecordError) as caught:
            read_records(tmp_path / "a.with_atoms.csv",
                         tmp_path / "a.no_atoms.csv")
        assert str(caught.value) == (f"{tmp_path / 'a.with_atoms.csv'}: "
                                     "No such file or directory")
        assert threading.active_count() == threads

    @pytest.mark.parametrize("blocked, reason", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory")])
    def test_no_atoms_refusal_names_its_file(self, run, blocked, reason):
        no_atoms = run["no_atoms"]
        no_atoms.unlink()
        if blocked == "directory":
            no_atoms.mkdir()
        threads = threading.active_count()
        with pytest.raises(RecordError) as caught:
            read_records(run["with_atoms"], no_atoms, run["meta"])
        assert str(caught.value) == f"{no_atoms}: {reason}"
        assert threading.active_count() == threads

    @pytest.mark.parametrize("sidecar", ["matching", "stale", "none"])
    def test_equals_serial_read(self, run, monkeypatch, sidecar):
        if sidecar == "stale":
            data = run["no_atoms"].read_bytes()
            offset = len(data) - 5  # the 14th digit of the last value
            _edit_byte(run["no_atoms"], offset,
                       "7" if data[offset] != ord("7") else "8")
        meta = None if sidecar == "none" else run["meta"]
        threads = threading.active_count()
        records = read_records(run["with_atoms"], run["no_atoms"], meta)
        assert threading.active_count() == threads
        monkeypatch.setattr(recordio, "map_arms",
                            lambda fn: (fn("with_atoms"), fn("no_atoms")))
        _assert_same_records(records, read_records(
            run["with_atoms"], run["no_atoms"], meta))
        assert records.moments_source == (
            "sidecar" if sidecar == "matching" else "parsed")


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


class TestFileModes:
    def test_record_set_follows_the_umask(self, tmp_path, small_rows,
                                          umask_022):
        paths = _write(small_rows, tmp_path / "run")
        for path in paths.values():
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name

    def test_atomic_write_follows_the_umask(self, tmp_path, umask_022):
        # every --out JSON goes through write_atomic
        target = tmp_path / "report.json"
        write_atomic(target, b"{}")
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
        target.chmod(0o600)
        write_atomic(target, b"{}")  # a replacement gets the umask's mode
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    def test_a_tighter_umask_is_kept(self, tmp_path, small_rows):
        old = os.umask(0o077)
        try:
            paths = _write(small_rows, tmp_path / "run")
        finally:
            os.umask(old)
        for path in paths.values():
            assert stat.S_IMODE(path.stat().st_mode) == 0o600, path.name


class TestAtomicWrite:
    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        write_atomic(target, b"new")
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_rename_leaves_the_target_and_no_temp_file(self,
                                                              tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        (target / "kept.txt").write_text("kept")
        with pytest.raises(IsADirectoryError):
            write_atomic(target, b"new")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert [p.name for p in target.iterdir()] == ["kept.txt"]
        assert (target / "kept.txt").read_text() == "kept"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        write_atomic(target, [b"con", b"tent"])
        assert target.read_text() == "content"

    def test_values_survive_at_full_precision(self, tmp_path, noisy_set):
        # %.17g repr round-trips every double exactly
        rows = _drawn(noisy_set, 16, 2)
        paths = _write(rows, tmp_path / "p")
        for role in ARM_ROLES:
            (parsed,) = recordio._read_arm(paths[role])
            assert (parsed == rows[role]).all()
