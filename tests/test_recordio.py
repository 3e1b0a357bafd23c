import hashlib
import json
import warnings

import numpy as np
import pytest

from qndcert import (
    AtomicBlock,
    Layout,
    OpticalBlock,
    RecordError,
    ShotRecords,
    make_initial_state,
    read_records,
    sample_moments,
    simulate_shots,
    write_records,
)
from qndcert.montecarlo import CHUNK_SHOTS
from qndcert.recordio import (
    read_summary,
    sibling_meta_path,
    write_atomic,
)


@pytest.fixture
def small_records(noisy_set):
    params, noise, initial = noisy_set
    return simulate_shots(params, noise, initial, 64, 21)


class TestRoundTrip:
    def test_exact(self, tmp_path, small_records):
        paths = write_records(small_records, tmp_path / "run")
        back = read_records(paths["with_atoms"], paths["no_atoms"],
                            paths["meta"])
        np.testing.assert_array_equal(back.with_atoms,
                                      small_records.with_atoms)
        np.testing.assert_array_equal(back.no_atoms, small_records.no_atoms)
        assert back.seed == 21
        assert back.params_hash == small_records.params_hash

    def test_without_sidecar(self, tmp_path, small_records):
        paths = write_records(small_records, tmp_path / "run")
        back = read_records(paths["with_atoms"], paths["no_atoms"])
        np.testing.assert_array_equal(back.with_atoms,
                                      small_records.with_atoms)
        assert back.seed is None

    def test_file_layout(self, tmp_path, small_records):
        paths = write_records(small_records, tmp_path / "run")
        assert paths["with_atoms"].name == "run.with_atoms.csv"
        text = paths["with_atoms"].read_text()
        lines = text.splitlines()
        assert lines[0] == "shot,p_y,q_y,r_y"
        assert lines[1].startswith("0,")
        assert len(lines) == 65
        assert text.endswith("\n")

    def test_sidecar_contents(self, tmp_path, small_records):
        paths = write_records(small_records, tmp_path / "run")
        meta = json.loads(paths["meta"].read_text())
        assert meta["kind"] == "shot_records"
        assert meta["n_shots"] == 64
        assert meta["n_pulses"] == 3
        assert meta["seed"] == 21

    def test_sibling_discovery(self, tmp_path, small_records):
        paths = write_records(small_records, tmp_path / "run")
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
        records = ShotRecords(with_atoms=self.EDGE_VALUES,
                              no_atoms=self.EDGE_VALUES[::-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = write_records(records, tmp_path / "edge")
        # the summaries overflow, so the sidecar leaves them out
        assert "arms" not in json.loads(paths["meta"].read_text())
        assert paths["with_atoms"].read_bytes() == self.EDGE_TEXT.encode()
        back = read_records(paths["with_atoms"], paths["no_atoms"])
        np.testing.assert_array_equal(back.with_atoms, self.EDGE_VALUES)
        np.testing.assert_array_equal(np.signbit(back.with_atoms),
                                      np.signbit(self.EDGE_VALUES))
        np.testing.assert_array_equal(back.no_atoms, self.EDGE_VALUES[::-1])

    def test_shot_index_continues_across_blocks(self, tmp_path, noisy_set):
        params, noise, initial = noisy_set
        n_shots = CHUNK_SHOTS + 5
        records = simulate_shots(params, noise, initial, n_shots, 4)
        paths = write_records(records, tmp_path / "big")
        lines = paths["with_atoms"].read_text().splitlines()
        assert len(lines) == n_shots + 1
        shots = [int(line.split(",", 1)[0]) for line in lines[1:]]
        assert shots == list(range(n_shots))
        back = read_records(paths["with_atoms"], paths["no_atoms"],
                            paths["meta"])
        np.testing.assert_array_equal(back.with_atoms, records.with_atoms)
        np.testing.assert_array_equal(back.no_atoms, records.no_atoms)


def _run_of(n_pulses, n_shots, seed, params, noise):
    initial = make_initial_state(AtomicBlock.coherent(100.0),
                                 OpticalBlock.coherent(100.0, n_pulses),
                                 Layout(n_pulses))
    return simulate_shots(params, noise, initial, n_shots, seed)


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
        records = _run_of(n_pulses, n_shots, 7, params, noise)
        paths = write_records(records, tmp_path / "run")
        summary = read_summary(paths["with_atoms"], paths["no_atoms"],
                               paths["meta"])
        assert summary.moments_source == "sidecar"
        parsed = sample_moments(read_records(
            paths["with_atoms"], paths["no_atoms"], paths["meta"]))
        for stored, reference in zip(summary.moments, parsed):
            assert stored.n_shots == reference.n_shots == n_shots
            assert stored.entries() == reference.entries()
            assert stored.se == reference.se

    def test_sidecar_holds_digests_and_r_l(self, tmp_path, small_records):
        paths = write_records(small_records, tmp_path / "run", r_l=0.9)
        meta = json.loads(paths["meta"].read_text())
        assert meta["schema_version"] == 2
        assert meta["r_l"] == 0.9
        for role in ("with_atoms", "no_atoms"):
            digest = hashlib.sha256(paths[role].read_bytes()).hexdigest()
            assert meta["arms"][role]["sha256"] == digest
            assert meta["arms"][role]["count"] == 64
        summary = read_summary(paths["with_atoms"], paths["no_atoms"],
                               paths["meta"])
        assert summary.r_l == 0.9 and summary.seed == 21
        assert summary.params_hash == small_records.params_hash

    def test_sidecar_is_byte_identical_across_reruns(self, tmp_path,
                                                     small_records):
        first = write_records(small_records, tmp_path / "a", r_l=0.9)
        second = write_records(small_records, tmp_path / "b", r_l=0.9)
        assert first["meta"].read_bytes() == second["meta"].read_bytes()

    def test_no_sidecar_means_parsing(self, tmp_path, small_records):
        paths = write_records(small_records, tmp_path / "run")
        summary = read_summary(paths["with_atoms"], paths["no_atoms"])
        assert summary.moments is None and summary.stale == ()
        assert summary.moments_source == "parsed"

    def test_schema_1_sidecar_still_reads(self, tmp_path, small_records):
        paths = write_records(small_records, tmp_path / "run")
        meta = json.loads(paths["meta"].read_text())
        del meta["arms"], meta["r_l"]
        meta["schema_version"] = 1
        paths["meta"].write_text(json.dumps(meta, indent=2) + "\n")
        summary = read_summary(paths["with_atoms"], paths["no_atoms"],
                               paths["meta"])
        assert summary.moments is None and summary.stale == ()
        assert summary.seed == 21 and summary.r_l is None
        back = read_records(paths["with_atoms"], paths["no_atoms"],
                            paths["meta"])
        assert back.params_hash == small_records.params_hash

    def test_swapped_arms_are_parsed(self, tmp_path, small_records):
        paths = write_records(small_records, tmp_path / "run")
        summary = read_summary(paths["no_atoms"], paths["with_atoms"],
                               paths["meta"])
        assert summary.moments is None
        assert summary.stale == (paths["no_atoms"], paths["with_atoms"])

    @pytest.mark.parametrize("role", ["with_atoms", "no_atoms"])
    def test_edited_byte_is_parsed(self, tmp_path, small_records, role):
        paths = write_records(small_records, tmp_path / "run")
        data = paths[role].read_bytes()
        offset = len(data) - 5  # the 14th digit of the last value
        assert chr(data[offset]).isdigit()
        _edit_byte(paths[role], offset, "7" if data[offset] != ord("7")
                   else "8")
        summary = read_summary(paths["with_atoms"], paths["no_atoms"],
                               paths["meta"])
        assert summary.moments is None and summary.stale == (paths[role],)
        back = read_records(paths["with_atoms"], paths["no_atoms"],
                            paths["meta"])
        assert not np.array_equal(getattr(back, role),
                                  getattr(small_records, role))

    @pytest.mark.parametrize("role", ["with_atoms", "no_atoms"])
    def test_stale_sidecar_gives_only_its_digests(self, tmp_path,
                                                  small_records, role):
        paths = write_records(small_records, tmp_path / "run", r_l=0.9)
        with open(paths[role], "ab") as handle:
            handle.write(b"\n")
        summary = read_summary(paths["with_atoms"], paths["no_atoms"],
                               paths["meta"])
        assert summary.stale == (paths[role],)
        assert (summary.seed, summary.params_hash, summary.r_l) == \
            (None, None, None)

    @pytest.mark.parametrize("role", ["with_atoms", "no_atoms"])
    def test_edit_to_non_numeric_is_refused(self, tmp_path, small_records,
                                            role):
        paths = write_records(small_records, tmp_path / "run")
        _edit_byte(paths[role], 200, "x")
        summary = read_summary(paths["with_atoms"], paths["no_atoms"],
                               paths["meta"])
        assert summary.stale == (paths[role],)
        with pytest.raises(RecordError, match=paths[role].name):
            read_records(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])

    @pytest.mark.parametrize("field, value, message", [
        ("count", 63, "disagrees"),
        ("mean", [0.0, 0.0], "disagrees"),
        ("comoment", [[1.0]], "disagrees"),
        ("mean", [0.0, float("nan"), 0.0], "non-finite"),
        ("comoment", "x", "malformed"),
    ])
    def test_bad_summary_is_refused(self, tmp_path, small_records, field,
                                    value, message):
        paths = write_records(small_records, tmp_path / "run")
        meta = json.loads(paths["meta"].read_text())
        meta["arms"]["with_atoms"][field] = value
        paths["meta"].write_text(json.dumps(meta))
        with pytest.raises(RecordError, match=message):
            read_summary(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])


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

    def test_empty_data(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("shot,p_y\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RecordError, match="bad.csv: no data rows"):
                read_records(bad, bad)
        assert caught == []

    def test_arm_shape_mismatch(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("shot,p_y,q_y\n0,1.0,2.0\n")
        b = tmp_path / "b.csv"
        b.write_text("shot,p_y\n0,1.0\n")
        with pytest.raises(ValueError):
            read_records(a, b)

    def test_meta_shot_count_mismatch(self, tmp_path, small_records):
        paths = write_records(small_records, tmp_path / "run")
        meta = json.loads(paths["meta"].read_text())
        meta["n_shots"] = 9999
        paths["meta"].write_text(json.dumps(meta))
        with pytest.raises(RecordError, match="9999"):
            read_records(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])

    def test_meta_wrong_kind(self, tmp_path, small_records):
        paths = write_records(small_records, tmp_path / "run")
        paths["meta"].write_text('{"kind": "something_else"}')
        with pytest.raises(RecordError, match="sidecar"):
            read_records(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])

    def test_meta_bad_json_reports_position(self, tmp_path, small_records):
        paths = write_records(small_records, tmp_path / "run")
        paths["meta"].write_text("{broken")
        with pytest.raises(RecordError, match=r":1:2:"):
            read_records(paths["with_atoms"], paths["no_atoms"],
                         paths["meta"])


class TestWriteValidation:
    @pytest.mark.parametrize("arm", ["with_atoms", "no_atoms"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_refused(self, tmp_path, small_records, arm,
                                         value):
        arrays = {"with_atoms": small_records.with_atoms.copy(),
                  "no_atoms": small_records.no_atoms.copy()}
        arrays[arm][5, 1] = value
        records = ShotRecords(**arrays, seed=small_records.seed,
                              params_hash=small_records.params_hash)
        with pytest.raises(RecordError, match=rf"{arm}.*row 5.*non-finite"):
            write_records(records, tmp_path / "run")
        assert list(tmp_path.iterdir()) == []


class TestAtomicWrite:
    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        write_atomic(target, b"new")
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        write_atomic(target, [b"con", b"tent"])
        assert target.read_text() == "content"

    def test_values_survive_at_full_precision(self, tmp_path, noisy_set):
        # %.17g repr round-trips every double exactly
        params, noise, initial = noisy_set
        records = simulate_shots(params, noise, initial, 16, 2)
        paths = write_records(records, tmp_path / "p")
        back = read_records(paths["with_atoms"], paths["no_atoms"])
        assert (back.with_atoms == records.with_atoms).all()
