"""End-to-end runs of the command line, in process via main()."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import qndcert
import qndcert.cli
import qndcert.recordio
import qndcert.selftest
from qndcert import params_hash
from qndcert.cli import main
from qndcert.config import load_config
from qndcert.montecarlo import arm_chunks
from qndcert.statistics import CHUNK_SHOTS


def _write_config(directory, name, **overrides):
    payload = {
        "n_pulses": 3,
        "coupling": {"kappa": 1.0},
        "atoms": {"n_atoms": 100.0},
        "light": {"n_photons": 100.0},
        "n_shots": 20000,
        "seed": 11,
    }
    payload.update(overrides)
    path = directory / name
    path.write_text(json.dumps(payload))
    return path


def _simulate(directory, config, n_shots=None):
    prefix = directory / "run"
    shots = [] if n_shots is None else ["--shots", str(n_shots)]
    assert main(["simulate", "--config", str(config),
                 "--out", str(prefix), *shots]) == 0
    return {
        "records": str(directory / "run.with_atoms.csv"),
        "no_atoms": str(directory / "run.no_atoms.csv"),
        "meta": str(directory / "run.meta.json"),
    }


@pytest.fixture(scope="module")
def ideal_run(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ideal")
    config = _write_config(directory, "cfg.json")
    return {"config": str(config), **_simulate(directory, config)}


@pytest.fixture(scope="module")
def lossy_run(tmp_path_factory):
    directory = tmp_path_factory.mktemp("lossy")
    config = _write_config(
        directory, "cfg.json", r_a=0.8, r_l=0.9, seed=13,
        noise={"33": 2.0, "35": 0.5, "55": 4.0})
    return {"config": str(config), **_simulate(directory, config)}


def _record_args(run):
    return ["--records", run["records"],
            "--no-atoms-records", run["no_atoms"]]


def _copy_without_sidecar(run, directory):
    """Record arguments naming copies of a run's CSVs under names the
    sidecar discovery cannot match."""
    for key, name in (("records", "x.csv"), ("no_atoms", "y.csv")):
        (directory / name).write_bytes(pathlib.Path(run[key]).read_bytes())
    return ["--records", str(directory / "x.csv"),
            "--no-atoms-records", str(directory / "y.csv")]


class TestSimulate:
    def test_writes_three_files(self, ideal_run):
        for key in ("records", "no_atoms", "meta"):
            assert pathlib.Path(ideal_run[key]).exists()
        meta = json.loads(pathlib.Path(ideal_run["meta"]).read_text())
        assert meta["n_shots"] == 20000
        assert meta["seed"] == 11

    def test_shot_and_seed_overrides(self, tmp_path, ideal_run):
        assert main(["simulate", "--config", ideal_run["config"],
                     "--out", str(tmp_path / "small"),
                     "--shots", "64", "--seed", "5"]) == 0
        meta = json.loads((tmp_path / "small.meta.json").read_text())
        assert meta["n_shots"] == 64
        assert meta["seed"] == 5

    def test_rerun_is_byte_identical(self, tmp_path, ideal_run):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            assert main(["simulate", "--config", ideal_run["config"],
                         "--out", str(tmp_path / sub / "run"),
                         "--shots", "500"]) == 0
        for name in ("run.with_atoms.csv", "run.no_atoms.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_missing_config(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output_is_refused(self, tmp_path, ideal_run,
                                          capsys):
        # an OSError from the writer is bad input too: exit 2, no traceback
        (tmp_path / "file").write_text("")
        code = main(["simulate", "--config", ideal_run["config"],
                     "--out", str(tmp_path / "file" / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_rejects_zero_shots(self, tmp_path, ideal_run):
        assert main(["simulate", "--config", ideal_run["config"],
                     "--out", str(tmp_path / "run"), "--shots", "0"]) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--shots", "1", "--shots must be at least 2"),
        ("--seed", "-5", "--seed must be nonnegative"),
    ])
    def test_overrides_follow_the_config_minimums(self, tmp_path, ideal_run,
                                                  capsys, flag, value,
                                                  message):
        # one shot gives records every reader refuses; a negative seed
        # used to end in a numpy traceback with exit 1
        assert main(["simulate", "--config", ideal_run["config"],
                     "--out", str(tmp_path / "run"), flag, value]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestStats:
    def test_prints_moment_table(self, ideal_run, capsys):
        assert main(["stats", *_record_args(ideal_run)]) == 0
        out = capsys.readouterr().out
        assert "shots: 20000 per arm, 3 pulse(s)" in out
        assert "var_p" in out and "d_cov_pr" in out

    def test_json_output(self, ideal_run, tmp_path, capsys):
        out_path = tmp_path / "stats.json"
        assert main(["stats", *_record_args(ideal_run),
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "moment_stats"
        assert payload["r_l"] == 1.0
        # ideal arm: var(P_y) = 50, delta = kappa^2 var(J_z) = 25
        assert abs(payload["with_atoms"]["var_p"] - 50.0) < 2.5
        assert abs(payload["delta"]["d_var_p"] - 25.0) < 3.5

    def test_meta_not_required(self, ideal_run, tmp_path, capsys):
        assert main(["stats", *_copy_without_sidecar(ideal_run,
                                                      tmp_path)]) == 0

    def test_assumed_r_l_is_announced(self, lossy_run, tmp_path, capsys):
        # without a sidecar no source gives r_l
        args = _copy_without_sidecar(lossy_run, tmp_path)
        assert main(["stats", *args]) == 0
        assert "warning: --r-l not given; assuming r_l = 1.0" in \
            capsys.readouterr().err
        assert main(["stats", *args, "--r-l", "0.9"]) == 0
        assert "--r-l" not in capsys.readouterr().err

    def test_r_l_falls_back_to_the_sidecar(self, lossy_run, tmp_path,
                                           capsys):
        out_path = tmp_path / "stats.json"
        assert main(["stats", *_record_args(lossy_run),
                     "--out", str(out_path)]) == 0
        assert "r_l" not in capsys.readouterr().err
        assert json.loads(out_path.read_text())["r_l"] == 0.9
        assert main(["stats", *_record_args(lossy_run), "--r-l", "0.95",
                     "--out", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["r_l"] == 0.95

    def test_missing_records_file(self, ideal_run, tmp_path, capsys):
        code = main(["stats",
                     "--records", str(tmp_path / "gone.with_atoms.csv"),
                     "--no-atoms-records", ideal_run["no_atoms"]])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def _copy_run(run, directory):
    """Copy a record set under the same file names, for tampering."""
    copy = dict(run)
    for key in ("records", "no_atoms", "meta"):
        source = pathlib.Path(run[key])
        copy[key] = str(directory / source.name)
        (directory / source.name).write_bytes(source.read_bytes())
    return copy


class TestBadRecords:
    def test_non_finite_value_is_refused(self, ideal_run, tmp_path, capsys):
        run = _copy_run(ideal_run, tmp_path)
        path = pathlib.Path(run["records"])
        lines = path.read_text().splitlines(keepends=True)
        lines[4] = "3,nan," + lines[4].split(",", 2)[2]
        path.write_text("".join(lines))
        code = main(["certify", "--config", run["config"],
                     *_record_args(run)])
        assert code == 2
        captured = capsys.readouterr()
        assert "certified:" not in captured.out
        assert path.name in captured.err
        assert "row 3" in captured.err and "non-finite" in captured.err

    def test_shot_index_out_of_place_is_refused(self, ideal_run, tmp_path,
                                                capsys):
        run = _copy_run(ideal_run, tmp_path)
        path = pathlib.Path(run["no_atoms"])
        lines = path.read_text().splitlines(keepends=True)
        lines[6] = "77," + lines[6].split(",", 1)[1]
        path.write_text("".join(lines))
        code = main(["certify", "--config", run["config"],
                     *_record_args(run)])
        assert code == 2
        err = capsys.readouterr().err
        assert path.name in err and "shot index 77" in err

    def test_short_arm_is_refused_against_the_sidecar(self, ideal_run,
                                                      tmp_path, capsys):
        # without stored summaries the CSVs are parsed, and each arm must
        # hold the sidecar's shot count
        run = _copy_run(ideal_run, tmp_path)
        meta_path = pathlib.Path(run["meta"])
        meta = json.loads(meta_path.read_text())
        del meta["arms"]
        meta_path.write_text(json.dumps(meta))
        path = pathlib.Path(run["no_atoms"])
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1001]))
        code = main(["stats", *_record_args(run)])
        assert code == 2
        captured = capsys.readouterr()
        assert "shots:" not in captured.out
        assert "no_atoms" in captured.err and "1000" in captured.err

    def test_arms_of_unequal_length_are_refused(self, tmp_path, capsys):
        # without a sidecar nothing else holds the arms to one shot count
        (tmp_path / "x.csv").write_text("shot,p_y\n0,1.0\n1,2.0\n2,4.0\n")
        (tmp_path / "y.csv").write_text("shot,p_y\n0,1.0\n1,3.0\n")
        code = main(["stats", "--records", str(tmp_path / "x.csv"),
                     "--no-atoms-records", str(tmp_path / "y.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert "shots:" not in captured.out
        assert ("arms disagree on the shot count: 3 with_atoms, 2 no_atoms"
                in captured.err)

    def test_arms_of_unequal_width_are_refused(self, tmp_path, capsys):
        # refused while reading, before any calibration is assumed
        (tmp_path / "x.csv").write_text("shot,p_y,q_y\n0,1.0,2.0\n"
                                        "1,3.0,4.0\n")
        (tmp_path / "y.csv").write_text("shot,p_y\n0,1.0\n1,3.0\n")
        code = main(["stats", "--records", str(tmp_path / "x.csv"),
                     "--no-atoms-records", str(tmp_path / "y.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: arms disagree on the pulse count: "
                                "2 with_atoms, 1 no_atoms\n")

    @pytest.mark.parametrize("source", ["csv", "sidecar"])
    def test_arms_of_one_shot_are_refused_naming_the_file(
            self, ideal_run, tmp_path, capsys, source):
        # the refusal named no file: "error: need at least 2 shots per arm"
        if source == "csv":
            for name in ("x.csv", "y.csv"):
                (tmp_path / name).write_text("shot,p_y\n0,1.0\n")
            argv = ["--records", str(tmp_path / "x.csv"),
                    "--no-atoms-records", str(tmp_path / "y.csv")]
            named = tmp_path / "x.csv"
        else:
            run = _copy_run(ideal_run, tmp_path)
            named = pathlib.Path(run["meta"])
            meta = json.loads(named.read_text())
            meta["n_shots"] = 1
            for arm in meta["arms"].values():
                arm["count"] = 1
            named.write_text(json.dumps(meta))
            argv = _record_args(run)
        assert main(["stats", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {named}: need at least 2 shots per "
                                f"arm\n")


    @pytest.mark.parametrize("scale, cause", [
        (1e160, "the mean or comoment of its values overflows"),
        (1e100, "the error covariance of its moments overflows"),
    ], ids=["comoment", "error-covariance"])
    @pytest.mark.parametrize("command", [
        ["stats"], ["estimate", "--kappa", "1", "--j33", "25", "--r-l", "1"],
        ["certify", "--kappa", "1", "--j33", "25", "--j0", "25"],
    ])
    def test_records_whose_moments_overflow_are_refused(self, tmp_path,
                                                        capsys, command,
                                                        scale, cause):
        # finite values whose squares overflow: the moments were a table
        # of nan and the estimates nan, each with exit 0.  Near 1e100 the
        # moments' error covariance, a product of two moments, overflowed:
        # stats printed "+- inf" with exit 0, and certify ended in an
        # OverflowError
        rng = np.random.default_rng(5)
        for name, factor in (("x.csv", scale), ("y.csv", 1.0)):
            rows = rng.normal(size=(2000, 3)) * factor
            (tmp_path / name).write_text("shot,p_y,q_y,r_y\n" + "".join(
                f"{i},{p!r},{q!r},{r!r}\n" for i, (p, q, r)
                in enumerate(rows.tolist())))
        code = main([command[0], "--records", str(tmp_path / "x.csv"),
                     "--no-atoms-records", str(tmp_path / "y.csv"),
                     *command[1:]])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path / 'x.csv'}: {cause}\n"

    def test_stored_moments_whose_errors_overflow_are_refused(self, tmp_path,
                                                              capsys):
        argv = _write_scaled(tmp_path, "big", 1e100, 2000, sidecar=True)
        assert main(["stats", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {tmp_path / 'big.meta.json'}: the "
                                f"error covariance of its moments "
                                f"overflows\n")


class TestEstimate:
    def test_recovers_losses_and_noise(self, lossy_run, tmp_path, capsys):
        out_path = tmp_path / "est.json"
        code = main(["estimate", *_record_args(lossy_run),
                     "--r-l", "0.9", "--kappa", "1.0", "--j33", "25.0",
                     "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "model_estimates"
        estimates = payload["estimates"]
        assert abs(estimates["r_a"] - 0.8) < 0.1
        noise = estimates["noise"]
        assert abs(noise["n55"] - 4.0) < 2.0
        assert abs(noise["n33"] - 2.0) < 4.0
        out = capsys.readouterr().out
        assert "r_a (covariance ratio):" in out

    def test_ideal_data_has_no_loss_signal(self, ideal_run, capsys):
        # with r_a = 1 and no added noise the variance route degenerates
        assert main(["estimate", *_record_args(ideal_run),
                     "--kappa", "1.0", "--j33", "25.0"]) == 0
        captured = capsys.readouterr()
        assert "r_a (covariance ratio):" in captured.out
        # the sidecar supplies r_l = 1.0
        assert "assuming r_l" not in captured.err


class TestCertify:
    def test_ideal_certifies(self, ideal_run, capsys):
        code = main(["certify", "--config", ideal_run["config"],
                     *_record_args(ideal_run)])
        out = capsys.readouterr().out
        assert code == 0
        assert "certified: yes" in out
        assert "verdict full_qnd:    PASS" in out

    def test_report_file(self, ideal_run, tmp_path):
        out_path = tmp_path / "report.json"
        assert main(["certify", "--config", ideal_run["config"],
                     *_record_args(ideal_run), "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "certification_report"
        assert payload["verdicts"]["full_qnd"] is True
        meta = json.loads(pathlib.Path(ideal_run["meta"]).read_text())
        assert payload["records"] == {
            "seed": 11,
            "params_hash": meta["params_hash"],
            "n_shots": 20000,
            "n_pulses": 3,
            "sha256": {role: hashlib.sha256(pathlib.Path(
                ideal_run[key]).read_bytes()).hexdigest()
                for role, key in (("with_atoms", "records"),
                                  ("no_atoms", "no_atoms"))},
            "moments_source": "sidecar",
        }

    def test_calibration_flags_without_config(self, ideal_run, capsys):
        code = main(["certify", *_record_args(ideal_run),
                     "--kappa", "1.0", "--j33", "25.0", "--j0", "25.0"])
        assert code == 0
        assert "certified: yes" in capsys.readouterr().out

    def test_flag_overrides_config(self, ideal_run, capsys):
        # shrinking the projection-noise reference makes the same data fail
        code = main(["certify", "--config", ideal_run["config"],
                     *_record_args(ideal_run), "--j0", "5.0"])
        assert code == 10
        assert "certified: no" in capsys.readouterr().out

    def test_lossy_run_uses_config_r_l(self, lossy_run, tmp_path):
        out_path = tmp_path / "report.json"
        assert main(["certify", "--config", lossy_run["config"],
                     *_record_args(lossy_run), "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["calibration"]["r_l"] == 0.9

    def test_config_must_match_the_simulated_model(self, ideal_run, tmp_path,
                                                   capsys):
        # records drawn at kappa 1.0, certified under a config at kappa 1.5
        other = _write_config(tmp_path, "other.json", coupling={"kappa": 1.5})
        code = main(["certify", "--config", str(other),
                     *_record_args(ideal_run)])
        assert code == 2
        captured = capsys.readouterr()
        assert "certified:" not in captured.out
        recorded = json.loads(
            pathlib.Path(ideal_run["meta"]).read_text())["params_hash"]
        config = load_config(other)
        expected = params_hash(config.params, config.noise,
                               config.initial_state())
        assert recorded != expected
        assert recorded in captured.err and expected in captured.err

    def test_config_is_not_checked_without_sidecar(self, ideal_run, tmp_path,
                                                   capsys):
        args = _copy_without_sidecar(ideal_run, tmp_path)
        other = _write_config(tmp_path, "other.json", coupling={"kappa": 1.5})
        main(["certify", "--config", str(other), *args])
        captured = capsys.readouterr()
        assert "certified:" in captured.out
        assert ("warning: records carry no params_hash; --config model not "
                "checked against them") in captured.err

    def test_damaging_noise_fails(self, tmp_path, capsys):
        config = _write_config(tmp_path, "bad.json", seed=12,
                               noise={"33": 400.0})
        run = _simulate(tmp_path, config)
        code = main(["certify", "--config", str(config), *_record_args(run)])
        out = capsys.readouterr().out
        assert code == 10
        assert "certified: no" in out
        assert "verdict state_prep:  FAIL" in out

    def test_weak_coupling_is_inconclusive(self, tmp_path, capsys):
        config = _write_config(tmp_path, "weak.json", seed=12,
                               coupling={"g_tau": 0.001},
                               noise={"33": 400.0})
        run = _simulate(tmp_path, config)
        code = main(["certify", "--config", str(config), *_record_args(run)])
        out = capsys.readouterr().out
        assert code == 2
        assert "certified: inconclusive" in out
        assert "note:" in out

    def test_missing_calibration_is_usage_error(self, ideal_run, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["certify", *_record_args(ideal_run), "--kappa", "1.0"])
        assert excinfo.value.code == 2
        assert "--j33 is required" in capsys.readouterr().err


def _append_byte(path):
    with open(path, "ab") as handle:
        handle.write(b"\n")  # a blank line: same data, new digest


class TestRLInput:
    """r_l from the flag or the sidecar follows the config rule: a real
    number, not a bool, finite, in [0, 1]."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.5", "-0.1"])
    def test_bad_flag_is_a_usage_error(self, ideal_run, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", *_record_args(ideal_run), "--r-l", value])
        assert excinfo.value.code == 2
        assert "--r-l" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("-inf"), True,
                                       1.5, -0.1, "0.9"],
                             ids=["nan", "-inf", "true", "1.5", "-0.1",
                                  "string"])
    def test_bad_sidecar_value_is_refused(self, lossy_run, tmp_path, capsys,
                                          value):
        run = _copy_run(lossy_run, tmp_path)
        meta_path = pathlib.Path(run["meta"])
        meta = json.loads(meta_path.read_text())
        meta["r_l"] = value
        meta_path.write_text(json.dumps(meta))
        assert main(["stats", *_record_args(run)]) == 2
        assert main(["certify", *_record_args(run), "--kappa", "1.0",
                     "--j33", "25", "--j0", "25"]) == 2
        captured = capsys.readouterr()
        assert "certified:" not in captured.out
        assert captured.err.count("r_l") == 2

    def test_simulate_refuses_a_non_finite_config_r_l(self, tmp_path,
                                                      capsys):
        config = tmp_path / "nan.json"
        config.write_text(json.dumps({
            "n_pulses": 1, "coupling": {"kappa": 1.0},
            "atoms": {"n_atoms": 100.0}, "light": {"n_photons": 100.0},
            "r_l": float("nan")}))
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 2
        assert "r_l: must be finite" in capsys.readouterr().err

    def test_simulate_refuses_a_non_finite_noise_entry(self, tmp_path,
                                                       capsys):
        # the records came out byte-identical to those without noise
        config = _write_config(tmp_path, "nan.json",
                               noise={"33": float("nan")})
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 2
        assert "noise.33: must be finite" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["nan.json"]


_CALIBRATION = ["--kappa", "1.0", "--j33", "25", "--j0", "25"]


class TestCalibrationFlags:
    """Calibration flags follow the config's number rules: finite, with
    j33 >= 0, j0 > 0 and z >= 0; a bad value is a usage error."""

    @pytest.mark.parametrize("flag, value", [
        ("--kappa", "nan"), ("--kappa", "inf"), ("--j33", "nan"),
        ("--j33", "inf"), ("--j33", "-1"), ("--j0", "inf"), ("--j0", "nan"),
        ("--j0", "0"), ("--j0", "-2"), ("--z", "nan"), ("--z", "inf"),
        ("--z", "-1"), ("--z", "x"),
    ])
    def test_bad_certify_flag_is_a_usage_error(self, ideal_run, capsys,
                                               flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["certify", *_record_args(ideal_run), *_CALIBRATION,
                  flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}" in captured.err
        assert "certified:" not in captured.out

    @pytest.mark.parametrize("flag, value", [
        ("--kappa", "nan"), ("--kappa", "inf"), ("--j33", "nan"),
        ("--j33", "inf"), ("--j33", "-1"),
    ])
    def test_bad_estimate_flag_is_a_usage_error(self, lossy_run, capsys,
                                                flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", *_record_args(lossy_run), "--kappa", "1.0",
                  "--j33", "25", flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}" in captured.err
        assert "n33=" not in captured.out

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--kappa", "1e-300", "--j33", "25"],
         "kappa**2 = 0 underflows"),
        (["estimate", "--kappa", "1e170", "--j33", "25"],
         "kappa**2 = inf overflows"),
        (["certify", "--kappa", "1e200", "--j33", "25", "--j0", "25"],
         "kappa**2 = inf overflows"),
    ])
    def test_calibration_out_of_range_is_refused(self, lossy_run, capsys,
                                                 argv, message):
        # finite flags whose products leave floating-point range: these
        # ended in a traceback, in nan estimates, or in "certified: no"
        assert main([argv[0], *_record_args(lossy_run), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "certified:" not in captured.out and "n33=" not in captured.out

    def test_non_finite_standard_error_is_inconclusive(self, lossy_run,
                                                       capsys):
        # kappa**2 j33 is finite, but the state-prep figure's standard
        # error overflows to NaN: that verdict is undecided, not "FAIL";
        # the note says so, and no numpy warning reaches stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["certify", *_record_args(lossy_run), "--kappa", "1",
                         "--j33", "1e308", "--j0", "25"])
        assert code == 2
        out, err = capsys.readouterr()
        assert "RuntimeWarning" not in err
        assert "verdict state_prep:  UNDECIDED (gated)" in out
        assert ("note: standard error of dx2_s_given_m is not finite (nan); "
                "its verdict is undecided") in out
        assert out.endswith("certified: inconclusive\n")

    def test_report_lists_each_warning_once(self, lossy_run, tmp_path,
                                            capsys):
        # certify --out held each inversion warning twice: in the
        # top-level warnings and in estimates.warnings
        report, model = tmp_path / "report.json", tmp_path / "model.json"
        assert main(["certify", *_record_args(lossy_run), "--kappa", "1",
                     "--j33", "1e308", "--j0", "25",
                     "--out", str(report)]) == 2
        assert main(["estimate", *_record_args(lossy_run), "--kappa", "1",
                     "--j33", "1e308", "--out", str(model)]) == 0
        err = capsys.readouterr().err
        text = report.read_text()
        payload = json.loads(text)
        line = "noise diagonal n55 estimated negative"
        assert line in payload["warnings"]
        assert payload["estimates"]["warnings"] == []
        for warning in payload["warnings"]:
            assert text.count(json.dumps(warning)) == 1, warning
        assert f"warning: {line}" in err
        # estimate keeps its own
        assert line in json.loads(model.read_text())["estimates"]["warnings"]

    def test_out_files_are_strict_json(self, lossy_run, tmp_path, capsys):
        # a standard error that is not finite was written as the bare
        # token NaN, which strict JSON readers refuse; it is null, and
        # the report's reasons name it
        report, model = tmp_path / "report.json", tmp_path / "model.json"
        assert main(["certify", *_record_args(lossy_run), "--kappa", "1",
                     "--j33", "1e308", "--j0", "25",
                     "--out", str(report)]) == 2
        assert main(["estimate", *_record_args(lossy_run), "--kappa", "1",
                     "--j33", "1e308", "--out", str(model)]) == 0
        capsys.readouterr()

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        payload = json.loads(report.read_text(), parse_constant=refuse)
        json.loads(model.read_text(), parse_constant=refuse)
        assert payload["se"]["dx2_s_given_m"] is None
        assert ("standard error of dx2_s_given_m is not finite (nan); its "
                "verdict is undecided") in payload["reasons"]

    def test_boundary_values_are_accepted(self, ideal_run, capsys):
        assert main(["certify", *_record_args(ideal_run), "--kappa", "1.0",
                     "--j33", "0", "--j0", "25", "--z", "0"]) in (0, 2, 10)
        assert "certified:" in capsys.readouterr().out


class TestIndefiniteModel:
    """A config whose covariance is not positive semidefinite is refused
    where it is loaded: one error line and exit 2, where it used to warn
    and run on."""

    def _config(self, directory):
        return _write_config(directory, "indefinite.json", atoms={
            "mean_jx": 50.0,
            "cov": [[0.0, 0.0, 0.0], [0.0, 25.0, 0.0], [0.0, 0.0, -1.0]]})

    def test_simulate(self, tmp_path, capsys):
        config = self._config(tmp_path)
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: covariance has eigenvalue "
                                       "-1.000000e+00 below tolerance")
        assert captured.err.count("\n") == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["indefinite.json"]

    def test_certify_with_config(self, ideal_run, tmp_path, capsys):
        config = self._config(tmp_path)
        assert main(["certify", "--config", str(config),
                     *_record_args(ideal_run)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: covariance has eigenvalue")
        assert captured.err.count("\n") == 1

    # N33 < 0; and N35 with N55 = 0, the config module's schema example
    # until its N55 was added
    INDEFINITE_NOISE = pytest.mark.parametrize("noise, error", [
        ({"33": -50.0}, "noise matrix has eigenvalue -5.000000e+01 below "
                        "tolerance "),
        ({"33": 2.0, "35": 0.5}, "noise matrix has eigenvalue -1.180340e-01 "
                                 "below tolerance ")],
        ids=["n33", "n35"])
    # "35" and "53" disagree: the later one used to load
    DISAGREEING_NOISE = pytest.mark.parametrize("noise, error", [
        ({"33": 2.0, "35": 0.5, "53": 0.7, "55": 4.0},
         "noise matrix departs from symmetry by 2.000e-01\n"),
        ({"33": 2.0, "53": 0.7, "35": 0.5, "55": 4.0},
         "noise matrix departs from symmetry by 2.000e-01\n")],
        ids=["35-first", "53-first"])

    def _refused_at_load(self, command, args, tmp_path, capsys, noise,
                         error):
        config = _write_config(tmp_path, "noise.json", noise=noise)
        assert main([command, "--config", str(config), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {error}")
        assert captured.err.count("\n") == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["noise.json"]

    @INDEFINITE_NOISE
    def test_simulate_refuses_indefinite_noise(self, tmp_path, capsys,
                                               noise, error):
        # the config loaded, and the sampler refused its noise
        self._refused_at_load("simulate", ["--out", str(tmp_path / "run")],
                              tmp_path, capsys, noise, error)

    @INDEFINITE_NOISE
    def test_certify_with_config_refuses_indefinite_noise(
            self, ideal_run, tmp_path, capsys, noise, error):
        # the config loaded, and certify ran on it
        self._refused_at_load("certify", _record_args(ideal_run), tmp_path,
                              capsys, noise, error)

    @DISAGREEING_NOISE
    def test_simulate_refuses_disagreeing_noise_entries(
            self, tmp_path, capsys, noise, error):
        self._refused_at_load("simulate", ["--out", str(tmp_path / "run")],
                              tmp_path, capsys, noise, error)

    @DISAGREEING_NOISE
    def test_certify_with_config_refuses_disagreeing_noise_entries(
            self, ideal_run, tmp_path, capsys, noise, error):
        self._refused_at_load("certify", _record_args(ideal_run), tmp_path,
                              capsys, noise, error)


@pytest.mark.parametrize("overrides, refusal", [
    # numpy warned "invalid value encountered in matmul", then the
    # sampler refused a record row as non-finite
    ({"coupling": {"g_tau": 1e300}, "light": {"n_photons": 1e100}},
     "kappa = g_tau * mean_sx overflows: "),
    # g_tau came out 0.0, and simulate ran with the coupling off
    ({"coupling": {"kappa": 1e-200}, "light": {"n_photons": 1e200}},
     "coupling.kappa: g_tau = kappa / mean_sx underflows to 0: ")],
    ids=["overflow", "underflow"])
def test_simulate_refuses_a_coupling_out_of_range(tmp_path, capsys,
                                                  overrides, refusal):
    config = _write_config(tmp_path, "coupling.json", **overrides)
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {refusal}")
    assert captured.err.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        ["coupling.json"]


_README_MODEL = {"r_a": 0.8, "r_l": 0.9,
                 "noise": {"33": 2.0, "35": 0.5, "55": 4.0}}


def _write_scaled(directory, name, factor, n_shots=20000, sidecar=False):
    """The README model's records at seed 5, every value times ``factor``,
    with or without their sidecar; returns the record arguments."""
    config = load_config(_write_config(directory, "readme.json",
                                       **_README_MODEL))
    initial = config.initial_state()
    paths = qndcert.write_arms(
        lambda role: (chunk * factor for chunk in arm_chunks(
            config.params, config.noise, initial, n_shots, 5,
            with_atoms=role == "with_atoms")),
        directory / name, 3)
    if not sidecar:
        paths["meta"].unlink()
    return ["--records", str(paths["with_atoms"]),
            "--no-atoms-records", str(paths["no_atoms"]), "--r-l", "0.9"]


class TestRecordUnits:
    """Records read in another unit, 2**s times the first, with kappa in
    that unit too, give the same figures, errors and verdicts."""

    @staticmethod
    def _assert_scaled_run(directory, capsys, s):
        """certify on the records times 2**s, with kappa 2**s, keeps the
        unit run's report, and scales its meter-unit estimates exactly."""
        reports = {}
        for t in (0, s):
            argv = _write_scaled(directory, f"s{t}", 2.0 ** t)
            out_path = directory / f"s{t}.json"
            code = main(["certify", *argv, "--kappa", repr(2.0 ** t),
                         "--j33", "25", "--j0", "25", "--out", str(out_path)])
            out = capsys.readouterr().out
            assert code == 0, out
            assert out.endswith("certified: yes\n")
            reports[t] = json.loads(out_path.read_text())
        base, scaled = reports[0], reports[s]
        for key in ("figures", "nonclassicality", "se", "verdicts",
                    "point_verdicts", "inconclusive", "reasons", "warnings"):
            assert scaled[key] == base[key], key
        for key in ("r_a", "r_a_se", "r_a_from_var", "cond_var_jz"):
            assert scaled["estimates"][key] == base["estimates"][key], key
        noise = scaled["estimates"]["noise"]
        base_noise = base["estimates"]["noise"]
        assert noise["n33"] == base_noise["n33"]
        assert noise["n35"] == base_noise["n35"] * 2.0 ** s
        assert noise["n55"] == base_noise["n55"] * 2.0 ** (2 * s)
        assert scaled["squeezing"]["margin"] == \
            base["squeezing"]["margin"] * 2.0 ** (4 * s)

    def test_records_at_two_to_the_minus_19(self, tmp_path, capsys):
        # var_p near 1.8e-10, as for a detector read in volts: the
        # standard errors' absolute step of 1e-9 made state_prep FAIL
        self._assert_scaled_run(tmp_path, capsys, -19)

    def test_records_at_two_to_the_minus_200(self, tmp_path, capsys):
        # c2_in_out's denominator d_cov_pq**2 * bracket, about 2**-1200,
        # underflowed to 0: a ZeroDivisionError traceback, exit 1
        self._assert_scaled_run(tmp_path, capsys, -200)

    @pytest.mark.parametrize("command, sidecar", [("stats", False),
                                                  ("certify", True)])
    def test_error_covariance_that_underflows_is_refused(
            self, tmp_path, capsys, command, sidecar):
        # values near 1e-90: var_p near 1e-179, whose Isserlis variance
        # underflows to 0, so every se read 0.0 and stats exited 0
        argv = _write_scaled(tmp_path, "tiny", 2.0 ** -300, sidecar=sidecar)
        if sidecar:
            argv += ["--kappa", repr(2.0 ** -300), "--j33", "25",
                     "--j0", "25"]
        assert main([command, *argv]) == 2
        captured = capsys.readouterr()
        named = tmp_path / ("tiny.meta.json" if sidecar
                            else "tiny.with_atoms.csv")
        assert captured.err == (f"error: {named}: the error covariance of "
                                f"its moments underflows\n")


class TestStaleSidecar:
    """A sidecar whose digest a CSV contradicts contributes only its
    warning: no seed, params_hash or r_l."""

    def test_config_is_not_checked_against_a_stale_sidecar(
            self, ideal_run, tmp_path, capsys):
        run = _copy_run(ideal_run, tmp_path)
        _append_byte(run["records"])
        other = _write_config(tmp_path, "other.json", coupling={"kappa": 1.5})
        out_path = tmp_path / "report.json"
        main(["certify", "--config", str(other), *_record_args(run),
              "--out", str(out_path)])
        captured = capsys.readouterr()
        assert "certified:" in captured.out
        assert "differs from its sidecar digest" in captured.err
        assert ("warning: records carry no params_hash; --config model not "
                "checked against them") in captured.err
        records = json.loads(out_path.read_text())["records"]
        assert records["seed"] is None and records["params_hash"] is None

    def test_r_l_does_not_come_from_a_stale_sidecar(self, lossy_run,
                                                    tmp_path, capsys):
        run = _copy_run(lossy_run, tmp_path)
        _append_byte(run["no_atoms"])
        out_path = tmp_path / "stats.json"
        assert main(["stats", *_record_args(run),
                     "--out", str(out_path)]) == 0
        assert "warning: --r-l not given; assuming r_l = 1.0" in \
            capsys.readouterr().err
        assert json.loads(out_path.read_text())["r_l"] == 1.0


def _analyses(run, directory):
    """stdout and parsed --out JSON of stats, estimate and certify."""
    commands = {
        "stats": ["stats", *_record_args(run), "--r-l", "0.9"],
        "estimate": ["estimate", *_record_args(run), "--r-l", "0.9",
                     "--kappa", "1.0", "--j33", "25"],
        "certify": ["certify", "--config", run["config"],
                    *_record_args(run)],
    }
    outputs = {}
    for name, argv in commands.items():
        out_path = directory / f"{name}.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main([*argv, "--out", str(out_path)])
        outputs[name] = (out.getvalue(), json.loads(out_path.read_text()))
    return outputs


class TestSidecarMoments:
    def test_same_output_with_and_without_summaries(self, lossy_run,
                                                    tmp_path):
        run = _copy_run(lossy_run, tmp_path)
        fast = _analyses(run, tmp_path)
        meta_path = pathlib.Path(run["meta"])
        meta = json.loads(meta_path.read_text())
        del meta["arms"]
        meta_path.write_text(json.dumps(meta))
        parsed = _analyses(run, tmp_path)
        records = (fast["certify"][1]["records"],
                   parsed["certify"][1]["records"])
        assert [r.pop("moments_source") for r in records] == \
            ["sidecar", "parsed"]
        for name in ("stats", "estimate", "certify"):
            assert fast[name][0] == parsed[name][0]
            # repr() differs for any two floats that differ in a bit
            assert json.dumps(fast[name][1]) == json.dumps(parsed[name][1])

    def test_csvs_are_not_parsed_when_digests_match(self, tmp_path,
                                                    monkeypatch, capsys):
        config = _write_config(tmp_path, "cfg.json", n_shots=3000)
        run = _simulate(tmp_path, config)

        def refuse(path):
            raise AssertionError(f"parsed {path}")

        monkeypatch.setattr(qndcert.recordio, "_read_arm", refuse)
        assert main(["stats", *_record_args(run)]) == 0
        assert "shots: 3000 per arm" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["records", "no_atoms"])
    def test_edited_csv_is_announced_and_parsed(self, lossy_run, tmp_path,
                                                capsys, key):
        assert main(["stats", *_record_args(lossy_run), "--r-l", "0.9"]) == 0
        expected = capsys.readouterr().out
        run = _copy_run(lossy_run, tmp_path)
        path = pathlib.Path(run[key])
        text = path.read_text()
        path.write_text(text + "\n")  # blank line: same data, new digest
        assert main(["stats", *_record_args(run), "--r-l", "0.9"]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == (f"warning: {path} differs from its sidecar "
                                f"digest; moments recomputed from the CSV\n")

    def test_parsing_reads_the_sidecar_once(self, tmp_path, monkeypatch,
                                            capsys):
        config = _write_config(tmp_path, "cfg.json", n_shots=3000)
        run = _simulate(tmp_path, config)
        meta_path = pathlib.Path(run["meta"])
        meta = json.loads(meta_path.read_text())
        del meta["arms"]
        meta_path.write_text(json.dumps(meta))
        calls = []

        def read_meta(path, _read=qndcert.recordio._read_meta):
            calls.append(path)
            return _read(path)

        monkeypatch.setattr(qndcert.recordio, "_read_meta", read_meta)
        assert main(["stats", *_record_args(run)]) == 0
        assert "shots: 3000 per arm" in capsys.readouterr().out
        assert calls == [meta_path]

    @pytest.mark.parametrize("command", [
        ["stats"], ["estimate", "--kappa", "1", "--j33", "25"],
        ["certify", "--kappa", "1", "--j33", "25", "--j0", "25"],
    ], ids=["stats", "estimate", "certify"])
    def test_each_command_reads_the_records_once(self, ideal_run,
                                                 monkeypatch, capsys,
                                                 command):
        calls = []

        def read_records(*args, **kwargs):
            calls.append((args, kwargs))
            return qndcert.recordio.read_records(*args, **kwargs)

        monkeypatch.setattr(qndcert.cli, "read_records", read_records)
        assert main([*command, *_record_args(ideal_run)]) == 0
        capsys.readouterr()
        assert calls == [((ideal_run["records"], ideal_run["no_atoms"],
                           pathlib.Path(ideal_run["meta"])), {})]

    def test_inconsistent_summary_is_refused(self, ideal_run, tmp_path,
                                             capsys):
        run = _copy_run(ideal_run, tmp_path)
        meta_path = pathlib.Path(run["meta"])
        meta = json.loads(meta_path.read_text())
        meta["arms"]["no_atoms"]["count"] = 19999
        meta_path.write_text(json.dumps(meta))
        assert main(["stats", *_record_args(run)]) == 2
        err = capsys.readouterr().err
        assert "19999 shots" in err and "20000 shots" in err


class TestImpossibleComoment:
    """A stored comoment must be one a set of rows can give: symmetric,
    with no negative diagonal entry.  Either flaw is bad input (exit 2,
    naming the sidecar); it once gave a traceback (exit 1) or was read
    from its upper triangle alone (exit 0)."""

    @pytest.mark.parametrize("entry, value", [((0, 0), -5.0),
                                              ((0, 1), 1e9)],
                             ids=["negative-variance", "asymmetric"])
    @pytest.mark.parametrize("command", ["stats", "certify"])
    def test_refused_with_exit_2(self, ideal_run, tmp_path, capsys, entry,
                                 value, command):
        run = _copy_run(ideal_run, tmp_path)
        meta_path = pathlib.Path(run["meta"])
        meta = json.loads(meta_path.read_text())
        row, col = entry
        meta["arms"]["with_atoms"]["comoment"][row][col] = value
        meta_path.write_text(json.dumps(meta))
        argv = [command, *_record_args(run)]
        if command == "certify":
            argv += ["--config", run["config"]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {meta_path}: ")
        assert "comoment" in captured.err


class TestSidecarTypes:
    """A sidecar count, seed or hash of the wrong type is bad input: exit 2
    before any figure is printed."""

    @pytest.mark.parametrize("edit", [
        {"n_pulses": 3.0}, {"n_shots": 20000.0}, {"seed": 11.5},
        {"seed": -3}, {"params_hash": 7}, {"count": 20000.0},
        {"schema_version": 99},
    ])
    @pytest.mark.parametrize("command", ["stats", "certify"])
    def test_refused_with_exit_2(self, ideal_run, tmp_path, capsys, edit,
                                 command):
        run = _copy_run(ideal_run, tmp_path)
        meta_path = pathlib.Path(run["meta"])
        meta = json.loads(meta_path.read_text())
        for key, value in edit.items():
            if key == "count":
                for arm in meta["arms"].values():
                    arm["count"] = value
            else:
                meta[key] = value
        meta_path.write_text(json.dumps(meta))
        argv = [command, *_record_args(run)]
        if command == "certify":
            argv += ["--config", run["config"]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {meta_path}: ")
        assert f"{next(iter(edit))} must be" in captured.err


def _serial_arms(fn):
    return fn("with_atoms"), fn("no_atoms")


def _peak_bytes(argv, code=0):
    """Peak traced memory of ``main(argv)``, which must exit ``code``."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main([str(arg) for arg in argv]) == code
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    """Every arm streams through in ``CHUNK_SHOTS`` chunks, so a command's
    peak memory does not grow with the shot count: at 16 chunks per arm
    it is within 10% of the peak at 4.  The arms run one after the other
    here, so that the peak does not hang on how the two threads' chunks
    happen to overlap."""

    @pytest.fixture(autouse=True)
    def serial_arms(self, monkeypatch):
        monkeypatch.setattr(qndcert.recordio, "map_arms", _serial_arms)

    def test_simulate(self, tmp_path):
        config = _write_config(tmp_path, "cfg.json", r_a=0.8, r_l=0.9,
                               noise={"33": 2.0, "35": 0.5, "55": 4.0})
        argv = ["simulate", "--config", config, "--shots"]
        _peak_bytes([*argv, 1000, "--out", tmp_path / "warm"])
        peaks = [_peak_bytes([*argv, n_chunks * CHUNK_SHOTS,
                              "--out", tmp_path / f"run{n_chunks}"])
                 for n_chunks in (4, 16)]
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_simulate_peak_is_bounded(self, tmp_path):
        # each arm holds its chunk, its draws and one formatted piece; with
        # 2048-row pieces at 480 bytes of scratch a row this peaked at
        # 1.70 MB, and larger pieces must not grow it
        config = _write_config(tmp_path, "cfg.json", r_a=0.8, r_l=0.9,
                               noise={"33": 2.0, "35": 0.5, "55": 4.0})
        argv = ["simulate", "--config", config, "--shots", 50_000, "--out"]
        _peak_bytes([*argv, tmp_path / "warm"])
        peak = _peak_bytes([*argv, tmp_path / "run"])
        assert peak <= 1.7e6, peak

    def test_parsing_certify(self, tmp_path):
        # one pulse, a third of the text of three: inconclusive (exit 2),
        # after parsing every row
        config = _write_config(tmp_path, "cfg.json", n_pulses=1)
        peaks = []
        for n_shots in (100, 4 * CHUNK_SHOTS, 16 * CHUNK_SHOTS):  # warm-up
            run = _simulate(tmp_path, config, n_shots)
            pathlib.Path(run["meta"]).unlink()
            peaks.append(_peak_bytes(["certify", *_record_args(run),
                                      "--config", config], code=2))
        assert peaks[2] <= 1.1 * peaks[1], peaks


class TestSelftest:
    def test_small_run_passes(self, capsys):
        assert main(["selftest", "--sets", "8", "--shots", "4000",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "all 6 suites passed" in out

    def test_flipped_coupling_still_passes(self, capsys):
        assert main(["selftest", "--sets", "6", "--shots", "4000",
                     "--seed", "4", "--flip-coupling-sign"]) == 0

    def test_corrupted_subtraction_is_caught(self, capsys):
        assert main(["selftest", "--sets", "6", "--shots", "4000",
                     "--seed", "5", "--corrupt-delta"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  delta-subtraction-identity" in out

    def test_a_crashed_suite_fails_the_run(self, capsys, monkeypatch):
        # no random model is ever informative: the suites that draw one
        # crash, and a crashed suite is a failed suite
        monkeypatch.setattr(qndcert.selftest, "_informative",
                            lambda *model: False)
        results = {result.name: result for result
                   in qndcert.selftest.run_selftest(n_sets=1, n_shots=200)}
        crashed = results["closed-form-vs-pipeline"]
        assert crashed.passed is False
        assert crashed.detail == ("crashed: RuntimeError('could not draw an "
                                  "informative random model')")
        assert results["reference-values"].passed
        assert main(["selftest", "--sets", "1", "--shots", "200"]) == 1
        assert "FAIL  closed-form-vs-pipeline" in capsys.readouterr().out

    def test_margin_sign_against_conditioned_variance(self, monkeypatch):
        # the squeezing margin's sign must agree with whether the
        # conditioned spin variance fell below its input; a flipped
        # margin fails the identity suite
        original = qndcert.selftest.certify

        def flipped(*args):
            report = original(*args)
            squeezing = report.squeezing._replace(
                margin=-report.squeezing.margin)
            return dataclasses.replace(report, squeezing=squeezing)

        assert qndcert.selftest._suite_delta_identity(6, 5, 1.0, False).passed
        monkeypatch.setattr(qndcert.selftest, "certify", flipped)
        result = qndcert.selftest._suite_delta_identity(6, 5, 1.0, False)
        assert result.passed is False
        assert result.detail.endswith("max rel err 1.00e+00")


    @pytest.mark.parametrize("args", [
        ["--sets", "0"], ["--sets", "-1"], ["--shots", "1"], ["--shots", "0"],
        ["--sets", "0", "--corrupt-delta"], ["--seed", "-1"],
        ["--sets", "1" + "0" * 400],
    ])
    def test_nothing_to_check_is_a_usage_error(self, capsys, args):
        # "0 parameter sets" used to pass, and hid --corrupt-delta
        with pytest.raises(SystemExit) as excinfo:
            main(["selftest", *args])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {args[0]}" in captured.err
        assert "passed" not in captured.out


def _child_env():
    # the child imports the same package as this process, however it was found
    package_root = str(pathlib.Path(qndcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qndcert", "--help"],
        capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "certify" in proc.stdout


def test_import_leaves_heavy_modules_out():
    # start-up is part of every command: an executor (concurrent.futures,
    # which imports logging) cost about 8 ms of it, and a queue or scipy
    # would add more
    heavy = ["concurrent.futures", "logging", "queue", "scipy"]
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, qndcert; print([m for m in {heavy!r} "
         f"if m in sys.modules])"],
        capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestOneParser:
    """``main`` builds its parser once per process.  Commands run one after
    another in one process must print, byte for byte, what each prints in
    a fresh ``python -m qndcert`` process, help included: parsing leaves
    the parser as it was."""

    @staticmethod
    def _in_process(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's exits: usage and help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def _fresh(argv):
        # help wraps at the terminal width, which COLUMNS fixes
        proc = subprocess.run(
            [sys.executable, "-m", "qndcert", *argv], capture_output=True,
            text=True, timeout=60, env={**_child_env(), "COLUMNS": "80"})
        return proc.returncode, proc.stdout, proc.stderr

    def test_commands_in_one_process_print_as_fresh_ones(
            self, ideal_run, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        records = _record_args(ideal_run)
        sequence = [
            ["stats", "--records"],  # a usage error
            ["stats", *records, "--r-l", "0.9"],
            ["certify", "--config", ideal_run["config"], *records,
             "--z", "2"],
            ["certify", *records, "--kappa", "1.0", "--j33", "25",
             "--j0", "25"],
            ["stats", *records, "--r-l", "1.5"],  # refused by its _flag
            ["--help"],
            *([command, "--help"] for command in qndcert.cli._COMMANDS),
        ]
        got = [self._in_process(argv, capsys) for argv in sequence]
        assert qndcert.cli._build_parser.cache_info().currsize == 1
        assert got[0][0] == got[4][0] == 2
        assert "argument --r-l: r_l: must be <= 1.0, got 1.5" in got[4][2]
        for argv, result in zip(sequence, got):
            assert result == self._fresh(argv), argv
