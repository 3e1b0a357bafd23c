import copy
import json
import re

import numpy as np
import pytest

from qndcert import ConfigError, core, load_config


def _write(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if isinstance(payload, dict)
                    else payload)
    return path


BASE = {
    "n_pulses": 3,
    "coupling": {"kappa": 1.0},
    "atoms": {"n_atoms": 100.0},
    "light": {"n_photons": 100.0},
}


class TestLoading:
    def test_minimal_config_with_defaults(self, tmp_path):
        config = load_config(_write(tmp_path, BASE))
        assert config.n_pulses == 3
        assert config.params.kappa == pytest.approx(1.0)
        assert config.params.r_a == 1.0
        assert config.noise.is_zero
        assert config.n_shots == 100000
        assert config.seed == 1
        assert config.z_threshold == 3.0
        # spin variance and projection noise default to the input block
        assert config.j33 == 25.0
        assert config.j0 == 25.0

    def test_initial_state_assembles(self, tmp_path):
        config = load_config(_write(tmp_path, BASE))
        state = config.initial_state()
        assert state.layout.dimension == 12
        assert state.mean[0] == 50.0

    def test_initial_state_is_checked_once_and_held(self, tmp_path,
                                                    monkeypatch):
        calls = []
        check = core._require_psd
        monkeypatch.setattr(core, "_require_psd",
                            lambda cov, what: calls.append(cov)
                            or check(cov, what))
        config = load_config(_write(tmp_path, BASE))
        assert len(calls) == 1
        state = config.initial_state()
        assert config.initial_state() is state
        assert len(calls) == 1
        assert state.cov is calls[0]

    def test_configs_compare_and_hash_by_identity(self, tmp_path):
        # the generated __eq__ compared numpy arrays: == raised ValueError,
        # and hash() a TypeError on the unhashable arrays
        path = _write(tmp_path, BASE)
        config = load_config(path)
        assert (config == load_config(path)) is False
        assert config == config
        state = config.initial_state()
        for value in (config, config.noise, state, core.AtomicBlock.coherent(
                100.0), core.OpticalBlock.coherent(100.0, 3)):
            assert {value: 1}[value] == 1
            assert (value == copy.copy(value)) is False

    def test_config_holds_no_separate_blocks(self, tmp_path):
        config = load_config(_write(tmp_path, BASE))
        for name in ("atomic", "optical", "layout"):
            assert not hasattr(config, name)

    def test_explicit_blocks_and_noise(self, tmp_path):
        payload = {
            "n_pulses": 1,
            "coupling": {"g_tau": 0.02},
            "atoms": {"mean_jx": 40.0,
                      "cov": [[0.0, 0.0, 0.0],
                              [0.0, 30.0, 1.0],
                              [0.0, 1.0, 20.0]]},
            "light": {"mean_sx": 50.0,
                      "cov": np.diag([0.0, 25.0, 25.0]).tolist()},
            "noise": {"33": 2.0, "35": 0.5, "55": 4.0},
            "r_a": 0.8,
            "n_shots": 500,
            "seed": 9,
        }
        config = load_config(_write(tmp_path, payload))
        assert config.j33 == 20.0
        assert config.j0 == 20.0  # |mean_jx| / 2
        assert config.noise.n35 == 0.5
        assert config.params.kappa == pytest.approx(1.0)
        assert config.params.r_a == 0.8

    def test_full_noise_matrix(self, tmp_path):
        noise = np.zeros((6, 6))
        noise[2, 2] = 3.0
        payload = dict(BASE, noise=noise.tolist())
        config = load_config(_write(tmp_path, payload))
        assert config.noise.n33 == 3.0

    def test_kappa_and_gtau_give_same_model(self, tmp_path):
        by_kappa = load_config(_write(tmp_path, BASE, "a.json"))
        by_gtau = load_config(_write(
            tmp_path, dict(BASE, coupling={"g_tau": 0.02}), "b.json"))
        assert by_kappa.params == by_gtau.params


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="absent"):
            load_config(tmp_path / "absent.json")

    def test_bad_json_reports_line_and_column(self, tmp_path):
        path = _write(tmp_path, '{\n  "n_pulses": oops\n}')
        with pytest.raises(ConfigError, match=r":2:15:"):
            load_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="pulse_count"):
            load_config(_write(tmp_path, dict(BASE, pulse_count=3)))

    def test_bad_pulse_count(self, tmp_path):
        with pytest.raises(ConfigError, match="n_pulses"):
            load_config(_write(tmp_path, dict(BASE, n_pulses=4)))

    def test_coupling_requires_exactly_one_form(self, tmp_path):
        payload = dict(BASE, coupling={"kappa": 1.0, "g_tau": 0.02})
        with pytest.raises(ConfigError, match="coupling"):
            load_config(_write(tmp_path, payload))

    @pytest.mark.parametrize("kappa, light, refusal", [
        # kappa / mean_sx = 1e310: simulate printed numpy warnings, then
        # refused its first record row as non-finite; the refusal named
        # g_tau, a field this config does not give
        (1e300, {"mean_sx": 1e-10, "cov": np.eye(3).tolist()},
         "coupling.kappa: g_tau = kappa / mean_sx overflows: "),
        # 2e-400 gave g_tau 0.0: simulate ran with the coupling off
        (1e-200, {"n_photons": 1e200},
         "coupling.kappa: g_tau = kappa / mean_sx underflows to 0: ")])
    def test_coupling_out_of_range_is_refused(self, tmp_path, kappa, light,
                                              refusal):
        payload = dict(BASE, n_pulses=1, coupling={"kappa": kappa},
                       light=light)
        with pytest.raises(ConfigError, match=f"^{re.escape(refusal)}"):
            load_config(_write(tmp_path, payload))

    def test_coupling_weight_that_overflows_is_refused(self, tmp_path):
        payload = dict(BASE, coupling={"g_tau": 1e300},
                       light={"n_photons": 1e100})
        with pytest.raises(ConfigError, match="^kappa = g_tau \\* mean_sx "
                           "overflows: "):
            load_config(_write(tmp_path, payload))

    def test_atoms_forms_are_exclusive(self, tmp_path):
        payload = dict(BASE, atoms={"n_atoms": 100.0, "mean_jx": 50.0})
        with pytest.raises(ConfigError, match="^atoms: n_atoms cannot be "
                           "combined with other keys$"):
            load_config(_write(tmp_path, payload))

    def test_light_forms_are_exclusive(self, tmp_path):
        # one parser reads both sections, each in its own words
        payload = dict(BASE, light={"n_photons": 100.0, "mean_sx": 50.0})
        with pytest.raises(ConfigError, match="^light: n_photons cannot be "
                           "combined with other keys$"):
            load_config(_write(tmp_path, payload))

    def test_light_cov_shape_must_match_pulses(self, tmp_path):
        payload = dict(BASE, light={"mean_sx": 50.0,
                                    "cov": np.eye(6).tolist()})
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, payload))

    def test_noise_keys_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="noise"):
            load_config(_write(tmp_path, dict(BASE, noise={"3x": 1.0})))
        with pytest.raises(ConfigError, match="noise"):
            load_config(_write(tmp_path, dict(BASE, noise={"70": 1.0})))

    def test_j0_required_without_polarization(self, tmp_path):
        payload = dict(BASE, atoms={"mean_jx": 0.0,
                                    "cov": np.diag([0.0, 25.0, 25.0]).tolist()})
        with pytest.raises(ConfigError, match="j0"):
            load_config(_write(tmp_path, payload))
        # an explicit j0 fixes it
        config = load_config(_write(tmp_path, dict(payload, j0=25.0),
                                    "ok.json"))
        assert config.j0 == 25.0

    def test_j0_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigError, match="j0"):
            load_config(_write(tmp_path, dict(BASE, j0=-1.0)))

    def test_survival_fractions_bounded(self, tmp_path):
        with pytest.raises(ConfigError, match="r_a"):
            load_config(_write(tmp_path, dict(BASE, r_a=1.5)))

    def test_shot_count_minimum(self, tmp_path):
        with pytest.raises(ConfigError, match="n_shots"):
            load_config(_write(tmp_path, dict(BASE, n_shots=1)))

    def test_numbers_must_be_numbers(self, tmp_path):
        with pytest.raises(ConfigError, match="r_l"):
            load_config(_write(tmp_path, dict(BASE, r_l="0.9")))

    def test_booleans_are_not_numbers(self, tmp_path):
        with pytest.raises(ConfigError, match="z_threshold"):
            load_config(_write(tmp_path, dict(BASE, z_threshold=True)))

    @pytest.mark.parametrize("payload, message", [
        (dict(BASE, noise={"33": float("nan")}), r"noise\.33: must be finite"),
        (dict(BASE, noise={"35": float("inf")}), r"noise\.35: must be finite"),
        (dict(BASE, noise=np.full((6, 6), np.nan).tolist()),
         r"noise: entries must be finite"),
        (dict(BASE, atoms={"mean_jx": 50.0,
                           "cov": [[0.0, 0.0, 0.0], [0.0, 25.0, float("nan")],
                                   [0.0, float("nan"), 25.0]]}),
         r"atoms\.cov: entries must be finite"),
        (dict(BASE, light={"mean_sx": 50.0,
                           "cov": np.diag([0.0, 25.0, float("inf")] * 3
                                          ).tolist()}),
         r"light\.cov: entries must be finite"),
        (dict(BASE, noise={"33": "2"}), r"noise\.33: must be a number"),
        (dict(BASE, noise=2.0), "noise: must be an entry map or a 6x6 matrix"),
        ({k: v for k, v in BASE.items() if k != "light"},
         "light: required section"),
        (dict(BASE, atoms={"mean_jx": 50.0}),
         "atoms: expected n_atoms, or mean_jx with cov"),
        (dict(BASE, light={"mean_sx": 0.0,
                           "cov": np.diag([0.0, 25.0, 25.0] * 3).tolist()}),
         "coupling.kappa: needs a nonzero light mean_sx"),
        ([BASE], "top level must be an object"),
        # beyond the float range: float() raised OverflowError, a traceback
        (dict(BASE, seed=10 ** 400), "seed: must be finite"),
        (dict(BASE, noise={"33": -10 ** 400}), r"noise\.33: must be finite"),
        ({k: v for k, v in BASE.items() if k != "atoms"},
         "atoms: required section"),
        ({k: v for k, v in BASE.items() if k != "coupling"},
         "coupling: required section"),
        (dict(BASE, light={"n_photons": 100.0, "mean_sx": 50.0}),
         "light: n_photons cannot be combined with other keys"),
        (dict(BASE, light={"mean_sx": 50.0}),
         "light: expected n_photons, or mean_sx with cov"),
        ({k: v for k, v in BASE.items() if k != "n_pulses"},
         "n_pulses: required"),
        (dict(BASE, n_pulses=2.5), "n_pulses: must be an integer, got 2.5"),
        (dict(BASE, atoms={"mean_jx": 50.0, "cov": "x"}),
         r"atoms\.cov: must be a numeric matrix"),
        # the model's own refusal, as a ConfigError: it was a
        # NotSymmetricError, raised past the config's wrap
        (dict(BASE, atoms={"mean_jx": 50.0,
                           "cov": [[0.0, 0.0, 0.0], [0.0, 25.0, 1.0],
                                   [0.0, 0.0, 25.0]]}),
         "atomic covariance departs from symmetry"),
    ])
    def test_refusal_names_the_field(self, tmp_path, payload, message):
        path = tmp_path / "cfg.json"
        # json writes NaN and Infinity, which Python's JSON reader accepts
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    @pytest.mark.parametrize("field", ["r_l", "r_a", "j33", "z_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_numbers_must_be_finite(self, tmp_path, field, value):
        with pytest.raises(ConfigError, match=rf"{field}: must be finite"):
            load_config(_write(tmp_path, dict(BASE, **{field: value})))
