import json

import numpy as np
import pytest

from qndcert import ConfigError, load_config


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
        assert state.dimension == 12
        assert state.mean[0] == 50.0

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

    def test_atoms_forms_are_exclusive(self, tmp_path):
        payload = dict(BASE, atoms={"n_atoms": 100.0, "mean_jx": 50.0})
        with pytest.raises(ConfigError, match="atoms"):
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

    @pytest.mark.parametrize("field", ["r_l", "r_a", "j33", "z_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_numbers_must_be_finite(self, tmp_path, field, value):
        with pytest.raises(ConfigError, match=rf"{field}: must be finite"):
            load_config(_write(tmp_path, dict(BASE, **{field: value})))
