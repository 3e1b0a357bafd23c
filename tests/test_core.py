import numpy as np
import pytest

from qndcert import (
    AtomicBlock,
    DimensionMismatchError,
    GaussianState,
    Layout,
    LayoutError,
    NotPositiveSemidefiniteError,
    NotSymmetricError,
    OpticalBlock,
    PositivityWarning,
    get_entry,
    make_initial_state,
)


class TestLayout:
    def test_dimension_tracks_pulse_count(self):
        assert Layout(1).dimension == 6
        assert Layout(2).dimension == 9
        assert Layout(3).dimension == 12

    def test_labels_order_spin_then_pulses(self):
        labels = Layout(2).labels
        assert labels == ("J_x", "J_y", "J_z",
                          "P_x", "P_y", "P_z",
                          "Q_x", "Q_y", "Q_z")

    def test_index_round_trips_labels(self):
        layout = Layout(3)
        for k, label in enumerate(layout.labels):
            assert layout.index(label) == k

    def test_meter_components(self):
        layout = Layout(3)
        assert layout.meter_labels == ("P_y", "Q_y", "R_y")
        assert layout.meter_indices == (4, 7, 10)

    def test_block_slices_partition_the_vector(self):
        layout = Layout(3)
        assert layout.block_slice(0) == slice(0, 3)
        assert layout.block_slice(2) == slice(6, 9)

    @pytest.mark.parametrize("bad", [0, 4, -1, 2.5])
    def test_rejects_bad_pulse_count(self, bad):
        with pytest.raises(LayoutError):
            Layout(bad)

    @pytest.mark.parametrize("bad", [2.0, 3.0, True, False, np.int64(2)])
    def test_pulse_count_must_be_an_int(self, bad):
        with pytest.raises(LayoutError, match="n_pulses must be 1, 2 or 3"):
            Layout(bad)
        with pytest.raises(LayoutError, match="n_pulses must be 1, 2 or 3"):
            OpticalBlock.coherent(100.0, bad)

    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    def test_meter_slice_selects_the_meter_block(self, n_pulses):
        layout = Layout(n_pulses)
        cov = np.arange(layout.dimension ** 2, dtype=float).reshape(
            layout.dimension, -1)
        meters = layout.meter_indices
        np.testing.assert_array_equal(
            cov[layout.meter_slice, layout.meter_slice],
            cov[np.ix_(meters, meters)])

    def test_unknown_label(self):
        with pytest.raises(LayoutError):
            Layout(1).index("Q_y")

    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    def test_tables_equal_the_generated_labels(self, n_pulses):
        # The layout's label tables against the generator and tuple search
        # they replace, including the message for an unknown label.
        names = ("J",) + ("P", "Q", "R")[:n_pulses]
        labels = tuple(f"{name}_{axis}" for name in names
                       for axis in ("x", "y", "z"))
        meters = tuple(f"{name}_y" for name in ("P", "Q", "R")[:n_pulses])
        layout = Layout(n_pulses)
        assert layout.labels == labels
        assert [layout.index(label) for label in labels] \
            == [labels.index(label) for label in labels]
        assert layout.meter_labels == meters
        assert layout.meter_indices == tuple(labels.index(m) for m in meters)
        for bad in ("R_y", "J_w", "", "p_y", None, 4, ["P_y"]):
            if bad in labels:
                continue
            with pytest.raises(LayoutError) as caught:
                layout.index(bad)
            assert str(caught.value) == (f"unknown component {bad!r} for a "
                                         f"{n_pulses}-pulse layout")


class TestBlocks:
    def test_coherent_atoms(self):
        block = AtomicBlock.coherent(100.0)
        assert block.mean_jx == 50.0
        np.testing.assert_array_equal(block.cov,
                                      np.diag([0.0, 25.0, 25.0]))
        assert block.css_variance == 25.0

    def test_coherent_light_is_block_diagonal(self):
        block = OpticalBlock.coherent(100.0, 3)
        assert block.mean_sx == 50.0
        assert block.n_pulses == 3
        assert block.cov[4, 4] == 25.0
        assert block.cov[4, 7] == 0.0

    def test_atomic_cov_must_be_symmetric(self):
        cov = np.diag([0.0, 25.0, 25.0])
        cov[0, 1] = 1.0
        with pytest.raises(NotSymmetricError):
            AtomicBlock(mean_jx=50.0, cov=cov)

    def test_atomic_cov_shape(self):
        with pytest.raises(DimensionMismatchError):
            AtomicBlock(mean_jx=50.0, cov=np.eye(4))

    def test_optical_cov_shape(self):
        with pytest.raises(DimensionMismatchError):
            OpticalBlock(mean_sx=50.0, cov=np.eye(5))

    def test_negative_photon_number(self):
        with pytest.raises(ValueError):
            OpticalBlock.coherent(-1.0, 1)

    def test_blocks_are_frozen(self):
        block = AtomicBlock.coherent(100.0)
        with pytest.raises(ValueError):
            block.cov[1, 1] = 0.0


class TestGaussianState:
    def test_assembly_places_blocks_and_means(self):
        layout = Layout(2)
        state = make_initial_state(AtomicBlock.coherent(100.0),
                                   OpticalBlock.coherent(64.0, 2), layout)
        assert state.mean[layout.index("J_x")] == 50.0
        assert state.mean[layout.index("P_x")] == 32.0
        assert state.mean[layout.index("Q_x")] == 32.0
        assert state.mean[layout.index("J_z")] == 0.0
        assert get_entry(state, "J_z", "J_z") == 25.0
        assert get_entry(state, "P_y", "P_y") == 16.0
        # atoms and incoming light are uncorrelated by construction
        assert get_entry(state, "J_z", "P_y") == 0.0

    def test_pulse_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            make_initial_state(AtomicBlock.coherent(100.0),
                               OpticalBlock.coherent(100.0, 2), Layout(3))

    def test_near_symmetric_input_is_symmetrized(self):
        layout = Layout(1)
        cov = np.eye(6)
        cov[0, 1] = 1e-14  # below the symmetry tolerance
        state = GaussianState(layout, np.zeros(6), cov)
        assert state.cov[0, 1] == state.cov[1, 0]

    def test_asymmetric_cov_rejected(self):
        cov = np.eye(6)
        cov[0, 1] = 1e-6
        with pytest.raises(NotSymmetricError):
            GaussianState(Layout(1), np.zeros(6), cov)

    def test_mean_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            GaussianState(Layout(1), np.zeros(5), np.eye(6))

    def test_indefinite_cov_warns_by_default(self):
        cov = np.eye(6)
        cov[5, 5] = -1.0
        with pytest.warns(PositivityWarning):
            GaussianState(Layout(1), np.zeros(6), cov)

    def test_positivity_warning_names_the_constructing_line(self):
        cov = np.eye(6)
        cov[5, 5] = -1.0
        with pytest.warns(PositivityWarning) as caught:
            GaussianState(Layout(1), np.zeros(6), cov)  # the line warned
        assert len(caught) == 1
        assert caught[0].filename == __file__
        with open(__file__) as handle:
            line = handle.readlines()[caught[0].lineno - 1]
        assert line.rstrip().endswith("# the line warned")

    def test_indefinite_cov_raises_in_strict_mode(self, monkeypatch):
        monkeypatch.setenv("QNDC_STRICT_PSD", "1")
        cov = np.eye(6)
        cov[5, 5] = -1.0
        with pytest.raises(NotPositiveSemidefiniteError):
            GaussianState(Layout(1), np.zeros(6), cov)

    def test_tiny_negative_eigenvalue_tolerated_silently(self):
        # round-off scale relative to the trace must not trip the check
        cov = np.eye(6)
        cov[5, 5] = -1e-12
        state = GaussianState(Layout(1), np.zeros(6), cov)
        assert state.cov[5, 5] == -1e-12

    def test_arrays_frozen(self):
        state = make_initial_state(AtomicBlock.coherent(4.0),
                                   OpticalBlock.coherent(4.0, 1), Layout(1))
        with pytest.raises(ValueError):
            state.cov[0, 0] = 1.0
        with pytest.raises(ValueError):
            state.mean[0] = 1.0


def test_public_names_are_the_imported_ones():
    import qndcert

    names = qndcert.__all__
    assert names == sorted(set(names))
    assert {"certify", "MomentSet", "delta_stats", "simulate_moments",
            "write_arms", "read_moments"} <= set(names)
    for name in names:
        assert not name.startswith("_")
        assert not isinstance(getattr(qndcert, name), type(qndcert))
    # submodules, helpers of the package itself and deleted API stay out
    assert not {"statistics", "ModuleType", "estimate_kappa_from_means",
                "ShotRecords", "simulate_arm", "simulate_shots",
                "write_records", "read_records", "sample_moments",
                "chunk_views"} & set(names)
    for name in ("of", "merge"):
        assert not hasattr(qndcert.MomentAccumulator, name)
    namespace = {}
    exec("from qndcert import *", namespace)
    assert set(names) <= namespace.keys()
