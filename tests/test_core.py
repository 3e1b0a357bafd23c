import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import qndcert
from qndcert import core
from qndcert import (
    AtomicBlock,
    DimensionMismatchError,
    GaussianState,
    Layout,
    LayoutError,
    NoiseModel,
    NotPositiveSemidefiniteError,
    NotSymmetricError,
    OpticalBlock,
    UndefinedInputError,
    get_entry,
    make_initial_state,
)
from qndcert.core import PSD_RTOL


class TestLayout:
    def test_dimension_tracks_pulse_count(self):
        assert Layout(1).dimension == 6
        assert Layout(2).dimension == 9
        assert Layout(3).dimension == 12

    def test_index_orders_spin_then_pulses(self):
        layout = Layout(2)
        labels = ("J_x", "J_y", "J_z", "P_x", "P_y", "P_z",
                  "Q_x", "Q_y", "Q_z")
        assert [layout.index(label) for label in labels] == list(range(9))

    def test_meter_components(self):
        layout = Layout(3)
        assert layout.meter_labels == ("P_y", "Q_y", "R_y")
        assert [layout.index(m) for m in layout.meter_labels] == [4, 7, 10]
        assert layout.meter_slice == slice(4, None, 3)

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
        meters = [layout.index(m) for m in layout.meter_labels]
        np.testing.assert_array_equal(
            cov[layout.meter_slice, layout.meter_slice],
            cov[np.ix_(meters, meters)])

    def test_unknown_label(self):
        with pytest.raises(LayoutError):
            Layout(1).index("Q_y")

    @pytest.mark.parametrize("block", [-1, 3])
    def test_block_outside_the_layout(self, block):
        with pytest.raises(LayoutError,
                           match=f"^block must be in 0..2, got {block}$"):
            Layout(2).block_slice(block)

    @pytest.mark.parametrize("n_pulses", [1, 2, 3])
    def test_tables_equal_the_generated_labels(self, n_pulses):
        # The layout's label tables against the generator and tuple search
        # they replace, including the message for an unknown label.
        names = ("J",) + ("P", "Q", "R")[:n_pulses]
        labels = tuple(f"{name}_{axis}" for name in names
                       for axis in ("x", "y", "z"))
        meters = tuple(f"{name}_y" for name in ("P", "Q", "R")[:n_pulses])
        layout = Layout(n_pulses)
        assert [layout.index(label) for label in labels] \
            == list(range(len(labels)))
        assert layout.meter_labels == meters
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

    @pytest.mark.parametrize("block, size", [(AtomicBlock, 3),
                                             (OpticalBlock, 6)])
    def test_non_finite_cov_rejected(self, block, size):
        cov = np.eye(size)
        cov[1, 2] = cov[2, 1] = np.nan
        with pytest.raises(UndefinedInputError,
                           match="covariance holds a non-finite entry"):
            block(50.0, cov)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block, name, size", [
        (AtomicBlock, "mean_jx", 3), (OpticalBlock, "mean_sx", 6)])
    def test_non_finite_mean_rejected_where_built(self, block, name, size,
                                                  value):
        # it was held, and refused only by the state built from it
        with pytest.raises(UndefinedInputError,
                           match=f"^{name} must be finite, got {value}$"):
            block(value, np.eye(size))

    def test_atomic_cov_shape(self):
        with pytest.raises(DimensionMismatchError):
            AtomicBlock(mean_jx=50.0, cov=np.eye(4))

    def test_optical_cov_shape(self):
        with pytest.raises(DimensionMismatchError):
            OpticalBlock(mean_sx=50.0, cov=np.eye(5))

    def test_negative_photon_number(self):
        with pytest.raises(ValueError):
            OpticalBlock.coherent(-1.0, 1)

    def test_negative_atom_number(self):
        with pytest.raises(ValueError,
                           match="^n_atoms must be nonnegative, got -1.0$"):
            AtomicBlock.coherent(-1)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["mean", "cov diagonal",
                                       "cov off-diagonal", "cov one side"])
    def test_non_finite_entries_rejected(self, value, where):
        # a NaN fails every comparison, so it passed the symmetry and PSD
        # checks and reached the sampler
        mean, cov = np.zeros(6), np.eye(6)
        if where == "mean":
            mean[2] = value
        elif where == "cov diagonal":
            cov[2, 2] = value
        elif where == "cov off-diagonal":
            cov[1, 2] = cov[2, 1] = value
        else:
            cov[1, 2] = value
        # finite first, then symmetric: no numpy warning comes first
        with pytest.raises(UndefinedInputError, match="non-finite"):
            GaussianState(Layout(1), mean, cov)

    def test_indefinite_cov_is_refused(self, monkeypatch):
        # one rule, with no switch: this warned unless QNDC_STRICT_PSD=1
        monkeypatch.delenv("QNDC_STRICT_PSD", raising=False)
        cov = np.eye(6)
        cov[5, 5] = -1.0
        with pytest.raises(NotPositiveSemidefiniteError,
                           match="eigenvalue -1.000000e\\+00 below"):
            GaussianState(Layout(1), np.zeros(6), cov)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_tolerance_is_relative_to_the_trace(self, scale):
        # the least eigenvalue may reach -PSD_RTOL * trace, and no further
        cov = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0]) * scale
        tol = PSD_RTOL * 5.0 * scale
        cov[5, 5] = -0.5 * tol
        GaussianState(Layout(1), np.zeros(6), cov)
        cov[5, 5] = -2.0 * tol
        with pytest.raises(NotPositiveSemidefiniteError):
            GaussianState(Layout(1), np.zeros(6), cov)

    def test_initial_state_is_refused_by_its_blocks(self):
        # where the block is built, so before any state
        with pytest.raises(NotPositiveSemidefiniteError,
                           match="^atomic covariance has eigenvalue "
                                 "-1.000000e\\+00 below tolerance"):
            AtomicBlock(50.0, np.diag([0.0, 25.0, -1.0]))
        with pytest.raises(NotPositiveSemidefiniteError,
                           match="^optical covariance has eigenvalue "
                                 "-1.000000e\\+00 below tolerance"):
            OpticalBlock(50.0, np.diag([0.0, 25.0, -1.0, 0.0, 25.0, 25.0]))

    def test_tiny_negative_eigenvalue_tolerated_silently(self):
        # round-off scale relative to the trace must not trip the check
        cov = np.eye(6)
        cov[5, 5] = -1e-12
        state = GaussianState(Layout(1), np.zeros(6), cov)
        assert state.cov[5, 5] == -1e-12

    def test_initial_state_is_not_checked_again(self, monkeypatch):
        # the README blocks; their checks ran when they were built
        atomic, optical = (AtomicBlock.coherent(100.0),
                           OpticalBlock.coherent(100.0, 3))
        layout = Layout(3)
        mean, cov = np.zeros(12), np.zeros((12, 12))
        mean[0], mean[3::3] = 50.0, 50.0
        cov[:3, :3], cov[3:, 3:] = atomic.cov, optical.cov
        checked = GaussianState(layout, mean, cov)

        def refuse(*args):
            raise AssertionError("the initial state was checked again")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(core, "_require_symmetric", refuse)
        state = make_initial_state(atomic, optical, layout)
        assert state.layout is layout
        for got, want in ((state.mean, checked.mean), (state.cov, checked.cov)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            assert not np.shares_memory(got, atomic.cov)
            assert not np.shares_memory(got, optical.cov)

    def test_arrays_frozen(self):
        state = make_initial_state(AtomicBlock.coherent(4.0),
                                   OpticalBlock.coherent(4.0, 1), Layout(1))
        with pytest.raises(ValueError):
            state.cov[0, 0] = 1.0
        with pytest.raises(ValueError):
            state.mean[0] = 1.0


class TestUnitFreeSymmetryRule:
    """An entering matrix may depart from symmetry by a fixed fraction of
    its largest entry, and from positivity by a fixed fraction of its
    trace, so its unit does not decide whether it is accepted."""

    # Every power-of-two scale at which the entries and their departure
    # stay normal and finite: the smallest departure, one ulp of 0.5, is
    # 2**-53, so it is normal from 2**-969; the largest entry, 1, is
    # finite to 2**1023, which is past half the float maximum.
    SCALES = range(-1022 + 53, 1024)

    BUILD = {
        "block": lambda m: AtomicBlock(50.0, m[:3, :3]),
        "state": lambda m: GaussianState(Layout(1), np.zeros(6), m),
        "noise": NoiseModel,
    }

    @pytest.mark.parametrize("kind", sorted(BUILD))
    @pytest.mark.parametrize("gap, accepted", [
        (0.1, False), (2e-12, False), (0.5e-12, True), (2.0 ** -53, True)],
        ids=["10%", "2e-12", "0.5e-12", "one-ulp"])
    def test_power_of_two_scale_keeps_the_decision(self, kind, gap, accepted):
        # largest entry 1, and (2, 1) departs from (1, 2) by ``gap``: one
        # ulp of 0.5 is 2**-53
        matrix = np.eye(6) + 0.5 * (np.eye(6, k=1) + np.eye(6, k=-1))
        matrix[2, 1] += gap
        decisions = {}
        for s in self.SCALES:
            try:
                self.BUILD[kind](matrix * 2.0 ** s)
                decisions[s] = True
            except NotSymmetricError:
                decisions[s] = False
        assert decisions[0] is accepted
        assert [s for s, d in decisions.items() if d is not accepted] == []

    # each kind's matrix size, and whether it accepts a matrix
    PSD = {
        "atomic": (3, lambda m: _accepted(NotPositiveSemidefiniteError,
                                          AtomicBlock, 50.0, m)),
        "optical": (6, lambda m: _accepted(NotPositiveSemidefiniteError,
                                           OpticalBlock, 50.0, m)),
        "state": (6, lambda m: _accepted(NotPositiveSemidefiniteError,
                                         GaussianState, Layout(1),
                                         np.zeros(6), m)),
        "noise": (6, lambda m: _accepted(NotPositiveSemidefiniteError,
                                         NoiseModel, m)),
    }

    @pytest.mark.parametrize("kind", sorted(PSD))
    @pytest.mark.parametrize("least, accepted", [
        (-4.0, False), (-0.25, True), (0.0, True)],
        ids=["4-tolerances-below", "quarter-tolerance-below", "psd"])
    def test_power_of_two_scale_keeps_the_positivity_decision(
            self, kind, least, accepted):
        # eigenvalues 1..size-1, and one ``least`` tolerances (PSD_RTOL *
        # trace) from 0, in a rotated basis: eigenvalues up to 5 * 2**s
        # stay finite to 2**1021, where a 6x6 trace overflows
        size, accepts = self.PSD[kind]
        rotation = np.linalg.qr(np.random.default_rng(7).normal(
            size=(size, size)))[0]
        rest = [float(k) for k in range(1, size)]
        eigenvalues = [least * PSD_RTOL * sum(rest)] + rest
        matrix = (rotation * eigenvalues) @ rotation.T
        matrix = (matrix + matrix.T) / 2.0
        decisions = {s: accepts(matrix * 2.0 ** s)
                     for s in range(self.SCALES.start, 1022)}
        assert decisions[0] is accepted
        assert [s for s, d in decisions.items() if d is not accepted] == []


def _accepted(error, build, *args) -> bool:
    try:
        build(*args)
    except error:
        return False
    return True


class TestNearTheFloatMaximum:
    """A finite, symmetric matrix with entries past half the float
    maximum is held as given: its symmetric part must not overflow."""

    BUILD = {
        "block": lambda m: AtomicBlock(1.0, m[:3, :3]).cov,
        "noise": lambda m: NoiseModel(m).matrix,
    }

    @pytest.mark.parametrize("kind", sorted(BUILD))
    def test_symmetric_matrix_keeps_its_bits(self, kind):
        # runs under filterwarnings = error: numpy's "overflow encountered
        # in add" failed it, and the held diagonal was inf
        matrix = np.diag([0.0, 1e308, 1e308, 1.0, 5e-324, 2.0])
        matrix[1, 2] = matrix[2, 1] = 9e307  # PSD, and the sum overflows
        matrix[0, 1] = matrix[1, 0] = 3.0
        held = self.BUILD[kind](matrix)
        size = len(held)
        assert held.tobytes() == matrix[:size, :size].tobytes()

    @pytest.mark.parametrize("kind", sorted(BUILD))
    def test_asymmetry_past_half_the_maximum_is_refused_finitely(self, kind):
        # m - m' overflowed: numpy warned, and the gap read "inf"
        matrix = np.eye(6)
        matrix[1, 2], matrix[2, 1] = 1e308, -1e308
        with pytest.raises(NotSymmetricError) as refused:
            self.BUILD[kind](matrix)
        assert str(refused.value).endswith("departs from symmetry by 2.000e+308")

    @staticmethod
    def _indefinite_past_the_maximum():
        # the trace, 2e308, overflows; the least eigenvalue is -5e307
        matrix = np.zeros((6, 6))
        matrix[2, 2] = matrix[4, 4] = 1e308
        matrix[2, 4] = matrix[4, 2] = -1.5e308
        return matrix

    @staticmethod
    def _asymmetric_past_half_the_maximum():
        # (a + b) overflows; a / 2 + b / 2 is exact at this size and is
        # the rounded mean of the two; a finite sum keeps (a + b) / 2
        a = 1.5e308
        matrix = np.eye(6)
        matrix[1, 2], matrix[2, 1] = a, np.nextafter(a, np.inf)
        matrix[0, 0] = 1.0 + 2.0 ** -52
        return matrix

    def test_indefinite_noise_past_the_maximum_is_refused(self):
        # it was accepted, flagged indefinite, and refused by the sampler
        matrix = self._indefinite_past_the_maximum()
        assert np.linalg.eigvalsh(matrix)[0] == pytest.approx(-5e307)
        with pytest.raises(NotPositiveSemidefiniteError,
                           match="^noise matrix has eigenvalue -5.000000e"
                                 "\\+307 below tolerance"):
            NoiseModel(matrix)
        # an indefinite one whose entries are halved first
        with pytest.raises(NotPositiveSemidefiniteError,
                           match="^noise matrix has eigenvalue"):
            NoiseModel(self._asymmetric_past_half_the_maximum())

    def test_indefinite_state_past_the_maximum_is_refused(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            GaussianState(Layout(1), np.zeros(6),
                          self._indefinite_past_the_maximum())

    @pytest.mark.parametrize("kind", sorted(BUILD))
    def test_asymmetric_entries_are_halved_first(self, kind):
        matrix = self._asymmetric_past_half_the_maximum()
        a, b = matrix[1, 2], matrix[2, 1]
        matrix[1, 1] = matrix[2, 2] = b  # PSD, as a noise matrix must be
        held = self.BUILD[kind](matrix)
        assert held[1, 2] == held[2, 1] == a / 2.0 + b / 2.0
        assert a <= held[1, 2] <= b
        assert held[0, 0] == matrix[0, 0] and held[1, 1] == b


class TestOneCopyPerState:
    def test_state_never_aliases_its_inputs(self):
        rng = np.random.default_rng(3)
        mean = rng.normal(size=6)
        cov = np.eye(6) * 2.0
        state = GaussianState(Layout(1), mean, cov)
        assert not np.shares_memory(state.mean, mean)
        assert not np.shares_memory(state.cov, cov)
        mean[0] = cov[0, 0] = 99.0  # the caller's arrays stay the caller's
        assert state.mean[0] != 99.0 and state.cov[0, 0] == 2.0
        # read-only inputs, and another state's arrays, are copied too
        again = GaussianState(Layout(1), state.mean, state.cov)
        assert not np.shares_memory(again.mean, state.mean)
        assert not np.shares_memory(again.cov, state.cov)
        for array in (state.mean, state.cov, again.mean, again.cov):
            assert not array.flags.writeable
            assert array.dtype == np.float64

    def test_integer_inputs_become_float_copies(self):
        state = GaussianState(Layout(1), np.arange(6), np.eye(6, dtype=int))
        assert state.mean.dtype == state.cov.dtype == np.float64
        assert not state.cov.flags.writeable

    def test_blocks_and_noise_hold_their_own_frozen_copy(self):
        from qndcert import NoiseModel
        cov = np.diag([0.0, 25.0, 25.0])
        light = np.eye(3) * 25.0
        noise = np.eye(6)
        held = (AtomicBlock(mean_jx=50.0, cov=cov).cov,
                OpticalBlock(mean_sx=50.0, cov=light).cov,
                NoiseModel(noise).matrix)
        for given, kept in zip((cov, light, noise), held):
            assert not np.shares_memory(kept, given)
            assert not kept.flags.writeable
            assert (kept == given).all()


def test_public_names_are_the_imported_ones():

    names = qndcert.__all__
    assert names == sorted(set(names))
    assert {"certify", "MomentSet", "delta_stats", "simulate_moments",
            "write_arms", "read_records"} <= set(names)
    for name in names:
        assert not name.startswith("_")
        assert not isinstance(getattr(qndcert, name), type(qndcert))
    # submodules, helpers of the package itself and deleted API stay out
    assert not {"statistics", "ModuleType", "estimate_kappa_from_means",
                "ShotRecords", "simulate_arm", "simulate_shots",
                "write_records", "sample_moments", "chunk_views",
                "estimate_ra_from_cov", "estimate_ra_from_var",
                "estimate_noise", "DegenerateCaseError",
                "InconsistentDataError", "holland_figures", "nonclassicality",
                "squeezing_condition", "read_moments", "read_summary",
                "RecordSummary", "SamplerUnsupportedError",
                "conditional_variance_from_stats"} & set(names)
    assert "SqueezingVerdict" in names
    for name in ("of", "merge", "covariance"):
        assert not hasattr(qndcert.MomentAccumulator, name)
    namespace = {}
    exec("from qndcert import *", namespace)
    assert set(names) <= namespace.keys()
    # views, options and fields that only their own tests used stay gone
    for owner, name in ((qndcert.Layout, "labels"),
                        (qndcert.Layout, "meter_indices"),
                        (qndcert.GaussianState, "dimension"),
                        (qndcert.MomentSet, "se_of"),
                        (qndcert.DeltaStats, "se_of"),
                        (qndcert.EmpiricalCheck, "z_max")):
        assert not hasattr(owner, name), (owner, name)
    assert "z_max" not in qndcert.EmpiricalCheck.__dataclass_fields__
    # a noise matrix is PSD where it is built: no flag, no second refusal
    assert list(qndcert.NoiseModel.__dataclass_fields__) == ["matrix"]
    assert not hasattr(qndcert.NoiseModel.zero(), "_psd")
    assert not hasattr(qndcert.errors, "SamplerUnsupportedError")
    assert not hasattr(qndcert.core, "_psd_violation")
    assert "noise_psd" not in inspect.signature(
        qndcert.core._derived_state).parameters
    assert "CHUNK_SHOTS" not in qndcert.montecarlo.__all__  # statistics'
    for fn, keyword in ((qndcert.condition_on_component, "outcome"),
                        (qndcert.empirical_check, "z_max")):
        assert keyword not in inspect.signature(fn).parameters


@pytest.mark.parametrize("module", sorted(
    info.name for info in pkgutil.iter_modules(qndcert.__path__)
    if info.name != "__main__"))
def test_every_module_export_resolves(module):
    # core and errors list no __all__: every public name there is API
    mod = importlib.import_module(f"qndcert.{module}")
    exports = getattr(mod, "__all__", ())
    assert len(set(exports)) == len(exports)
    for name in exports:
        assert hasattr(mod, name), f"qndcert.{module}.{name}"
