"""Gaussian model of pulsed QND spin measurement with certification.

The package follows one experiment shape end to end: a polarized atomic
ensemble is probed by up to three light pulses whose meter quadratures
pick up the spin component being measured, losses and added technical
noise degrade both, and the recorded meter statistics (minus the
no-atoms reference) are inverted to certify or refute QND behaviour.

Typical entry points: :func:`make_initial_state` and :func:`apply_pulse`
for the covariance-matrix model, :func:`predicted_moments` and
:func:`delta_stats` for the closed-form statistics, :func:`certify` for
the verdicts, :func:`simulate_moments` for sampled moments, and
:func:`write_arms` and :func:`read_records` for record files:
``read_records(with_atoms_csv, no_atoms_csv).moments`` are both arms'
moments, from the sidecar's summaries when they match the files, else
parsed.
"""

from types import ModuleType as _ModuleType

from .certification import (
    CertificationReport,
    FiguresOfMerit,
    NonClassicality,
    SqueezingVerdict,
    certify,
)
from .conditioning import (
    condition_on_component,
    conditional_variance_general,
    conditional_variance_ideal,
)
from .config import ExperimentConfig, load_config
from .core import (
    AtomicBlock,
    GaussianState,
    Layout,
    OpticalBlock,
    get_entry,
    make_initial_state,
)
from .dynamics import (
    ExperimentParams,
    NoiseModel,
    apply_pulse,
    interaction_matrix,
    noise_matrix,
    propagate,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    LayoutError,
    NotPositiveSemidefiniteError,
    NotSymmetricError,
    PositivityWarning,
    QndError,
    RecordError,
    SamplerUnsupportedError,
    UndefinedInputError,
    UninformativeCouplingError,
)
from .estimation import (
    EstimatedModel,
    EstimatedNoise,
    invert_three_pulse,
)
from .montecarlo import (
    EmpiricalCheck,
    empirical_check,
    params_hash,
    simulate_moments,
)
from .recordio import read_records, write_arms
from .report import dump_json, exit_code, report_to_dict
from .selftest import SuiteResult, closed_form_error, run_selftest
from .statistics import (
    DeltaStats,
    MomentAccumulator,
    MomentSet,
    conditional_variance_from_stats,
    delta_stats,
    meter_moments,
    no_atoms_moments,
    predicted_moments,
)

__version__ = "0.1.0"

# Every public name imported above, sorted: the imports are the one list.
__all__ = sorted(name for name, value in globals().items() if not (
    name.startswith("_") or isinstance(value, _ModuleType)))
