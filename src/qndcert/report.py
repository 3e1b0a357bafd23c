"""JSON serialization of statistics bundles and certification reports."""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

from .certification import CertificationReport
from .estimation import EstimatedModel
from .recordio import RecordSet, write_atomic
from .statistics import DeltaStats, MomentSet

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "moments_to_dict",
    "delta_to_dict",
    "estimates_to_dict",
    "report_to_dict",
    "exit_code",
    "dump_json",
]

REPORT_SCHEMA_VERSION = 1

EXIT_CERTIFIED = 0
EXIT_NOT_CERTIFIED = 10
EXIT_INCONCLUSIVE = 2


def moments_to_dict(moments: MomentSet) -> dict:
    return {**moments.entries(), "n_shots": moments.n_shots, "se": moments.se}


def delta_to_dict(delta: DeltaStats) -> dict:
    return {**delta.entries(), "se": delta.se}


def estimates_to_dict(estimates: EstimatedModel | None) -> dict | None:
    return None if estimates is None else asdict(estimates)


def _records_meta(records: RecordSet | None) -> dict | None:
    if records is None:
        return None
    return {
        "seed": records.seed,
        "params_hash": records.params_hash,
        "n_shots": records.moments[0].n_shots,
        "n_pulses": records.moments[0].n_pulses,
        "sha256": dict(records.sha256),
        "moments_source": records.moments_source,
    }


def report_to_dict(report: CertificationReport,
                   records: RecordSet | None = None,
                   r_l: float | None = None) -> dict:
    """Full report as a stable, versioned JSON-ready dict.

    ``records``, the :func:`~qndcert.recordio.read_records` result the
    report came from, adds the measured context: both arms' moments, and
    a records block naming the record set (seed, params hash, sizes, each
    CSV's sha256) and whether the moments came from its sidecar or from
    parsing the CSVs.  ``r_l`` echoes the reference scaling used for the
    delta statistics.
    """
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "certification_report",
        "n_pulses": report.n_pulses,
        "gated": report.gated,
        "calibration": {
            "kappa": report.kappa,
            "j33": report.j33,
            "j0": report.j0,
            "r_l": r_l,
            "z_threshold": report.z_threshold,
        },
        "moments": None if records is None else {
            "with_atoms": moments_to_dict(records.moments[0]),
            "no_atoms": moments_to_dict(records.moments[1]),
        },
        "delta": delta_to_dict(report.delta),
        "var_p": report.var_p,
        "var_p_se": report.var_p_se,
        "figures": asdict(report.figures),
        "estimates": estimates_to_dict(report.estimates),
        "nonclassicality": asdict(report.nonclassical),
        "squeezing": None if report.squeezing is None
        else report.squeezing._asdict(),
        "se": dict(report.se),
        "verdicts": {
            "state_prep": report.verdict_state_prep,
            "info_damage": report.verdict_info_damage,
            "full_qnd": report.verdict_full_qnd,
        },
        "point_verdicts": {
            "state_prep": report.point_state_prep,
            "info_damage": report.point_info_damage,
            "full_qnd": report.point_full_qnd,
        },
        "inconclusive": report.inconclusive,
        "reasons": list(report.reasons),
        "warnings": list(report.warnings),
        "records": _records_meta(records),
    }


def exit_code(report: CertificationReport) -> int:
    """Process exit status: 0 certified, 10 not certified, 2 inconclusive."""
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_CERTIFIED if report.verdict_full_qnd else EXIT_NOT_CERTIFIED


def _finite(value):
    """``value`` with each non-finite float None; no list here holds one."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    finite = not isinstance(value, float) or math.isfinite(value)
    return value if finite else None


def dump_json(data: dict, path: str | Path | None = None) -> str:
    """Serialize as strict JSON, a non-finite float (a reason names it) as
    null; write atomically when a path is given."""
    text = json.dumps(_finite(data), indent=2, allow_nan=False) + "\n"
    if path is not None:
        write_atomic(Path(path), text.encode())
    return text
