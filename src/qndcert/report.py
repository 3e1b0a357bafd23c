"""JSON serialization of statistics bundles and certification reports."""

from __future__ import annotations

import json
from pathlib import Path

from .certification import CertificationReport
from .estimation import EstimatedModel
from .recordio import RecordSummary, write_atomic
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
    out: dict = dict(moments.entries())
    out["n_shots"] = moments.n_shots
    if moments.se is not None:
        out["se"] = dict(moments.se)
    return out


def delta_to_dict(delta: DeltaStats) -> dict:
    out: dict = dict(delta.entries())
    if delta.se is not None:
        out["se"] = dict(delta.se)
    return out


def estimates_to_dict(estimates: EstimatedModel | None) -> dict | None:
    if estimates is None:
        return None
    return {
        "r_a": estimates.r_a,
        "r_a_se": estimates.r_a_se,
        "r_a_from_var": estimates.r_a_from_var,
        "r_a_from_var_se": estimates.r_a_from_var_se,
        "r_a_discrepancy": estimates.r_a_discrepancy,
        "noise": {
            "n33": estimates.noise.n33,
            "n35": estimates.noise.n35,
            "n55": estimates.noise.n55,
            "negative_entries": list(estimates.noise.negative_entries),
        },
        "cond_var_jz": estimates.cond_var_jz,
        "warnings": list(estimates.warnings),
    }


def _records_meta(records: RecordSummary | None,
                  moments: tuple[MomentSet, MomentSet] | None) -> dict | None:
    if records is None or moments is None:
        return None
    return {
        "seed": records.seed,
        "params_hash": records.params_hash,
        "n_shots": moments[0].n_shots,
        "n_pulses": moments[0].n_pulses,
        "sha256": dict(records.sha256),
        "moments_source": records.moments_source,
    }


def report_to_dict(report: CertificationReport,
                   moments: tuple[MomentSet, MomentSet] | None = None,
                   records: RecordSummary | None = None,
                   r_l: float | None = None) -> dict:
    """Full report as a stable, versioned JSON-ready dict.

    ``moments`` and ``records`` add the measured context when the report
    came from shot data: the records block names the record set (seed,
    params hash, sizes, each CSV's sha256) and whether the moments came
    from its sidecar or from parsing the CSVs.  ``r_l`` echoes the
    reference scaling used for the delta statistics.
    """
    ncl = report.nonclassical
    out = {
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
        "moments": None if moments is None else {
            "with_atoms": moments_to_dict(moments[0]),
            "no_atoms": moments_to_dict(moments[1]),
        },
        "delta": delta_to_dict(report.delta),
        "var_p": report.var_p,
        "var_p_se": report.var_p_se,
        "figures": {
            "c2_in_meter": report.figures.c2_in_meter,
            "c2_in_out": report.figures.c2_in_out,
            "c2_out_meter": report.figures.c2_out_meter,
            "undefined": dict(report.figures.undefined),
        },
        "estimates": estimates_to_dict(report.estimates),
        "nonclassicality": {
            "dx2_s_given_m": ncl.dx2_s_given_m,
            "dx2_m": ncl.dx2_m,
            "dx2_s": ncl.dx2_s,
            "product_sm": ncl.product_sm,
            "r_a_assumed": ncl.r_a_assumed,
        },
        "squeezing": None if report.squeezing is None else {
            "squeezed": report.squeezing.squeezed,
            "margin": report.squeezing.margin,
        },
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
        "records": _records_meta(records, moments),
    }
    return out


def exit_code(report: CertificationReport) -> int:
    """Process exit status: 0 certified, 10 not certified, 2 inconclusive."""
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_CERTIFIED if report.verdict_full_qnd else EXIT_NOT_CERTIFIED


def dump_json(data: dict, path: str | Path | None = None) -> str:
    """Serialize; write atomically when a path is given."""
    text = json.dumps(data, indent=2) + "\n"
    if path is not None:
        write_atomic(Path(path), text.encode())
    return text
