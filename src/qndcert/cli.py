"""Command-line front end.

Five subcommands cover the measurement workflow end to end:

* ``simulate``  draw shot records for both arms from a config file
* ``stats``     raw and reference-subtracted moments from records
* ``estimate``  invert the moments for loss and added noise
* ``certify``   run the certification and set the exit status
* ``selftest``  internal consistency suites

Exit status: 0 on success (for ``certify``: certified), 10 when the
certification ran but failed, 2 on inconclusive runs and on bad input,
1 for failed self-tests.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .certification import CertificationReport, certify
from .config import ExperimentConfig, check_number, load_config
from .errors import ConfigError, QndError, RecordError
from .montecarlo import arm_chunks, params_hash
from .recordio import RecordSet, read_records, sibling_meta_path, write_arms
from .report import (
    delta_to_dict,
    dump_json,
    estimates_to_dict,
    exit_code,
    moments_to_dict,
    report_to_dict,
)
from .selftest import run_selftest
from .statistics import DeltaStats, MomentSet, delta_stats

__all__ = ["main"]


def _add_record_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--records", required=True,
                        help="with-atoms CSV written by simulate")
    parser.add_argument("--no-atoms-records", required=True,
                        help="reference-arm CSV")
    parser.add_argument("--meta", default=None,
                        help="sidecar JSON (default: discovered next to "
                             "the with-atoms file)")
    parser.add_argument("--r-l", type=_flag("r_l", 0.0, 1.0), default=None,
                        help="optical transmission applied to the reference")


def _flag(field: str, minimum=None, maximum=None, positive=False,
          kind=float):
    """argparse type for a number flag, by the rule the config applies to
    ``field``: finite, within the bounds, above 0 when ``positive``."""
    def parse(text: str):
        try:
            value = kind(text)
            check_number(field, value, minimum, maximum, positive)
        except (ValueError, ConfigError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


@functools.cache  # parse_args leaves it as it was: one per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qndc",
        description="Pulsed QND measurement model and certification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw shot records from a config")
    p_sim.add_argument("--config", required=True, help="experiment JSON")
    p_sim.add_argument("--out", required=True, help="output path prefix")
    p_sim.add_argument("--shots", type=int, default=None,
                       help="override the config shot count")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p_stats = sub.add_parser("stats", help="moments and delta statistics")
    _add_record_args(p_stats)
    p_stats.add_argument("--out", default=None, help="also write JSON here")

    p_est = sub.add_parser("estimate", help="invert moments for the model")
    _add_record_args(p_est)
    p_est.add_argument("--kappa", type=_flag("kappa"), required=True,
                       help="calibrated measurement strength")
    p_est.add_argument("--j33", type=_flag("j33", 0.0), required=True,
                       help="input spin variance var(J_z)")
    p_est.add_argument("--out", default=None, help="also write JSON here")

    p_cert = sub.add_parser("certify", help="run the certification")
    _add_record_args(p_cert)
    p_cert.add_argument("--config", default=None,
                        help="experiment JSON supplying calibration "
                             "(individual flags override it)")
    p_cert.add_argument("--kappa", type=_flag("kappa"), default=None)
    p_cert.add_argument("--j33", type=_flag("j33", 0.0), default=None)
    p_cert.add_argument("--j0", type=_flag("j0", positive=True), default=None,
                        help="projection-noise variance of the ideal "
                             "coherent spin state")
    p_cert.add_argument("--z", type=_flag("z", 0.0), default=None,
                        help="verdict gate in standard errors (default 3)")
    p_cert.add_argument("--out", default=None, help="write the JSON report")

    p_self = sub.add_parser("selftest", help="internal consistency suites")
    p_self.add_argument("--sets", type=_flag("sets", 1, kind=int),
                        default=150)
    p_self.add_argument("--shots", type=_flag("shots", 2, kind=int),
                        default=20000)
    p_self.add_argument("--seed", type=_flag("seed", 0, kind=int),
                        default=20250819)
    p_self.add_argument("--flip-coupling-sign", action="store_true",
                        help="debug: run under the opposite coupling sign "
                             "(all suites must still pass)")
    p_self.add_argument("--corrupt-delta", action="store_true",
                        help="debug: mis-scale the reference subtraction "
                             "(the identity suite must fail)")
    return parser


def _load_delta(args) -> tuple[RecordSet, DeltaStats, float]:
    """The record set (:func:`read_records`) and its delta statistics at
    ``r_l`` from the flag (or config), else a sidecar no CSV contradicts,
    else 1.0."""
    meta = args.meta
    if meta is None:
        meta = sibling_meta_path(args.records)
    records = read_records(args.records, args.no_atoms_records, meta)
    for path in records.stale:
        print(f"warning: {path} differs from its sidecar digest; moments "
              f"recomputed from the CSV", file=sys.stderr)
    r_l = args.r_l if args.r_l is not None else records.r_l
    if r_l is None:
        print("warning: --r-l not given; assuming r_l = 1.0", file=sys.stderr)
        r_l = 1.0
    return records, delta_stats(*records.moments, r_l), r_l


def _print_moment_table(measured: MomentSet, reference: MomentSet,
                        delta: DeltaStats) -> None:
    print(f"shots: {measured.n_shots} per arm, {measured.n_pulses} pulse(s)")
    print(f"{'':14s}{'with atoms':>14s}{'no atoms':>14s}")
    ref = reference.entries()
    for name, value in measured.entries().items():
        print(f"{name:14s}{value:14.6f}{ref[name]:14.6f}")
    for (name, value), se in zip(delta.entries().items(), delta.se.values()):
        print(f"{name:14s}{value:14.6f}  +- {se:.6f}")


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    n_shots = config.n_shots if args.shots is None else args.shots
    seed = config.seed if args.seed is None else args.seed
    if n_shots < 2:
        return _usage_error("--shots must be at least 2")
    if seed < 0:
        return _usage_error("--seed must be nonnegative")
    params, noise, initial = config.params, config.noise, config.initial_state()
    paths = write_arms(
        lambda role: arm_chunks(params, noise, initial, n_shots, seed,
                                with_atoms=role == "with_atoms"),
        args.out, config.n_pulses, seed, params_hash(params, noise, initial),
        r_l=params.r_l)
    print(f"simulated {n_shots} shots x 2 arms "
          f"({config.n_pulses} pulse(s), seed {seed})")
    for role in ("with_atoms", "no_atoms", "meta"):
        print(f"  {role}: {paths[role]}")
    return 0


def _cmd_stats(args) -> int:
    records, delta, r_l = _load_delta(args)
    measured, reference = records.moments
    _print_moment_table(measured, reference, delta)
    if args.out is not None:
        payload = {
            "schema_version": 1,
            "kind": "moment_stats",
            "r_l": r_l,
            "with_atoms": moments_to_dict(measured),
            "no_atoms": moments_to_dict(reference),
            "delta": delta_to_dict(delta),
        }
        dump_json(payload, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    from .estimation import invert_three_pulse

    records, delta, r_l = _load_delta(args)
    measured = records.moments[0]
    estimates = invert_three_pulse(delta, measured.var_p, args.kappa, args.j33)
    print(f"r_a (covariance ratio): {estimates.r_a:.6f} "
          f"+- {estimates.r_a_se:.4f}")
    if estimates.r_a_from_var is not None:
        print(f"r_a (variance ratio):   {estimates.r_a_from_var:.6f}")
    noise = estimates.noise
    print(f"added noise: n33={noise.n33:.6f} n35={noise.n35:.6f} "
          f"n55={noise.n55:.6f}")
    print(f"conditional var(J_z): {estimates.cond_var_jz:.6f}")
    for line in estimates.warnings:
        print(f"warning: {line}", file=sys.stderr)
    if args.out is not None:
        payload = {
            "schema_version": 1,
            "kind": "model_estimates",
            "kappa": args.kappa,
            "j33": args.j33,
            "r_l": r_l,
            "estimates": estimates_to_dict(estimates),
        }
        dump_json(payload, args.out)
        print(f"wrote {args.out}")
    return 0


def _verdict_word(verdict: bool | None) -> str:
    if verdict is None:
        return "UNDECIDED"
    return "PASS" if verdict else "FAIL"


def _print_report(report: CertificationReport) -> None:
    ncl = report.nonclassical
    print(f"pulses: {report.n_pulses}, kappa: {report.kappa:.6g}, "
          f"var(J_z) in: {report.j33:.6g}, projection noise: {report.j0:.6g}")
    if report.estimates is not None:
        print(f"estimated r_a: {report.estimates.r_a:.6f}")
    for key in ("dx2_s_given_m", "dx2_m", "dx2_s", "product_sm"):
        value = getattr(ncl, key)
        if value is not None:
            print(f"{key + ':':15s}{value:.6f}")
    if report.squeezing is not None:
        state = "satisfied" if report.squeezing.squeezed else "not satisfied"
        print(f"squeezing condition {state} "
              f"(margin {report.squeezing.margin:.6g})")
    mode = "gated" if report.gated else "point"
    for key in ("state_prep", "info_damage", "full_qnd"):
        word = _verdict_word(getattr(report, f"verdict_{key}"))
        print(f"verdict {key + ':':12s} {word} ({mode})")
    for line in report.reasons:
        print(f"note: {line}")
    for line in report.warnings:
        print(f"warning: {line}", file=sys.stderr)


def _cmd_certify(args) -> int:
    config: ExperimentConfig | None = None
    if args.config is not None:
        config = load_config(args.config)
        if args.r_l is None:
            args.r_l = config.params.r_l

    def calibration(flag: str, from_config) -> float:
        value = getattr(args, flag)
        if value is not None:
            return value
        if config is not None:
            return from_config(config)
        raise SystemExit(_usage_error(f"--{flag} is required "
                                      f"(or pass --config)"))

    kappa = calibration("kappa", lambda c: c.params.kappa)
    j33 = calibration("j33", lambda c: c.j33)
    j0 = calibration("j0", lambda c: c.j0)
    z = args.z
    if z is None:
        z = config.z_threshold if config is not None else 3.0

    records, delta, r_l = _load_delta(args)
    measured = records.moments[0]
    if config is not None and records.params_hash is None:
        print("warning: records carry no params_hash; --config model not "
              "checked against them", file=sys.stderr)
    elif config is not None:
        expected = params_hash(config.params, config.noise,
                               config.initial_state())
        if records.params_hash != expected:
            raise RecordError(
                f"records were simulated from a different model: sidecar "
                f"params_hash {records.params_hash}, --config {args.config} "
                f"gives {expected}")
    report = certify(delta, measured.var_p, kappa, j33, j0, z_threshold=z)
    _print_report(report)
    if args.out is not None:
        dump_json(report_to_dict(report, records=records, r_l=r_l), args.out)
        print(f"wrote {args.out}")
    status = exit_code(report)
    if status == 0:
        print("certified: yes")
    elif report.inconclusive:
        print("certified: inconclusive")
    else:
        print("certified: no")
    return status


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_selftest(args) -> int:
    results = run_selftest(n_sets=args.sets, n_shots=args.shots,
                           seed=args.seed,
                           flip_coupling_sign=args.flip_coupling_sign,
                           corrupt_delta=args.corrupt_delta)
    failed = 0
    for result in results:
        word = "pass" if result.passed else "FAIL"
        print(f"{word}  {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    if failed:
        print(f"{failed} of {len(results)} suites failed")
        return 1
    print(f"all {len(results)} suites passed")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "stats": _cmd_stats,
    "estimate": _cmd_estimate,
    "certify": _cmd_certify,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (QndError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
