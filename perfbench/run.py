"""qndcert benchmark: one command for every workload and metric.

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 15
    python3 perfbench/run.py --workload acquire --trace 1

Each workload runs in its own child process (``child.py``), one at a
time; the package is imported from the checkout's ``src``.  Without
``--trace`` the run reports the end-to-end metrics of ``BENCHMARK.json``;
set-up is timed in that child and in ``SETUP_REPEATS - 1`` more children
that stop after set-up, and ``setup_s`` is their median.  With
``--trace 1`` a single child alternates untraced and traced iterations
and the run reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it give each figure with its sample
count, ``fail_frac`` and the environment, which are also written with the
spans to ``.bench_out/``.  Timings are scaled to a reference CPU speed
measured next to them; ``cpuspeed.py`` says why.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from cpuspeed import interpreter_probe, scaled_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SETUP_REPEATS = 5
# Children still running this long after a workload started are killed,
# so that one workload's run ends within three minutes.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # One BLAS thread: the sampler's products are too small to gain from
    # more, and threads that wait on a busy CPU make timings erratic.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _spawn(argv: list[str], deadline: float) -> dict:
    """Run ``child.py argv``; its result plus ``setup_s``: the time from
    the moment before the process was started to the end of its set-up,
    scaled by the CPU speed probed just before and just after."""
    command = [sys.executable, str(HERE / "child.py"), *argv]
    before = interpreter_probe()
    started = time.monotonic()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, env=_child_env(),
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - started))
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{' '.join(argv[:2])}: timed out") from None
        raise
    if child.returncode != 0:
        raise BenchError(f"{' '.join(argv[:2])}: child exited "
                         f"{child.returncode}")
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{' '.join(argv[:2])}: no result line") from None
    result["setup_s"] = scaled_times([result["ready_at"] - started],
                                     [before, result["probe"]])[0]
    return result


def _fail_line(result: dict) -> str:
    frac = result["failed"] / result["attempted"]
    return (f"  {'fail_frac':30s}{frac:<14.6g} ratio     "
            f"{result['failed']} of {result['attempted']} operations failed")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Measure one workload; the result holds ``metrics`` and the lines
    that describe them."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(int(trace))]
    if tiny:
        common.append("--tiny")
    setups: list[float] = []
    for repeat in range(1 if trace else SETUP_REPEATS):
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
        try:
            measure = repeat == SETUP_REPEATS - 1 or trace
            argv = common + ["--workdir", str(workdir)]
            result = _spawn(argv if measure else argv + ["--setup-only"],
                            deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        setups.append(result["setup_s"])

    units = {metric["name"]: metric["unit"]
             for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
    work = result["workload"]
    lines = [f"{name} seed={seed} trace={int(trace)}: item = {work['item']}"]
    if trace:
        values = result["layers"]
        traced = result["traced_iterations"]
        notes = {
            "trace.overhead_frac": f"{traced} traced vs "
                                   f"{len(result['iterations']) - traced} "
                                   "untraced iterations, CPU-speed scaled",
        }
        for stem, tail in result["tails"].items():
            which = (f"p{tail['percentile']:g}" if tail["percentile"]
                     else "max")
            notes[f"{stem}_tail"] = f"{which} of {tail['calls']} calls"
        names = [m["name"] for m in SPEC["per_layer"]]
        if result["absent"]:
            lines.append(f"  absent (no such function): "
                         f"{', '.join(result['absent'])}")
    else:
        iterations = result["scaled_iterations"]
        unscaled = (work["items_per_iteration"]
                    / statistics.median(result["iterations"]))
        values = {
            "items_per_s": (work["items_per_iteration"]
                            / statistics.median(iterations)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        notes = {
            "items_per_s": f"median of {len(iterations)} iterations, "
                           f"CPU-speed scaled ({unscaled:.6g} unscaled)",
            "setup_s": f"median of {len(setups)} set-ups",
            "peak_rss_mb": "ru_maxrss of the measuring child",
        }
        names = [m["name"] for m in SPEC["end_to_end"]]
    metrics = {}
    for metric in names:
        metrics[metric] = {"value": values[metric], "unit": units[metric]}
        lines.append(f"  {metric:30s}{values[metric]:<14.6g} "
                     f"{units[metric]:9s} {notes.get(metric, '')}".rstrip())
    lines.append(_fail_line(result))
    env = dict(result["env"], seed=seed, **work)
    lines.append("  env " + json.dumps(env))
    record = dict(result, setup_samples=setups, metrics=metrics, env=env)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    return {"metrics": metrics, "lines": lines,
            "attempted": result["attempted"], "failed": result["failed"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="qndcert benchmark",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (for the benchmark's tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qndcert" / "__init__.py").is_file():
        print(f"perfbench: no qndcert sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    names = WORKLOADS if args.workload == "all" else [args.workload]
    runs = {}
    try:
        for name in names:
            runs[name] = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), args.tiny)
            print("\n".join(runs[name]["lines"]), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = runs[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": value for name, run in runs.items()
                   for metric, value in run["metrics"].items()}
    attempted = sum(run["attempted"] for run in runs.values())
    failed = sum(run["failed"] for run in runs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
