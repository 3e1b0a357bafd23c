"""Run one workload in this process and print one JSON result line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It sets the workload up, reports the monotonic clock reading at
which set-up ended, then runs timed iterations for ``--seconds`` and
checks each one's outputs.  A CPU-speed probe (``cpuspeed.py``) runs
before the first iteration and after each one.  With ``--trace 1`` every
second iteration runs with the tracer's probes installed; the others
give the untraced figure that ``trace.overhead_frac`` compares against.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def git_commit(root: Path) -> str:
    """Commit of ``root`` read from its ``.git`` directory, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None for another BLAS."""
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def last_level_cache_bytes() -> int | None:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in caches.glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return None if best is None else best[1]


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "last_level_cache_bytes": last_level_cache_bytes(),
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once set-up is done")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    import qndcert

    package = Path(qndcert.__file__).resolve()
    if not package.is_relative_to(ROOT / "src"):
        print(f"perfbench: qndcert imported from {package}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2

    from cpuspeed import interpreter_probe, scaled_times
    from tracing import Tracer, tail_percentile
    from workloads import TINY, WORKLOADS

    sizes = TINY[args.workload] if args.tiny else {}
    workload = WORKLOADS[args.workload](args.workdir, args.seed, **sizes)
    workload.setup()
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at, "probe": interpreter_probe()}))
        return 0

    tracer = Tracer() if args.trace else None
    setup_probe = interpreter_probe()
    elapsed: list[float] = []
    speeds = [workload.speed_probe()]
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        index = len(elapsed)
        scope = (tracer.iteration(index) if tracer and index % 2
                 else contextlib.nullcontext())
        with scope:
            began = time.perf_counter()
            outputs = workload.iterate()
            elapsed.append(time.perf_counter() - began)
        speeds.append(workload.speed_probe())
        done, bad = workload.check(outputs)
        attempted += done
        failed += bad
        outputs = None  # release before the next iteration allocates
        if (time.perf_counter() - start >= args.seconds
                and (tracer is None or len(elapsed) >= 2)):
            break

    env = environment()
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"perfbench: BLAS runs {env['blas_threads']} threads on "
              f"{env['nproc']} CPUs", file=sys.stderr)
        return 2
    scaled = scaled_times(elapsed, speeds, workload.speed_probe)
    result = {
        "ready_at": ready_at,
        "probe": setup_probe,
        "iterations": elapsed,
        "speed_probes": speeds,
        "scaled_iterations": scaled,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       * 1024 / 1e6,
        "env": env,
        "workload": workload.describe(),
    }
    if tracer is not None:
        # Odd iterations ran traced; compare them with the even ones.
        plain, traced = scaled[0::2], scaled[1::2]
        layers = tracer.layer_metrics()
        layers["trace.overhead_frac"] = (1.0 - statistics.median(plain)
                                         / statistics.median(traced))
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans)
        result.update(
            traced_iterations=len(traced),
            layers=layers,
            absent=tracer.absent,
            spans=str(spans.relative_to(ROOT)),
            tails={stem: {"calls": n, "percentile": tail_percentile(n)}
                   for stem, n in tracer.calls_per_stem().items()},
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
