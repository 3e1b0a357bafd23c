#!/usr/bin/env python3
"""Check that two source trees give the same command-line outputs.

    python tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository (each with ``src/``).
The README model (the config in README.md's json block, next to this
script) is set to 1, 2 and 3 pulses, 40 000 shots per arm at the
config's seed.  Each tree runs:

* ``qndc simulate`` of each of the three configs;
* on the record sets that PARENT simulated: ``stats``, ``estimate`` and
  ``certify``, reading the sidecar, and again on copies of the CSVs
  without it, so the CSVs are parsed, and ``certify --config <the set's
  config> --z 1``;
* ``qndc selftest`` in its three modes.

Each run's exit code, stdout and stderr are compared, with the tree's own
path in stderr written as ``<tree>``, and so are the bytes of each file
that it wrote (the three files of a record set, or an ``--out`` file).
The script prints the first difference and exits 1, or prints the number
of runs that matched and exits 0.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
SHOTS = 40_000
# The README model's kappa, and its coherent spin state's j33 = n_atoms / 4
CALIBRATION = ["--kappa", "1.0", "--j33", "25"]
SELFTEST_MODES = [[], ["--flip-coupling-sign"], ["--corrupt-delta"]]


def qndc(tree: Path, args: list[str], cwd: Path) -> tuple:
    """(exit code, stdout, stderr, {name: bytes} of the files written) of
    one command run from ``tree``'s sources in ``cwd``, which starts
    empty; the files it wrote there are read and removed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, "-m", "qndcert", *args], cwd=cwd,
                          env=env, capture_output=True, text=True)
    written = {}
    for path in sorted(cwd.iterdir()):
        written[path.name] = path.read_bytes()
        path.unlink()
    return (done.returncode, done.stdout,
            done.stderr.replace(str(tree), "<tree>"), written)


def readme_model() -> dict:
    """The config in README's one json block."""
    (block,) = re.findall(r"^```json\n(.*?)^```$", README.read_text(),
                          re.DOTALL | re.MULTILINE)
    return json.loads(block)


def record_sets(parent: Path, work: Path) -> list[tuple]:
    """Simulate each pulse count's set with PARENT: (name, config path,
    record arguments) of each set, once reading the sidecar and once
    parsing."""
    model, runs = readme_model(), []
    for source in ("simulate", "sidecar", "parsed"):
        (work / source).mkdir()
    for n in (1, 2, 3):
        config = work / f"run{n}.json"
        config.write_text(json.dumps(
            {**model, "n_pulses": n, "n_shots": SHOTS}))
        code, _, stderr, written = qndc(
            parent, ["simulate", "--config", str(config), "--out",
                     f"run{n}"], work / "simulate")
        if code:
            sys.exit(f"simulate of {config.name} failed ({code}):\n{stderr}")
        for name, data in written.items():  # the parsed set has no sidecar
            (work / "sidecar" / name).write_bytes(data)
            if name.endswith(".csv"):
                (work / "parsed" / name).write_bytes(data)
        for source, r_l in (("sidecar", []),
                            ("parsed", ["--r-l", str(model["r_l"])])):
            base = work / source / f"run{n}"
            runs.append((f"{n}-pulse {source}", config,
                         ["--records", f"{base}.with_atoms.csv",
                          "--no-atoms-records", f"{base}.no_atoms.csv",
                          *r_l]))
    return runs


def commands(runs: list[tuple]) -> list[tuple[str, list[str]]]:
    """Every command to compare, by label."""
    out = ["--out", "out.json"]
    todo = [(f"simulate {config.name}",
             ["simulate", "--config", str(config), "--out", "run"])
            for config in dict.fromkeys(config for _, config, _ in runs)]
    for name, config, records in runs:
        todo += [(f"stats {name}", ["stats", *records, *out]),
                 (f"estimate {name}",
                  ["estimate", *records, *CALIBRATION, *out]),
                 (f"certify {name}",
                  ["certify", *records, *CALIBRATION, "--j0", "25", *out]),
                 (f"certify --config --z 1 {name}",
                  ["certify", "--config", str(config), "--z", "1",
                   *records, *out])]
    todo += [(" ".join(["selftest", *mode]), ["selftest", *mode])
             for mode in SELFTEST_MODES]
    return todo


def first_difference(label: str, want: tuple, got: tuple) -> str | None:
    """The first of exit code, stdout, stderr and each written file's
    bytes that differs, with its first differing line, or None."""
    files = sorted(want[3].keys() | got[3].keys())
    for what, a, b in [
            *zip(("exit code", "stdout", "stderr"), want, got),
            *((f"bytes of {name}", want[3].get(name), got[3].get(name))
              for name in files)]:
        if a == b:
            continue
        if a is None or b is None:
            return f"{label}: {what}: written by one tree only"
        if isinstance(a, (str, bytes)) and isinstance(b, (str, bytes)):
            lines = zip(a.splitlines() + [None], b.splitlines() + [None])
            for i, (x, y) in enumerate(lines, 1):
                if x != y:
                    return (f"{label}: {what} differ at line {i}:\n"
                            f"  PARENT {x!r}\n  CHANGE {y!r}")
        return f"{label}: {what} differ: PARENT {a!r}, CHANGE {b!r}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "qndcert").is_dir():
            parser.error(f"{tree} holds no src/qndcert")
    with tempfile.TemporaryDirectory() as name:
        work = Path(name)
        runs = record_sets(trees[0], work)
        cwds = [work / "cwd-parent", work / "cwd-change"]
        for cwd in cwds:
            cwd.mkdir()
        todo = commands(runs)
        for label, command in todo:
            want, got = (qndc(tree, command, cwd)
                         for tree, cwd in zip(trees, cwds))
            difference = first_difference(label, want, got)
            if difference:
                print(difference)
                return 1
    print(f"same outputs: {len(todo)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
