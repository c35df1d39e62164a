"""Digest every output of a fixed list of ``reskernel`` commands.

Usage::

    python tools/output_digest.py [ROOT] > digest.txt

Each command runs against the package under ``ROOT/src`` (default: the
checkout this file is in) in a fresh Python process with one BLAS thread
(``OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1``), in a temporary directory of
its own.  For each command the tool prints one ``sha256  name`` line for
its stdout, its stderr, its exit code and every file in its ``--out``
directory.  Commands echo the ``--out`` path, so that directory is masked
as ``<out>`` before stdout and stderr are hashed.  Then it runs each
library build in ``BUILDS`` the same way and prints the digest of its
feature matrix's bytes, its stderr and its exit code: every CLI build is
unit-scale, so only these show a change to the rounding of a scaled build.

The README's determinism contract makes output bytes equal at a fixed BLAS
build and thread count, so two checkouts give the same outputs exactly
when the diff of their digests is empty::

    python tools/output_digest.py path/to/parent > before.txt
    python tools/output_digest.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SERIES_LENGTH = 24


def _series(phase: float) -> str:
    """A time-series file's text: one sample per line, as ``repr`` prints it."""
    return "".join(f"{math.sin(0.7 * k + phase)!r}\n" for k in range(SERIES_LENGTH))


def commands(root: Path) -> list[tuple[str, list[str], dict[str, str]]]:
    """``(name, argv, files)`` for each command; ``files`` are written into
    its working directory first, the configs among them."""
    out = []
    for conf in sorted((root / "configs").glob("*.conf")):
        files = {conf.name: conf.read_text()}
        for command in ("motifs", "predict"):
            out.append((f"{command}:{conf.stem}", [command, "--config", conf.name], files))
    out += [
        ("sweep:seed-0", ["sweep", "--seed", "0"], {}),
        ("predict:large-cycle-seed-1",
         ["predict", "--regime", "cycle", "--input", "gaussian", "--N", "1000", "--nu", "0.995",
          "--tau", "2000", "--seed", "1"], {}),
        ("predict:symmetric-300",
         ["predict", "--regime", "symmetric", "--N", "300", "--tau", "600"], {}),
        ("predict:random-300", ["predict", "--regime", "random", "--N", "300", "--tau", "600"], {}),
        ("verify:benchmark-counts",
         ["verify", "--seed", "1", "--configs", "400", "--spectrum-configs", "240",
          "--containment-trials", "200"], {}),
        ("verify:inject-asymmetry",
         ["verify", "--seed", "0", "--inject-asymmetry", "--configs", "3",
          "--spectrum-configs", "3", "--containment-trials", "2"], {}),
        ("kernel:readout",
         ["kernel", "u.txt", "v.txt", "--support", "s1.txt", "--support", "s2.txt",
          "--coeff", "0.5", "--coeff", "-1.5", "--bias", "0.25", "--offset", "1",
          "--degree", "2", "--regime", "cycle", "--input", "pi-signs", "--N", "20",
          "--nu", "0.9", "--seed", "3"],
         {"u.txt": _series(0.0), "v.txt": _series(1.0), "s1.txt": _series(2.0),
          "s2.txt": _series(3.0)}),
    ]
    return out


# Every CLI build is unit-scale, so its weights are 0 or 1 and a change to
# the rounding of a scaled build shows in no command's output.  Each entry
# sets ``reservoir``, ``coupling`` and ``horizon``; the bytes of
# ``build_metric_tensor(reservoir, coupling, horizon).phi`` are hashed.  The
# last two are maps of ``tests/test_kernel.py`` that reach the column loop
# of a one-nonzero-per-row build: the 4-cycle after two doubling steps (its
# fourth power, 2^-1200, is not normal), the flush-to-zero map after one
# (its square holds 2^-1200), with that test's coupling times 2^-200 so
# that ``Q`` stays finite.
BUILDS = {
    "cycle-nu-0.99-300x600": (
        "reservoir = generate_reservoir(ReservoirSpec('cycle_permutation', 300, 0.99), Seed(1))\n"
        "coupling = generate_input(InputCouplingSpec(kind='gaussian', size=300), Seed(1))\n"
        "horizon = 600\n"),
    "signed-permutation-64x200": (
        "rng = np.random.default_rng(7)\n"
        "reservoir = np.zeros((64, 64))\n"
        "reservoir[np.arange(64), rng.permutation(64)] = (\n"
        "    rng.uniform(0.5, 1.0, 64) * rng.choice([-1.0, 1.0], 64))\n"
        "coupling, horizon = rng.normal(size=64), 200\n"),
    "random-iid-100x200": (
        "reservoir = generate_reservoir(ReservoirSpec('random_iid', 100, 0.9), Seed(2))\n"
        "coupling = generate_input(InputCouplingSpec(kind='gaussian', size=100), Seed(2))\n"
        "horizon = 200\n"),
    "cycle-stops-doubling-4x6": (
        "reservoir = np.zeros((4, 4))\n"
        "reservoir[np.arange(4), [1, 2, 3, 0]] = 2.0 ** -300\n"
        "coupling = np.array([2.0 ** 500, -3 * 2.0 ** 499, 5 * 2.0 ** 497, -2.0 ** 501])\n"
        "horizon = 6\n"),
    "flush-to-zero-3x40": (
        "reservoir = np.zeros((3, 3))\n"
        "reservoir[np.arange(3), [1, 2, 0]] = [2.0 ** -600, 2.0 ** 600, 2.0 ** -600]\n"
        "coupling, horizon = np.array([2.0 ** -200, 2.0 ** 300, -2.0 ** -100]), 40\n"),
}
BUILD_PROGRAM = ("import sys\nimport numpy as np\nfrom reskernel import *\n{setup}"
                 "phi = build_metric_tensor(reservoir, coupling, horizon).phi\n"
                 "sys.stdout.buffer.write(phi.tobytes())\n")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _python(root: Path, args: list[str], work: Path) -> subprocess.CompletedProcess:
    """``python args`` in ``work``, on the package under ``root``, at one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True,
                          check=False)


def digest_build(root: Path, name: str, setup: str) -> list[str]:
    """The digest lines of one library build: its ``Phi`` bytes, stderr and exit code."""
    work = Path(tempfile.mkdtemp(prefix="reskernel-digest-"))
    try:
        run = _python(root, ["-c", BUILD_PROGRAM.format(setup=setup)], work)
    finally:
        shutil.rmtree(work)
    return [f"{_sha(run.stdout)}  build:{name}/phi",
            f"{_sha(run.stderr)}  build:{name}/stderr",
            f"{_sha(str(run.returncode).encode())}  build:{name}/exit"]


def digest(root: Path, name: str, argv: list[str], files: dict[str, str]) -> list[str]:
    """The digest lines of one command run in a fresh process."""
    work = Path(tempfile.mkdtemp(prefix="reskernel-digest-"))
    try:
        for file_name, text in files.items():
            (work / file_name).write_text(text)
        out = work / "out"
        run = _python(root, ["-c", "import sys; from reskernel.cli import main; "
                                   "sys.exit(main(sys.argv[1:]))",
                             *argv, "--out", str(out)], work)
        mask = str(out).encode()
        lines = [f"{_sha(run.stdout.replace(mask, b'<out>'))}  {name}/stdout",
                 f"{_sha(run.stderr.replace(mask, b'<out>'))}  {name}/stderr",
                 f"{_sha(str(run.returncode).encode())}  {name}/exit"]
        if out.is_dir():
            lines += [f"{_sha(path.read_bytes())}  {name}/{path.relative_to(out)}"
                      for path in sorted(out.rglob("*")) if path.is_file()]
        return lines
    finally:
        shutil.rmtree(work)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 1
    root = Path(argv[0]).resolve() if argv else HERE
    for name, command, files in commands(root):
        print("\n".join(digest(root, name, command, files)), flush=True)
    for name, setup in BUILDS.items():
        print("\n".join(digest_build(root, name, setup)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
