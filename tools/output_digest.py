"""Digest every output of a fixed list of ``reskernel`` commands.

Usage::

    python tools/output_digest.py [ROOT] > digest.txt

Each command runs against the package under ``ROOT/src`` (default: the
checkout this file is in) in a fresh Python process with one BLAS thread
(``OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1``), in a temporary directory of
its own.  For each command the tool prints one ``sha256  name`` line for
its stdout, its stderr, its exit code and every file in its ``--out``
directory.  Commands echo the ``--out`` path, so that directory is masked
as ``<out>`` before stdout and stderr are hashed.

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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(root: Path, name: str, argv: list[str], files: dict[str, str]) -> list[str]:
    """The digest lines of one command run in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    work = Path(tempfile.mkdtemp(prefix="reskernel-digest-"))
    try:
        for file_name, text in files.items():
            (work / file_name).write_text(text)
        out = work / "out"
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from reskernel.cli import main; "
                                   "sys.exit(main(sys.argv[1:]))",
             *argv, "--out", str(out)],
            cwd=work, env=env, capture_output=True, check=False)
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
