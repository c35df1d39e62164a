"""The committed output digest is what the tool prints on this checkout.

``tools/output_digest.py`` prints a header of ``# <fact> <value>`` lines
(the Python, numpy and BLAS build the output bytes depend on) and then one
sha256 line for every output of a fixed list of commands and library
builds.  Its output is committed as ``tools/output_digest.txt``.
``test_the_outputs_match_the_committed_digest`` reruns the tool, about 7 s
on two cores, and compares:

* when a header fact differs on the running build, the test skips and
  names that fact, since the README's determinism contract holds output
  bytes equal only on one build;
* otherwise every digest line must be equal, and a failure names the lines
  that moved.

A change that moves output bytes regenerates the file::

    python tools/output_digest.py > tools/output_digest.txt

and says in CHANGES.md why each line in ``git diff tools/output_digest.txt``
moved.  The other tests keep the tool's command list, its build digest and
its skip and mismatch rules working.  They import from ``tools/`` and,
read-only, from ``benchmarks/``.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reskernel import build_metric_tensor

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "tools" / "output_digest.txt"


@pytest.fixture
def output_digest(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import output_digest

    return output_digest


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import workloads

    return workloads


def _parse(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """The header's ``{fact: value}`` and the body's ``{name: sha256}``."""
    facts, hashes = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            fact, _, value = line[2:].partition(" ")
            facts[fact] = value
        else:
            sha, _, name = line.partition("  ")
            hashes[name] = sha
    return facts, hashes


def compare_digests(recorded: str, running: str) -> tuple[str | None, list[str]]:
    """``(skip reason, moved lines)`` of a running digest against the recorded one.

    The skip reason names each header fact that differs, with both values,
    and is ``None`` when the headers agree.  Only then are the bodies
    compared: the moved lines are the names whose hash differs or that
    only one side has.
    """
    recorded_facts, recorded_hashes = _parse(recorded)
    running_facts, running_hashes = _parse(running)
    changed = [f"{fact}: recorded {recorded_facts.get(fact)!r}, running "
               f"{running_facts.get(fact)!r}"
               for fact in {**recorded_facts, **running_facts}
               if recorded_facts.get(fact) != running_facts.get(fact)]
    if changed:
        return "the running build differs from the digest's header: " + "; ".join(changed), []
    return None, [name for name in {**recorded_hashes, **running_hashes}
                  if recorded_hashes.get(name) != running_hashes.get(name)]


def test_the_outputs_match_the_committed_digest():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py")],
                         capture_output=True, text=True, check=False)
    assert run.returncode == 0, run.stderr
    recorded = DIGEST.read_text()
    skip, moved = compare_digests(recorded, run.stdout)
    if skip:
        pytest.skip(skip)
    assert not moved, (
        f"{len(moved)} outputs moved: {', '.join(moved)}. If they should, run "
        "`python tools/output_digest.py > tools/output_digest.txt` and say in "
        "CHANGES.md why each moved")
    assert run.stdout == recorded


RECORDED = ("# numpy 2.4.6\n# blas-core SkylakeX\n"
            f"{'a' * 64}  motifs:x/stdout\n{'b' * 64}  motifs:x/motifs.csv\n")


def test_a_changed_header_fact_skips_and_names_it():
    running = RECORDED.replace("SkylakeX", "Haswell").replace("a" * 64, "c" * 64)
    skip, moved = compare_digests(RECORDED, running)
    assert skip is not None and "blas-core" in skip and "numpy" not in skip
    assert "'SkylakeX'" in skip and "'Haswell'" in skip
    assert moved == []


def test_a_changed_hash_fails_and_names_its_line():
    assert compare_digests(RECORDED, RECORDED) == (None, [])
    running = RECORDED.replace("b" * 64, "c" * 64)
    assert compare_digests(RECORDED, running) == (None, ["motifs:x/motifs.csv"])
    assert compare_digests(RECORDED, RECORDED + f"{'d' * 64}  motifs:x/new.csv\n") == (
        None, ["motifs:x/new.csv"])


def test_the_digest_runs_motifs_and_predict_on_every_config(output_digest):
    names = {name for name, _, _ in output_digest.commands(ROOT)}
    stems = [conf.stem for conf in (ROOT / "configs").glob("*.conf")]
    assert stems
    for stem in stems:
        assert f"motifs:{stem}" in names and f"predict:{stem}" in names


@pytest.mark.parametrize("name, workload, seed", [
    ("predict:large-cycle-seed-1", "large_cycle", 1),
    ("verify:benchmark-counts", "verify", 1),
    ("sweep:seed-0", "sweep", 0),
])
def test_the_digest_runs_what_the_benchmark_runs(output_digest, workloads, tmp_path, name,
                                                 workload, seed):
    argv = {command: argv for command, argv, _ in output_digest.commands(ROOT)}[name]
    state = workloads.WORKLOADS[workload].prepare(seed, tmp_path)
    assert state["argv"] == [*argv, "--out", str(tmp_path)]


def test_a_build_digest_hashes_its_phi_stderr_and_exit(output_digest):
    name = "cycle-stops-doubling-4x6"
    setup = output_digest.BUILDS[name]
    lines = output_digest.digest_build(ROOT, name, setup)
    hashes = [line.split("  ")[0] for line in lines]
    assert [line.split("  ")[1] for line in lines] == [
        f"build:{name}/phi", f"build:{name}/stderr", f"build:{name}/exit"]
    scope = {"np": np}
    exec(setup, scope)
    phi = build_metric_tensor(scope["reservoir"], scope["coupling"], scope["horizon"]).phi
    assert hashes == [hashlib.sha256(data).hexdigest() for data in (phi.tobytes(), b"", b"0")]
