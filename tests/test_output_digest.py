"""The output digest lists every command and hashes a library build.

``tools/output_digest.py`` checks the byte contract: two checkouts give the
same outputs exactly when their digests are equal.  This test keeps its
command list and its build digest working.  It only imports from
``tools/``.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from reskernel import build_metric_tensor

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def output_digest(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import output_digest

    return output_digest


def test_the_digest_runs_motifs_and_predict_on_every_config(output_digest):
    names = {name for name, _, _ in output_digest.commands(ROOT)}
    stems = [conf.stem for conf in (ROOT / "configs").glob("*.conf")]
    assert stems
    for stem in stems:
        assert f"motifs:{stem}" in names and f"predict:{stem}" in names


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
