"""Golden JSON reports: fixed small runs pinned by sha256 digest.

Every other byte-diff check compares execution modes (serial, pooled,
streaming, served) of one build against each other, so a change that
moved outcomes the same way in every mode would pass them all. These
digests pin the report bytes themselves. A deliberate change to read
outcomes must update them, and say why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.runtime.cli import main as cli_main

_BASE_ARGS = [
    "--profile", "ecoli-like", "--scale", "0.0005", "--seed", "7",
    "--max-read-length", "4000", "--quiet",
]

GOLDEN_DIGESTS = {
    "no-align": "f28caa66b94b813e8128060005f7f74961438b57bb73853a5d9eccbf2129f54d",
    "align": "164272f622ebb01e3b60966252f047b627673f596d748357d3ea2b2e51f66585",
}


@pytest.mark.parametrize(
    ("name", "extra"), [("no-align", []), ("align", ["--align"])]
)
def test_report_digest_is_pinned(tmp_path, name, extra):
    out = tmp_path / f"{name}.json"
    assert cli_main(_BASE_ARGS + extra + ["--json", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_DIGESTS[name], (
        f"{name} report changed; if deliberate, record why and re-pin"
    )
