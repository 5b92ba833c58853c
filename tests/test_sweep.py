"""Byte sweep: every command's output on the committed corpus files must
hash to its committed digest.

``tests/sweep/`` holds seed-3 instrument files written once by
``bench/corpus.build`` and not rebuilt here: all 26 ``verdict_periodic``
files, and the ``verdict_dense`` files ``dense8_0``, ``dense8_1``,
``dense12_0`` and ``dense16_0`` (repeatable) and ``dense8_14``,
``dense8_15``, ``dense12_1`` and ``dense16_3`` (perturbed).  The dense
blocks come from LAPACK's ``qr``, whose bits depend on the build, so the
files are committed rather than regenerated.

Each of ``certify``, ``povm``, ``classify`` and ``wold`` runs in process on
every file.  Its digest covers the exit code, stdout, stderr and the
written document, with the input and output directories replaced by
``<sweep>`` and ``<out>``.  A mismatch writes the output under pytest's
temporary directory and names the file, so it can be diffed against the
same output of another commit, written with ``--dump DIR``.

Run ``PYTHONPATH=src python tests/test_sweep.py --write`` to rewrite the
digests; do it only when an output change is intended.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

import qrepeat.cli as cli

SWEEP = Path(__file__).parent / "sweep"
DIGESTS = SWEEP / "digests.json"
STEMS = sorted(p.name[:-len(".instrument.json")] for p in SWEEP.glob("*.instrument.json"))
COMMANDS = ("certify", "povm", "classify", "wold")


def render(stem: str, cmd: str, out: Path) -> bytes:
    """The exit code, stdout, stderr and document of ``cmd`` on ``stem``."""
    target = out / f"{stem}.{cmd}.json"
    result = CliRunner().invoke(cli.main, [cmd, str(SWEEP / f"{stem}.instrument.json"),
                                           "--out", str(target)])
    doc = target.read_text() if target.exists() else "(no document)\n"
    text = (f"exit {result.exit_code}\n-- stdout\n{result.stdout}"
            f"-- stderr\n{result.stderr}-- document\n{doc}")
    return text.replace(str(out), "<out>").replace(str(SWEEP), "<sweep>").encode()


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def expected():
    return json.loads(DIGESTS.read_text())


def test_sweep_covers_every_file_and_command(expected):
    assert sorted(expected) == sorted(f"{s}.{c}" for s in STEMS for c in COMMANDS)


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize("stem", STEMS)
def test_sweep_output_matches_its_digest(stem, cmd, expected, tmp_path):
    blob = render(stem, cmd, tmp_path)
    if _digest(blob) != expected[f"{stem}.{cmd}"]:
        dump = tmp_path / f"{stem}.{cmd}.txt"
        dump.write_bytes(blob)
        pytest.fail(f"{stem}.{cmd} differs from its digest; output in {dump}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as tmp:
            digests = {f"{s}.{c}": _digest(render(s, c, Path(tmp)))
                       for s in STEMS for c in COMMANDS}
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    elif len(sys.argv) == 3 and sys.argv[1] == "--dump":
        dump = Path(sys.argv[2])
        dump.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for s in STEMS:
                for c in COMMANDS:
                    (dump / f"{s}.{c}.txt").write_bytes(render(s, c, Path(tmp)))
    else:
        sys.exit("usage: test_sweep.py --write | --dump DIR")
