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
every file.  ``simulate --steps 200 --seed 3`` runs on the sampling files
``binary``, ``ex2`` and ``ex8``, from ``--initial 0`` and from
``--initial 0.6,0.8``, so the trajectory logs pin the bits of trajectory
selection.  Each digest covers the exit code, stdout, stderr and the
written document or log, with the input and output directories replaced by
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
SIMULATED = ("binary", "ex2", "ex8")
INITIALS = ("0", "0.6,0.8")
# digest key -> (stem, command, initial state of a simulate run)
RUNS = {**{f"{s}.{c}": (s, c, None) for s in STEMS for c in COMMANDS},
        **{f"{s}.simulate.{i}": (s, "simulate", i) for s in SIMULATED for i in INITIALS}}


def render(stem: str, cmd: str, out: Path, initial: str | None = None) -> bytes:
    """The exit code, stdout, stderr and document of ``cmd`` on ``stem``; for
    ``simulate``, the log of 200 steps with seed 3 from ``initial``."""
    args = [cmd, str(SWEEP / f"{stem}.instrument.json")]
    if initial is None:
        target = out / f"{stem}.{cmd}.json"
        args += ["--out", str(target)]
    else:
        target = out / f"{stem}.{cmd}.jsonl"
        args += ["--log", str(target), "--steps", "200", "--seed", "3", "--initial", initial]
    result = CliRunner().invoke(cli.main, args)
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
    assert sorted(expected) == sorted(
        [f"{s}.{c}" for s in STEMS for c in COMMANDS]
        + [f"{s}.simulate.{i}" for s in SIMULATED for i in INITIALS])
    assert set(SIMULATED) <= set(STEMS)


def _check(key, expected, tmp_path):
    blob = render(*RUNS[key][:2], tmp_path, RUNS[key][2])
    if _digest(blob) != expected[key]:
        dump = tmp_path / f"{key}.txt"
        dump.write_bytes(blob)
        pytest.fail(f"{key} differs from its digest; output in {dump}")


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize("stem", STEMS)
def test_sweep_output_matches_its_digest(stem, cmd, expected, tmp_path):
    _check(f"{stem}.{cmd}", expected, tmp_path)


@pytest.mark.parametrize("initial", INITIALS)
@pytest.mark.parametrize("stem", SIMULATED)
def test_sweep_trajectory_log_matches_its_digest(stem, initial, expected, tmp_path):
    _check(f"{stem}.simulate.{initial}", expected, tmp_path)


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as tmp:
            digests = {key: _digest(render(s, c, Path(tmp), i))
                       for key, (s, c, i) in RUNS.items()}
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    elif len(sys.argv) == 3 and sys.argv[1] == "--dump":
        dump = Path(sys.argv[2])
        dump.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for key, (s, c, i) in RUNS.items():
                (dump / f"{key}.txt").write_bytes(render(s, c, Path(tmp), i))
    else:
        sys.exit("usage: test_sweep.py --write | --dump DIR")
