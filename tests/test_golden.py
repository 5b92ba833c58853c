"""Golden CLI outputs: today's bytes must equal the committed ones.

The byte-identity checks elsewhere compare two runs of the same code, so a
change that flips the last bit of a coefficient would still pass them.
This test compares against files committed under ``tests/golden/``
instead: the ``demo ex1`` and ``demo binary`` bundles, the ``certify``,
``povm``, ``classify`` and ``wold`` outputs on two committed instrument
files (console text with its exit code, plus the written JSON), and the
``--help`` text of the group and of every command at a width of 80
columns (under ``help/``).

The two instrument files are fixed data, built once and not rebuilt here:

- ``dense8.instrument.json`` is built the way ``bench/corpus.py`` builds its
  perturbed dense instruments (``_dense_ops`` with ``d=8``): an 8x8 block
  ``Q P_e Q*`` with ``Q`` from the QR of a complex Gaussian matrix drawn
  from ``numpy.random.default_rng(20261017)``, and
  ``P_e`` the projectors onto ``[0, 4)`` and ``[4, 8)``; outcome 1 is
  followed by the swap of ``|0>`` and ``|7>``, so it stays complete but
  leaves its own range (not repeatable), and carries an identity tail
  from index 8.  Its bytes depend on the LAPACK build that computed ``Q``,
  which is one more reason not to regenerate it.
- ``mod12.instrument.json`` is built the way ``bench/corpus.py`` builds its
  shift/deposit partitions (``_parts_ops`` fed to ``build_from_parts``):
  outcome 1 owns residues 0, 3, 4, 8, 9, 11 mod 12 and outcome 2 the rest;
  every class is shifted within itself by 12 (source index 5 starts at 17),
  and index 5 is deposited as ``(0.6+0.3j)|3>`` into outcome 1 and
  ``(0.5-0.3**0.5 j)|7>`` into outcome 2 (repeatable, non-orthogonal).

Run ``PYTHONPATH=src python tests/test_golden.py`` to rewrite the expected
outputs from the committed instrument files; do it only when an output
change is intended.
"""

import shutil
import tempfile
from pathlib import Path

from click.testing import CliRunner

import qrepeat.cli as cli

GOLDEN = Path(__file__).parent / "golden"
INPUTS = ("dense8", "mod12")
INPUT_FILES = {f"{stem}.instrument.json" for stem in INPUTS}
COMMANDS = ("certify", "povm", "classify", "wold")
HELP = ("certify", "povm", "classify", "wold", "simulate", "demo")
DEMOS = {"ex1": ["demo", "ex1", "--n", "2", "--p", "0.5,0.5"],
         "binary": ["demo", "binary", "--p1", "0.3", "--p2", "0.7"]}


def render_outputs(out: Path) -> None:
    """Write the demo bundles and the file commands' outputs into ``out``."""
    runner = CliRunner()
    for name, args in DEMOS.items():
        result = runner.invoke(cli.main, args + ["--outdir", str(out / name)])
        assert result.exit_code == 0, result.output
    for stem in INPUTS:
        source = str(GOLDEN / f"{stem}.instrument.json")
        for cmd in COMMANDS:
            target = out / f"{stem}.{cmd}.json"
            result = runner.invoke(cli.main, [cmd, source, "--out", str(target)])
            text = result.output.replace(str(out), "<out>").replace(str(GOLDEN), "<golden>")
            (out / f"{stem}.{cmd}.txt").write_text(f"exit {result.exit_code}\n{text}")


def render_help(out: Path) -> None:
    """Write the ``--help`` texts into ``out/help``."""
    runner = CliRunner()
    (out / "help").mkdir(parents=True)
    for name, args in {"qrepeat": [], **{cmd: [cmd] for cmd in HELP}}.items():
        result = runner.invoke(cli.main, args + ["--help"], prog_name="qrepeat",
                               terminal_width=80)
        assert result.exit_code == 0, result.output
        (out / "help" / f"{name}.txt").write_text(result.output)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _compare(produced: dict[str, bytes], expected: dict[str, bytes]) -> None:
    assert sorted(produced) == sorted(expected)
    for name, data in produced.items():
        assert data == expected[name], f"{name} differs from its golden copy"


def test_cli_outputs_match_golden_files(tmp_path):
    render_outputs(tmp_path)
    _compare(_files(tmp_path), {k: v for k, v in _files(GOLDEN).items()
                                if k not in INPUT_FILES and not k.startswith("help/")})


def test_help_matches_golden_files(tmp_path):
    render_help(tmp_path)
    _compare(_files(tmp_path), {k: v for k, v in _files(GOLDEN).items()
                                if k.startswith("help/")})


if __name__ == "__main__":
    for stale in GOLDEN.iterdir():
        if stale.is_dir():
            shutil.rmtree(stale)
        elif stale.name not in INPUT_FILES:
            stale.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        render_outputs(Path(tmp))
        render_help(Path(tmp))
        shutil.copytree(tmp, GOLDEN, dirs_exist_ok=True)
