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

The relabeling gate needs no digest.  It maps every index of an instrument
by ``i -> k*i + r`` and gives its first outcome the projector onto the
other ``k - 1`` residues mod ``k``; the verdict, completeness,
orthogonality, the witnesses (at mapped positions), the shift-orbit counts
and the error a load raises must not change.  It runs on every corpus
file for three fixed ``(k, r)`` and on drawn instruments.  So do two more
relations: permuting the outcome labels, and conjugating every outcome by
a diagonal unitary of phases in {1, i, -1, -i}.  They keep the same facts
with labels mapped, up to the order of the witnesses and the bits of
their deviations.
"""

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import qrepeat.cli as cli
from helpers import operators, partitions
from qrepeat import (Instrument, QRepeatError, build_example_family, certify_repeatable,
                     projector)
from qrepeat.wold import outcome_decompositions

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


# -- the relabeling gate -------------------------------------------------------


def _relabeled(doc: dict, k: int, r: int) -> dict:
    """The instrument document ``doc`` with every index ``i`` sent to ``k*i +
    r``, and the first outcome given the projector onto the other ``k - 1``
    residues mod ``k``, one family each."""
    def mapped(t):
        t = dict(t)
        if t["kind"] == "dyad":
            t["out"], t["in"] = k * t["out"] + r, k * t["in"] + r
            return t
        for side in ("out", "in"):
            t[f"{side}Stride"] *= k
            t[f"{side}Offset"] = k * t[f"{side}Offset"] + r
        return t

    outcomes = [{**o, "terms": [mapped(t) for t in o["terms"]]} for o in doc["outcomes"]]
    outcomes[0]["terms"] += [{"kind": "family", "coeff": [1.0, 0.0], "outStride": k,
                              "outOffset": s, "inStride": k, "inOffset": s}
                             for s in range(k) if s != r]
    return {**doc, "outcomes": outcomes}


def _renamed(condition: str, label) -> str:
    """A witness condition with each integer outcome label ``e`` in it read
    as ``label(e)``."""
    return re.sub(r"-?\d+", lambda m: repr(label(int(m.group()))), condition)


def _facts(doc: dict, at=lambda pos: pos, label=lambda e: e):
    """What the relabeling keeps of the instrument in ``doc``, loaded as the
    file commands load it: the error type of a failed load, else the
    verdict, completeness, orthogonality and witnesses (each position
    passed through ``at``, each outcome label through ``label``, each
    deviation as ``float.hex``), or the error type of a failed
    certification, and the shift-orbit count of each outcome that
    decomposes."""
    try:
        inst = cli.instrument_from_doc(doc, check_completeness=False)
    except (ValueError, QRepeatError) as e:
        return type(e)
    try:
        rep = certify_repeatable(inst)
    except (ValueError, QRepeatError) as e:
        verdict = type(e)
    else:
        verdict = (rep.repeatable, rep.complete, rep.orthogonal,
                   [(_renamed(w.condition, label), w.position and at(w.position),
                     w.deviation.hex()) for w in rep.witnesses])
    orbits = [(label(e), None if dec is None else len(dec.shift_orbits))
              for e, _, dec, _ in outcome_decompositions(inst)]
    return verdict, orbits


def _assert_relabeling_keeps_the_facts(doc: dict, k: int, r: int, name: str = ""):
    want = _facts(doc, lambda pos: (k * pos[0] + r, k * pos[1] + r))
    assert _facts(_relabeled(doc, k, r)) == want, name


def _corpus():
    for stem in STEMS:
        yield stem, json.loads((SWEEP / f"{stem}.instrument.json").read_text())


@pytest.mark.parametrize("k, r", [(2, 1), (3, 0), (5, 4)])
def test_relabeling_every_corpus_file_keeps_its_facts(k, r):
    for stem, doc in _corpus():
        _assert_relabeling_keeps_the_facts(doc, k, r, stem)


# drawn operators, mostly neither complete nor repeatable; projective
# instruments on drawn partitions; and the example family
_drawn_instruments = st.one_of(
    st.lists(operators(), min_size=1, max_size=3).map(
        lambda ops: Instrument(tuple(enumerate(ops, 1)))),
    partitions().map(lambda parts: Instrument(tuple(enumerate(map(projector, parts), 1)))),
    st.sampled_from([(0.5, 0.5), (0.3, 0.7), (0.25, 0.25, 0.5), (0.1, 0.2, 0.3, 0.4)]).map(
        lambda p: build_example_family(len(p), p)))


@given(_drawn_instruments, st.data())
@settings(deadline=None, max_examples=60)
def test_relabeling_a_drawn_instrument_keeps_its_facts(inst, data):
    k = data.draw(st.integers(2, 7))
    r = data.draw(st.integers(0, k - 1))
    _assert_relabeling_keeps_the_facts(cli.instrument_doc(inst), k, r)


# -- label permutations and diagonal phase conjugations ------------------------
#
# Both keep every fact but the order of the witnesses and orbit counts,
# which a permutation changes with the outcome order, and the bits of the
# deviations, which another order of summing may change: witnesses and
# orbit counts are compared sorted, without deviations.


def _unordered(facts):
    """``facts`` with each witness's deviation dropped, and the witnesses and
    orbit counts sorted."""
    if not isinstance(facts, tuple):
        return facts
    verdict, orbits = facts
    if isinstance(verdict, tuple):
        *flags, witnesses = verdict
        verdict = (*flags, sorted((c, pos) for c, pos, _ in witnesses))
    return verdict, sorted(orbits)


def _permuted(doc: dict, to: dict) -> dict:
    """``doc`` with each outcome label ``e`` renamed ``to[e]``."""
    return {**doc, "outcomes": [{**o, "label": to[o["label"]]} for o in doc["outcomes"]]}


def _conjugated(doc: dict, powers) -> dict:
    """``doc`` with every outcome ``M`` replaced by ``D M D*``, where ``D =
    sum_r Family(1j**powers[r], m, r, m, r)`` and ``m = len(powers)``.  A
    family is first split by ``j`` mod ``m``, so that each part meets one
    residue on each side; a coefficient turned by a power of ``i`` is
    exact."""
    m = len(powers)

    def turned(t, out, in_):
        re, im = t["coeff"]
        for _ in range((powers[out % m] - powers[in_ % m]) % 4):
            re, im = -im, re
        return {**t, "coeff": [re, im]}

    def parts(t):
        if t["kind"] == "dyad":
            return [turned(t, t["out"], t["in"])]
        split = [{**t, "outStride": m * t["outStride"],
                  "outOffset": t["outOffset"] + s * t["outStride"],
                  "inStride": m * t["inStride"], "inOffset": t["inOffset"] + s * t["inStride"]}
                 for s in range(m)]
        return [turned(u, u["outOffset"], u["inOffset"]) for u in split]

    return {**doc, "outcomes": [{**o, "terms": [u for t in o["terms"] for u in parts(t)]}
                                for o in doc["outcomes"]]}


def _assert_permuting_keeps_the_facts(doc: dict, to: dict, name: str = ""):
    want = _unordered(_facts(doc, label=to.__getitem__))
    got = _unordered(_facts(_permuted(doc, to)))
    if isinstance(want, type) and issubclass(want, QRepeatError):
        # make_instrument raises for the first failing outcome in label order,
        # so with two failing outcomes the error may be the other's
        assert isinstance(got, type) and issubclass(got, QRepeatError), name
    else:
        assert got == want, name


def _assert_conjugating_keeps_the_facts(doc: dict, powers, name: str = ""):
    assert _unordered(_facts(_conjugated(doc, powers))) == _unordered(_facts(doc)), name


@pytest.mark.parametrize("shift", [0, 1], ids=["reversed", "reversed-rotated"])
def test_permuting_the_labels_of_every_corpus_file_keeps_its_facts(shift):
    for stem, doc in _corpus():
        labels = [o["label"] for o in doc["outcomes"]]
        to = dict(zip(labels, (labels[::-1] * 2)[shift:]))
        _assert_permuting_keeps_the_facts(doc, to, stem)


@pytest.mark.parametrize("powers", [(1, 3), (0, 1, 2), (2, 0, 3, 1)])
def test_conjugating_every_corpus_file_by_a_diagonal_phase_keeps_its_facts(powers):
    for stem, doc in _corpus():
        _assert_conjugating_keeps_the_facts(doc, powers, stem)


@given(_drawn_instruments, st.data())
@settings(deadline=None, max_examples=60)
def test_permuting_the_labels_of_a_drawn_instrument_keeps_its_facts(inst, data):
    doc = cli.instrument_doc(inst)
    labels = [o["label"] for o in doc["outcomes"]]
    to = dict(zip(labels, data.draw(st.permutations(labels))))
    _assert_permuting_keeps_the_facts(doc, to)


@given(_drawn_instruments, st.lists(st.integers(0, 3), min_size=2, max_size=4))
@settings(deadline=None, max_examples=60)
def test_conjugating_a_drawn_instrument_by_a_diagonal_phase_keeps_its_facts(inst, powers):
    _assert_conjugating_keeps_the_facts(cli.instrument_doc(inst), powers)


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
