"""Command-line round trips, exit codes, and bundle regeneration."""

import importlib
import importlib.util
import json
import math
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

import qrepeat.cli as cli
import qrepeat.instruments as ins
import qrepeat.opalgebra as oa
from helpers import (NORM_DEFECT, POINT_ON_TAIL, UNDECIDED_NORMS, near_complete_instrument,
                     no_repeatable_form_instruments)
from qrepeat import QRepeatError
from qrepeat import (Dyad, Family, IndexSet, Instrument, Settings, StateVector,
                     StructuredOperator, build_binary_example, build_example_family,
                     build_nonrepeatable_sibling, build_orthogonal, make_instrument,
                     run_trajectory)
from qrepeat.config import current
from qrepeat.indexsets import from_parts


@pytest.fixture
def runner():
    return CliRunner()


def write_instrument(inst, path):
    path.write_text(json.dumps(cli.instrument_doc(inst), indent=2,
                               sort_keys=True) + "\n")
    return str(path)


def test_instrument_document_round_trip_is_exact():
    for inst in (build_example_family(3, (0.2, 0.3, 0.5)),
                 build_binary_example(0.3, 0.7)):
        doc = cli.instrument_doc(inst)
        back = cli.instrument_from_doc(doc)
        assert back.outcomes == inst.outcomes
        for label in inst.outcomes:
            assert back.operator(label) == inst.operator(label)


def test_instrument_parse_accepts_j_start():
    doc = {"schemaVersion": "1", "outcomes": [
        {"label": 1, "terms": [
            {"kind": "family", "coeff": [1.0, 0.0], "outStride": 1,
             "outOffset": 0, "inStride": 1, "inOffset": 0, "jStart": 2}]}]}
    inst = cli.instrument_from_doc(doc, check_completeness=False)
    fam = inst.operator(1).families[0]
    assert (fam.out_offset, fam.in_offset) == (2, 2)


@pytest.mark.parametrize("doc,msg", [
    ({}, "schemaVersion"),
    ({"schemaVersion": "1", "outcomes": []}, "nonempty"),
    ({"schemaVersion": "1", "outcomes": [{"label": None, "terms": []}]}, "label"),
    ({"schemaVersion": "1", "outcomes": [
        {"label": 1, "terms": [{"kind": "wedge", "coeff": [1, 0]}]}]}, "kind"),
    ({"schemaVersion": "1", "outcomes": [
        {"label": 1, "terms": [{"kind": "dyad", "coeff": [1], "out": 0, "in": 0}]}]},
     "coeff"),
    ([{"schemaVersion": "1"}], "instrument file must hold a JSON object"),
    ({"schemaVersion": "1", "outcomes": [[1, []]]}, ": must be an object"),
    ({"schemaVersion": "1", "outcomes": [{"label": 1, "terms": {}}]},
     "terms: terms must be a list"),
    ({"schemaVersion": "1", "outcomes": [{"label": 1, "terms": []}, {"label": 1, "terms": []}]},
     "duplicate label 1"),
])
def test_instrument_parse_rejects_malformed_documents(doc, msg):
    with pytest.raises(ValueError, match=msg):
        cli.instrument_from_doc(doc, check_completeness=False)


@pytest.mark.parametrize("term,text", [
    ("dyad", "term must be an object"),
    ({"kind": "dyad", "coeff": [1.0], "out": 0, "in": 0}, "coeff must be a [re, im] pair"),
    ({"kind": "dyad", "coeff": [1.0, 0.0], "out": True, "in": 0},
     "out must be an integer >= 0"),
    ({"kind": "family", "coeff": [1.0, 0.0], "outStride": 1, "outOffset": 0,
      "inStride": 0, "inOffset": 0}, "inStride must be an integer >= 1"),
    ({"kind": "family", "coeff": [1.0, 0.0], "outStride": 1, "outOffset": 0,
      "inStride": 1, "inOffset": 0, "jStart": -1}, "jStart must be an integer >= 0"),
    ({"kind": "wedge", "coeff": [1.0, 0.0]}, "kind must be 'dyad' or 'family'"),
    ({"kind": "dyad", "coeff": [10**309, 0], "out": 0, "in": 0},
     "coeff must be a [re, im] pair"),  # beyond every float
    ({"kind": "family", "coeff": [1.0, 0.0], "outStride": 1, "outOffset": -1,
      "inStride": 0, "inOffset": 0}, "outOffset must be an integer >= 0"),  # first bad field
    ({"kind": "dyad", "coeff": [True, False], "out": 0, "in": 0},
     "coeff must be a [re, im] pair"),  # JSON booleans are no numbers
])
def test_a_bad_term_is_named_by_its_path(term, text):
    doc = cli.instrument_doc(build_example_family(3, (0.2, 0.3, 0.5)))
    terms = doc["outcomes"][1]["terms"]
    terms[:] = (terms * 2)[:3] + [term]  # three good terms, then the bad one
    with pytest.raises(ValueError) as err:
        cli.instrument_from_doc(doc, check_completeness=False)
    assert str(err.value) == f"outcomes[1].terms[3]: {text}"


_COEFF_PART = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.integers(-10**20, 10**20))
_INDEX = st.integers(0, 10**12)


@st.composite
def term_docs(draw):
    coeff = [draw(_COEFF_PART), draw(_COEFF_PART)]
    if draw(st.booleans()):
        return {"kind": "dyad", "coeff": coeff, "out": draw(_INDEX), "in": draw(_INDEX)}
    doc = {"kind": "family", "coeff": coeff, "outStride": draw(st.integers(1, 10**6)),
           "outOffset": draw(_INDEX), "inStride": draw(st.integers(1, 10**6)),
           "inOffset": draw(_INDEX)}
    if draw(st.booleans()):
        doc["jStart"] = draw(st.integers(0, 10**6))
    return doc


@given(st.lists(term_docs(), min_size=1, max_size=4))
def test_a_parsed_term_is_the_term_the_constructors_build(docs):
    built = []
    for doc in docs:
        re, im = doc["coeff"]
        if doc["kind"] == "dyad":
            built.append(Dyad(complex(re, im), doc["out"], doc["in"]))
        else:
            built.append(Family(complex(re, im), doc["outStride"], doc["outOffset"],
                                doc["inStride"], doc["inOffset"], doc.get("jStart", 0)))
    try:
        want = StructuredOperator(built)
    except ValueError:  # two coefficients whose sum overflows
        with pytest.raises(ValueError, match="finite"):
            cli._operator_from(docs, "terms")
        return
    parsed = cli._operator_from(docs, "terms")
    assert all(type(t.coeff) is complex for t in parsed.terms)
    assert [(t.coeff.real.hex(), t.coeff.imag.hex()) for t in parsed.terms] == \
        [(t.coeff.real.hex(), t.coeff.imag.hex()) for t in want.terms]
    assert [[getattr(t, f) for f in oa.Term.__slots__[1:]] for t in parsed.terms] == \
        [[getattr(t, f) for f in oa.Term.__slots__[1:]] for t in want.terms]


def test_certify_exit_codes(runner, tmp_path):
    good = write_instrument(build_example_family(2, (0.5, 0.5)),
                            tmp_path / "good.json")
    bad = write_instrument(build_nonrepeatable_sibling(2, (0.5, 0.5)),
                           tmp_path / "bad.json")
    ok = runner.invoke(cli.main, ["certify", good,
                                  "--out", str(tmp_path / "g.report.json")])
    assert ok.exit_code == 0, ok.output
    assert "repeatable" in ok.output
    no = runner.invoke(cli.main, ["certify", bad,
                                  "--out", str(tmp_path / "b.report.json")])
    assert no.exit_code == 1
    report = json.loads((tmp_path / "b.report.json").read_text())
    assert report["repeatable"] is False and report["complete"] is True
    assert report["witnesses"]


def test_certify_accepts_a_stride_210_partition(runner, tmp_path):
    s = IndexSet.from_progression(210, 0)
    path = write_instrument(build_orthogonal({1: s, 2: s.complement()}),
                            tmp_path / "mod210.json")
    result = runner.invoke(cli.main, ["certify", path,
                                      "--out", str(tmp_path / "mod210.report.json")])
    assert result.exit_code == 0, result.output


def _wide_shift():
    # split cuts the evens into 20001 families of stride 40002
    k = 20001
    return Instrument(((1, StructuredOperator([Family(1.0, 2, 2, 2, 0),
                                               Family(1.0, 2 * k, 2 * k + 1, 2 * k, 1)])),))


def _period_1000_partition():
    # its two projectors absorb about 41,000 points
    s = from_parts([40999], [(1000, r) for r in range(500)])
    return build_orthogonal({0: s, 1: s.complement()})


def _stride_pair():
    # combining the two range masks needs period 154: certify must not build it
    return Instrument(((1, StructuredOperator([Family(1.0, 14, 0, 2, 0)])),
                       (2, StructuredOperator([Family(1.0, 22, 1, 2, 1)]))))


@pytest.mark.parametrize("args, build, seconds", [
    (["wold"], _wide_shift, 60.0),
    (["classify"], _period_1000_partition, 15.0),
    (["wold"], _period_1000_partition, 15.0),
    (["certify", "--period-cap", "100"], _stride_pair, math.inf),
], ids=["wold-wide-shift", "classify-partition", "wold-partition", "certify-stride-pair"])
def test_a_wide_or_long_period_instrument_is_decided_in_time(runner, tmp_path, args, build,
                                                             seconds):
    path = write_instrument(build(), tmp_path / "op.json")
    start = time.perf_counter()
    result = runner.invoke(cli.main, [args[0], path, *args[1:],
                                      "--out", str(tmp_path / "r.json")])
    assert time.perf_counter() - start < seconds
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("command", ["certify", "povm", "classify", "wold"])
def test_a_file_whose_products_overflow_exits_2(runner, tmp_path, command):
    # entrywise zero, so it loads with norm 0, but composing its POVM
    # multiplies 1e300 by 1e300
    op = StructuredOperator([Family(1e300, 1, 0, 1, 0), Family(-1e300, 2, 0, 2, 0),
                             Family(-1e300, 2, 1, 2, 1)])
    path = write_instrument(Instrument(((1, op),)), tmp_path / "op.json")
    out = tmp_path / "r.json"
    result = runner.invoke(cli.main, [command, path, "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == "error: coefficients must be finite\n"
    assert result.stdout == "" and not out.exists()


# An index of 2**63 asks for a 2**60-byte mask (certify, wold) or a list of
# 2**63 diagonal entries (classify): both requests fail at once, before any
# memory is touched.
HUGE = 2**63
HUGE_FILES = {
    "dyad": Instrument(((1, StructuredOperator([Dyad(1.0, HUGE, 0)])),)),
    "complete": Instrument((
        (1, StructuredOperator([Dyad(1.0, HUGE, HUGE)])),
        (2, StructuredOperator([Family(1.0, 1, 0, 1, 0), Dyad(-1.0, HUGE, HUGE)])))),
}


# classify refuses the incomplete dyad before it reads an index
@pytest.mark.parametrize("name, command", [
    ("dyad", "certify"), ("dyad", "wold"),
    ("complete", "certify"), ("complete", "classify"), ("complete", "wold")])
def test_an_index_too_large_to_hold_exits_2(runner, tmp_path, name, command):
    path = write_instrument(HUGE_FILES[name], tmp_path / "op.json")
    out = tmp_path / "r.json"
    result = runner.invoke(cli.main, [command, path, "--out", str(out)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: too large to hold: ")
    assert result.stdout == "" and not out.exists()


def test_knobs_last_for_one_command(tmp_path):
    knobs = ["--tolerance", "1e-3", "--period-cap", "50"]
    cli.main(["demo", "ex1", "--outdir", str(tmp_path), *knobs], standalone_mode=False)
    assert current() == Settings(1e-12, 10**6)
    # certify ends in sys.exit, and a missing file fails before any work
    for path in (tmp_path / "ex1.instrument.json", tmp_path / "missing.json"):
        with pytest.raises(SystemExit):
            cli.main(["certify", str(path), "--out", str(tmp_path / "r.json"), *knobs],
                     standalone_mode=False)
        assert current() == Settings(1e-12, 10**6)


@pytest.mark.parametrize("knob", [["--tolerance", "0"], ["--tolerance", "nan"],
                                  ["--tolerance", "inf"], ["--tolerance", "-1e-3"],
                                  ["--period-cap", "0"]])
def test_invalid_knobs_exit_2(runner, tmp_path, knob):
    path = write_instrument(build_example_family(2, (0.5, 0.5)), tmp_path / "ex.json")
    result = runner.invoke(cli.main, ["certify", path, *knob,
                                      "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2, result.output
    assert "must be positive" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("op", [NORM_DEFECT, *UNDECIDED_NORMS.values()],
                         ids=["norm_defect", *UNDECIDED_NORMS])
def test_certify_rejects_a_non_contraction_or_an_undecided_norm(runner, tmp_path, op):
    # built without make_instrument, which would refuse it
    path = write_instrument(Instrument(((1, op),)), tmp_path / "op.json")
    result = runner.invoke(cli.main, ["certify", path, "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2, result.output
    assert "norm" in result.output


def test_certify_names_the_outcome_of_an_undecided_norm(runner, tmp_path):
    evens = oa.projector(IndexSet.from_progression(2, 0))
    inst = Instrument(((1, evens), (3, UNDECIDED_NORMS["tail_head_row"])))
    path = write_instrument(inst, tmp_path / "op.json")
    result = runner.invoke(cli.main, ["certify", path, "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2, result.output
    assert "outcome 3" in result.stderr


def test_certify_reads_a_complete_instrument_whose_norm_is_undecided(runner, tmp_path):
    path = write_instrument(Instrument(tuple(POINT_ON_TAIL.items())), tmp_path / "op.json")
    result = runner.invoke(cli.main, ["certify", path, "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 1, result.output
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["complete"] is True and doc["repeatable"] is False


def _one_coeff(digits: str, imag: str = "0") -> str:
    return ('{"schemaVersion": "1", "outcomes": [{"label": 1, "terms": [{"kind": "dyad", '
            '"coeff": [' + digits + ', ' + imag + '], "out": 0, "in": 0}]}]}')


@pytest.mark.parametrize("name, inst, reason", [
    ("norm_defect", Instrument(((1, NORM_DEFECT),)), "operator for outcome 1 has norm 1.13137 > 1"),
    ("toeplitz", Instrument(((1, UNDECIDED_NORMS["toeplitz"]),)),
     "operator for outcome 1: operator norm undecided: the progressions are not monomial"),
    ("evens_tail", Instrument(((1, oa.projector(IndexSet.from_progression(2, 0))),
                               (3, UNDECIDED_NORMS["tail_head_row"]))),
     "operator for outcome 3: operator norm undecided: row 2 holds a point and a progression"),
    # 10^309 is past the largest float; 10^300 squares to inf, so no POVM is composed
    ("huge_coeff", _one_coeff("1" + "0" * 309), "outcomes[0].terms[0]: coeff must be a [re, im] pair"),
    ("bool_coeff", _one_coeff("true", "false"), "outcomes[0].terms[0]: coeff must be a [re, im] pair"),
    ("large_coeff", _one_coeff("1" + "0" * 300), "operator for outcome 1 has norm 1e+300 > 1"),
    # both parts are floats, but the modulus is past the largest float
    ("wide_coeff", _one_coeff("1.2711610061536462e+308", "1.2711610061536464e+308"),
     "coefficient moduli must be finite"),
])
def test_a_refused_input_keeps_its_exit_code_and_message(runner, tmp_path, name, inst, reason):
    path = tmp_path / f"{name}.json"
    if isinstance(inst, str):
        path.write_text(inst)
    else:
        write_instrument(inst, path)
    result = runner.invoke(cli.main, ["certify", str(path), "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert result.stderr == f"error: {path}: {reason}\n"


def test_only_an_incomplete_corpus_instrument_takes_a_norm(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_corpus", Path(__file__).resolve().parents[1] / "bench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, corpus)  # its dataclasses look it up
    spec.loader.exec_module(corpus)
    q = {name: importlib.import_module(f"qrepeat.{name}")
         for name in ("indexsets", "opalgebra", "instruments", "certify", "wold", "simulate", "cli")}
    files = {(workload, name): path for workload in corpus.WORKLOADS
             for name, path in corpus.build(q, workload, 3, tmp_path / workload).files.items()}
    normed = set()
    inner = oa.operator_norm
    monkeypatch.setattr(oa, "operator_norm", lambda op: normed.add(item) or inner(op))
    for item, path in files.items():
        try:
            cli.instrument_from_doc(json.loads(path.read_text()), check_completeness=False)
        except QRepeatError:
            pass
    # the incomplete ones, by construction: a weakened deposit and the norm defect
    assert normed == {("verdict_periodic", name)
                      for name in ("mutated0_weak", "mutated1_weak", "norm_defect")}


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner), max_leaves=40)


@given(_json_values)
@example(math.inf)
def test_the_writer_lays_out_json_as_the_indented_encoder_does(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_the_writer_refuses_what_json_cannot_encode_as_json_does():
    message = "^Object of type object is not JSON serializable$"
    with pytest.raises(TypeError, match=message):
        json.dumps({"a": [object()]}, indent=2, sort_keys=True)
    with pytest.raises(TypeError, match=message):
        cli._dumps({"a": [object()]})


def test_the_writer_writes_the_indented_document_and_a_newline(tmp_path):
    doc = {"b": [1, 2.5, float("nan"), -float("inf")], "a": {"x": "\u00e9", "y": []},
           "c": ({}, None, True)}
    cli._write(doc, tmp_path / "doc.json")
    assert (tmp_path / "doc.json").read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_certify_rejects_malformed_file(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = runner.invoke(cli.main, ["certify", str(path)])
    assert result.exit_code == 2


def test_certify_reports_a_file_that_is_not_utf8(runner, tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe\x00garbage")
    result = runner.invoke(cli.main, ["certify", str(path), "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: cannot read {path}: ")


# Neither is a JSONDecodeError: the parser raises RecursionError on the first
# and int() a ValueError on the second.
_UNDECODABLE = {
    "deep": "[" * 100000 + "]" * 100000,  # nested past the parser's stack
    "long_int": ('{"schemaVersion": "1", "outcomes": [{"label": 1, "terms": [{"kind": "dyad", '
                 '"coeff": [1, 0], "out": 1' + "0" * 4999 + ', "in": 0}]}]}'),
}


@pytest.mark.parametrize("name", sorted(_UNDECODABLE))
@pytest.mark.parametrize("command", ["certify", "povm", "classify", "wold", "simulate"])
def test_a_file_that_cannot_be_decoded_exits_2_with_its_path(runner, tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(_UNDECODABLE[name])
    out = tmp_path / "r.json"
    flag = "--log" if command == "simulate" else "--out"
    result = runner.invoke(cli.main, [command, str(path), flag, str(out)])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: invalid JSON: ")
    assert result.stdout == "" and not out.exists()


@pytest.mark.parametrize("args,env,target", [
    (["certify", "--out", "F/r.json"], {}, "F/r.json"),
    (["povm", "--out", "F/r.json"], {}, "F/r.json"),
    (["classify", "--out", "F/r.json"], {}, "F/r.json"),
    (["wold", "--out", "F/r.json"], {}, "F/r.json"),
    (["certify"], {"QREPEAT_OUTDIR": "F"}, "F/ex.report.json"),
    (["simulate", "--steps", "2", "--log", "F/t.jsonl"], {}, "F/t.jsonl"),
    (["demo", "ex1", "--outdir", "F"], {}, "F/ex1.instrument.json"),
    (["simulate", "--steps", "2"], {"QREPEAT_OUTDIR": "F"}, "F/ex.trajectory.jsonl"),
])
def test_an_output_path_under_a_regular_file_exits_2(runner, tmp_path, monkeypatch,
                                                      args, env, target):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text("a regular file\n")
    write_instrument(build_example_family(2, (0.5, 0.5)), tmp_path / "ex.json")
    if args[0] != "demo":
        args = [args[0], "ex.json", *args[1:]]
    result = runner.invoke(cli.main, args, env=env)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: cannot write {target}: ")
    assert result.stdout == ""


def test_a_library_caller_gets_the_trajectory_log_oserror(tmp_path):
    inst = build_example_family(2, (0.5, 0.5))
    record = run_trajectory(inst, StateVector.basis(0), 2, 0)
    (tmp_path / "F").write_text("a regular file\n")
    with pytest.raises(OSError):
        cli.write_trajectory_log(record, tmp_path / "F" / "t.jsonl")


def test_certify_rejects_invalid_schema(runner, tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"schemaVersion": "1", "outcomes": [
        {"label": 1, "terms": [{"kind": "dyad", "coeff": [1, 0],
                                "out": -1, "in": 0}]}]}))
    result = runner.invoke(cli.main, ["certify", str(path)])
    assert result.exit_code == 2


def test_povm_and_classify_commands(runner, tmp_path):
    path = write_instrument(build_example_family(2, (0.5, 0.5)),
                            tmp_path / "ex.json")
    r = runner.invoke(cli.main, ["povm", path, "--out", str(tmp_path / "p.json")])
    assert r.exit_code == 0
    effects = json.loads((tmp_path / "p.json").read_text())["effects"]
    assert [e["label"] for e in effects] == [1, 2]
    r = runner.invoke(cli.main, ["classify", path,
                                 "--out", str(tmp_path / "c.json")])
    assert r.exit_code == 0
    cls = json.loads((tmp_path / "c.json").read_text())
    assert cls["admitsRepeatableForm"] is True
    assert cls["omega"]["transient"] == [0]


@pytest.mark.parametrize("name", ["half", "finite_z"])
def test_classify_exits_1_when_no_repeatable_form_exists(runner, tmp_path, name):
    path = write_instrument(no_repeatable_form_instruments()[name], tmp_path / f"{name}.json")
    r = runner.invoke(cli.main, ["classify", path, "--out", str(tmp_path / "c.json")])
    assert r.exit_code == 1, r.output
    assert "admits repeatable form: no" in r.output
    assert json.loads((tmp_path / "c.json").read_text())["admitsRepeatableForm"] is False


def test_wold_command_reports_orbits(runner, tmp_path):
    path = write_instrument(build_example_family(2, (0.5, 0.5)),
                            tmp_path / "ex.json")
    r = runner.invoke(cli.main, ["wold", path, "--out", str(tmp_path / "w.json")])
    assert r.exit_code == 0
    doc = json.loads((tmp_path / "w.json").read_text())
    orbits = doc["outcomes"][0]["shiftOrbits"]
    assert orbits == [{"generator": 1, "prefix": [], "phases": [1], "step": 2}]


def test_wold_command_reports_bilateral_orbits(runner, tmp_path):
    # a unitary outcome: evens descend toward 0, a point carries 0 to 1,
    # odds ascend
    unitary = StructuredOperator((Family(1.0, 2, 0, 2, 2), Dyad(1.0, 1, 0),
                                  Family(1.0, 2, 3, 2, 1)))
    path = write_instrument(make_instrument({1: unitary}), tmp_path / "bilateral.json")
    r = runner.invoke(cli.main, ["wold", path, "--out", str(tmp_path / "w.json")])
    assert r.exit_code == 0, r.output
    (entry,) = json.loads((tmp_path / "w.json").read_text())["outcomes"]
    assert entry["bilateralOrbits"] == [{"descendingPhases": [0], "descendingStep": 2,
                                         "core": [0], "ascendingPhases": [1],
                                         "ascendingStep": 2}]
    assert entry["shiftOrbits"] == [] and entry["s"] == []


def test_simulate_writes_line_delimited_log(runner, tmp_path):
    path = write_instrument(build_example_family(2, (0.5, 0.5)),
                            tmp_path / "ex.json")
    log = tmp_path / "t.jsonl"
    r = runner.invoke(cli.main, ["simulate", path, "--steps", "5",
                                 "--seed", "0", "--log", str(log)])
    assert r.exit_code == 0, r.output
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert lines[0]["steps"] == 5 and lines[0]["seed"] == 0
    assert [rec["step"] for rec in lines[1:]] == [0, 1, 2, 3, 4]
    outcomes = {rec["outcome"] for rec in lines[1:]}
    assert len(outcomes) == 1  # ground-state start pins the outcome


def test_simulate_normalizes_amplitude_lists(runner, tmp_path):
    path = write_instrument(build_example_family(2, (0.5, 0.5)),
                            tmp_path / "ex.json")
    r = runner.invoke(cli.main, ["simulate", path, "--initial", "1,1",
                                 "--steps", "2", "--log",
                                 str(tmp_path / "t.jsonl")])
    assert r.exit_code == 0
    assert "normalizing" in r.output


def test_simulate_rejects_garbage_initial_state(runner, tmp_path):
    path = write_instrument(build_example_family(2, (0.5, 0.5)),
                            tmp_path / "ex.json")
    r = runner.invoke(cli.main, ["simulate", path, "--initial", "zig"])
    assert r.exit_code == 2
    r = runner.invoke(cli.main, ["simulate", path, "--initial", "0,0"])
    assert r.exit_code == 2
    assert r.output == "error: initial state has no amplitude\n"
    # a text that parses as an int is a basis index, never an amplitude list
    r = runner.invoke(cli.main, ["simulate", path, "--initial", "-1"])
    assert r.exit_code == 2
    assert r.output == "error: basis indices must be nonnegative\n"


def test_simulate_rejects_an_initial_state_whose_norm_overflows(runner, tmp_path):
    # 1e200 is finite, but its squared modulus is not
    path = write_instrument(build_example_family(2, (0.5, 0.5)),
                            tmp_path / "ex.json")
    r = runner.invoke(cli.main, ["simulate", path, "--initial", "1e200,1"])
    assert r.exit_code == 2
    assert "error: initial state '1e200,1' has a norm too large to represent" in r.output
    # each squared modulus is finite, their sum is not
    r = runner.invoke(cli.main, ["simulate", path, "--initial", "1e154,1e154"])
    assert r.exit_code == 2
    assert r.output == "error: initial state '1e154,1e154' has a norm too large to represent\n"


# (file, certify's exit code): dense8 is perturbed, dense16_0 repeatable
_DENSE_FILES = [(Path(__file__).parent / "golden" / "dense8.instrument.json", 1),
                (Path(__file__).parent / "sweep" / "dense16_0.instrument.json", 0)]


@pytest.mark.parametrize("path,certified", _DENSE_FILES,
                         ids=[p.name.split(".")[0] for p, _ in _DENSE_FILES])
def test_certify_and_wold_on_a_dense_file_build_no_point_term(runner, tmp_path, monkeypatch,
                                                              path, certified):
    trusted = oa.Term._trusted.__func__
    points = []

    def counting(cls, coeff, out_stride, out_offset, in_stride, in_offset, length):
        if length == 1:
            points.append((out_offset, in_offset))
        return trusted(cls, coeff, out_stride, out_offset, in_stride, in_offset, length)

    monkeypatch.setattr(oa.Term, "_trusted", classmethod(counting))
    for cmd, code in (("certify", certified), ("wold", 0)):
        r = runner.invoke(cli.main, [cmd, str(path), "--out", str(tmp_path / f"{cmd}.json")])
        assert r.exit_code == code, r.output
    assert points == []
    # povm writes the effects' point terms, built from their blocks, with the
    # bytes of the golden file and of the byte sweep
    r = runner.invoke(cli.main, ["povm", str(path), "--out", str(tmp_path / "povm.json")])
    assert r.exit_code == 0 and points
    written = (tmp_path / "povm.json").read_bytes()
    if path.parent.name == "golden":
        assert written == (path.parent / "dense8.povm.json").read_bytes()
    else:
        from test_sweep import DIGESTS, _digest, render
        assert _digest(render("dense16_0", "povm", tmp_path)) == \
            json.loads(DIGESTS.read_text())["dense16_0.povm"]


def test_demo_bundles_regenerate_byte_identical(runner, tmp_path):
    names = ["ex1.instrument.json", "ex1.report.json", "ex1.povm.json",
             "ex1.classification.json", "ex1.wold.json", "ex1.trajectory.jsonl"]
    for d in ("a", "b"):
        r = runner.invoke(cli.main, ["demo", "ex1", "--n", "2", "--p", "0.5,0.5",
                                     "--outdir", str(tmp_path / d)])
        assert r.exit_code == 0, r.output
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_demo_composes_the_povm_once_for_its_povm_and_classification(runner, tmp_path,
                                                                     monkeypatch):
    calls = []
    inner = ins.povm

    def counted(inst):
        calls.append(None)
        return inner(inst)

    monkeypatch.setattr(ins, "povm", counted)
    r = runner.invoke(cli.main, ["demo", "ex1", "--n", "2", "--outdir", str(tmp_path)])
    assert r.exit_code == 0, r.output
    # building keeps the POVM it checks completeness on, and certifying and
    # the povm and classification documents read that one
    assert len(calls) == 1


def test_demo_binary_bundle(runner, tmp_path):
    r = runner.invoke(cli.main, ["demo", "binary", "--p1", "0.3", "--p2", "0.7",
                                 "--outdir", str(tmp_path)])
    assert r.exit_code == 0, r.output
    doc = json.loads((tmp_path / "binary.instrument.json").read_text())
    back = cli.instrument_from_doc(doc)
    ref = build_binary_example(0.3, 0.7)
    for label in ref.outcomes:
        assert back.operator(label) == ref.operator(label)


def test_demo_rejects_bad_probability_vector(runner, tmp_path):
    r = runner.invoke(cli.main, ["demo", "ex1", "--n", "2", "--p", "0.5,0.7",
                                 "--outdir", str(tmp_path)])
    assert r.exit_code == 2
    r = runner.invoke(cli.main, ["demo", "ex1", "--p", "nan,1", "--outdir", str(tmp_path)])
    assert r.exit_code == 2
    assert "entries must lie in [0, 1]" in r.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("knobs,message", [
    (["--steps", "0"], "a trajectory needs at least one step"),
    (["--seed", "-1"], "expected non-negative integer"),
])
def test_demo_rejects_bad_trajectory_knobs_before_writing(runner, tmp_path, knobs, message):
    outdir = tmp_path / "bundle"
    r = runner.invoke(cli.main, ["demo", "ex1", "--outdir", str(outdir), *knobs])
    assert r.exit_code == 2
    assert r.stderr.startswith("error: ") and message in r.stderr
    assert not outdir.exists() or not any(outdir.iterdir())


def test_outdir_env_variable(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("QREPEAT_OUTDIR", str(tmp_path / "env"))
    path = write_instrument(build_example_family(2, (0.5, 0.5)),
                            tmp_path / "ex.json")
    r = runner.invoke(cli.main, ["povm", path])
    assert r.exit_code == 0
    assert (tmp_path / "env" / "ex.povm.json").exists()


def test_tolerance_flag_changes_the_verdict(runner, tmp_path):
    # an instrument that misses completeness by 1e-8 passes only when the
    # tolerance is relaxed past that
    path = write_instrument(near_complete_instrument(), tmp_path / "near.json")
    strict = runner.invoke(cli.main, ["certify", str(path),
                                      "--out", str(tmp_path / "s.json")])
    assert strict.exit_code == 1
    loose = runner.invoke(cli.main, ["certify", str(path), "--tolerance", "1e-6",
                                     "--out", str(tmp_path / "l.json")])
    assert loose.exit_code == 0
