"""Command-line round trips, exit codes, and bundle regeneration."""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import qrepeat.cli as cli
import qrepeat.instruments as ins
import qrepeat.opalgebra as oa
from helpers import (NORM_DEFECT, UNDECIDED_NORMS, near_complete_instrument,
                     no_repeatable_form_instruments)
from qrepeat import (Dyad, Family, IndexSet, Instrument, Settings, StructuredOperator,
                     build_binary_example, build_example_family,
                     build_nonrepeatable_sibling, build_orthogonal, make_instrument)
from qrepeat.config import current


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


@given(term_docs())
def test_a_parsed_term_is_the_term_the_constructors_build(doc):
    parsed = cli._term_from(doc, "terms", 0)
    re, im = doc["coeff"]
    if doc["kind"] == "dyad":
        built = Dyad(complex(re, im), doc["out"], doc["in"])
    else:
        built = Family(complex(re, im), doc["outStride"], doc["outOffset"],
                       doc["inStride"], doc["inOffset"], doc.get("jStart", 0))
    assert type(parsed.coeff) is complex
    assert [parsed.coeff.real.hex(), parsed.coeff.imag.hex()] == \
        [built.coeff.real.hex(), built.coeff.imag.hex()]
    assert [getattr(parsed, f) for f in oa.Term.__slots__[1:]] == \
        [getattr(built, f) for f in oa.Term.__slots__[1:]]


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
                                  ["--tolerance", "-1e-3"], ["--period-cap", "0"]])
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


def test_certify_rejects_malformed_file(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = runner.invoke(cli.main, ["certify", str(path)])
    assert result.exit_code == 2


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
    # building checks completeness, certifying reads the effects, and the
    # povm and classification documents share one
    assert len(calls) == 3


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
