"""Command-line surface: instrument files, reports, logs, and demo bundles.

All artifacts are JSON with a schemaVersion field, written with sorted keys
so regeneration under the same inputs is byte-identical.  Coefficients are
serialized as decimal floats in shortest round-trip form, so parsing a
serialized instrument reproduces the operators exactly.  Trajectory logs
are line-delimited: a header line, then one record per step.

Exit codes: 0 success (for ``certify``: repeatable), 1 not repeatable,
2 parse or validation failure.  The default output directory is the
``QREPEAT_OUTDIR`` environment variable, falling back to the current
directory.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from . import opalgebra as oa
from .certify import certify_repeatable, classify_povm
from .errors import QRepeatError
from .indexsets import IndexSet, set_period_cap
from .instruments import (Instrument, build_binary_example,
                          build_example_family, make_instrument)
from .opalgebra import Dyad, Family, StateVector, StructuredOperator
from .simulate import run_trajectory
from .wold import memory_map, split, wold_decompose

SCHEMA_VERSION = "1"


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _out_dir(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get("QREPEAT_OUTDIR", "."))


def _stem(path: str) -> str:
    stem = Path(path).stem
    return stem[:-11] if stem.endswith(".instrument") else stem


def _apply_knobs(tolerance: float | None, period_cap: int | None):
    if tolerance is not None:
        oa.set_tolerance(tolerance)
    if period_cap is not None:
        set_period_cap(period_cap)


# -- JSON forms --------------------------------------------------------------


def _term_doc(t) -> dict:
    if t.length == 1:
        return {"kind": "dyad", "coeff": [t.coeff.real, t.coeff.imag],
                "out": t.out_offset, "in": t.in_offset}
    return {"kind": "family", "coeff": [t.coeff.real, t.coeff.imag],
            "outStride": t.out_stride, "outOffset": t.out_offset,
            "inStride": t.in_stride, "inOffset": t.in_offset}


def _term_from(doc, where: str):
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: term must be an object")
    kind = doc.get("kind")
    raw = doc.get("coeff")
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not all(isinstance(x, (int, float)) for x in raw)):
        raise ValueError(f"{where}: coeff must be a [re, im] pair")
    coeff = complex(raw[0], raw[1])

    def index(field, minimum=0):
        v = doc.get(field)
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
            raise ValueError(f"{where}: {field} must be an integer >= {minimum}")
        return v

    if kind == "dyad":
        return Dyad(coeff, index("out"), index("in"))
    if kind == "family":
        return Family(coeff, index("outStride", 1), index("outOffset"),
                      index("inStride", 1), index("inOffset"),
                      index("jStart") if "jStart" in doc else 0)
    raise ValueError(f"{where}: kind must be 'dyad' or 'family'")


def _operator_doc(op: StructuredOperator) -> list:
    return [_term_doc(t) for t in op.terms]


def _operator_from(doc, where: str) -> StructuredOperator:
    if not isinstance(doc, list):
        raise ValueError(f"{where}: terms must be a list")
    return StructuredOperator(tuple(
        _term_from(t, f"{where}[{k}]") for k, t in enumerate(doc)))


def instrument_doc(inst: Instrument) -> dict:
    return {"schemaVersion": SCHEMA_VERSION,
            "outcomes": [{"label": label, "terms": _operator_doc(op)}
                         for label, op in inst.items()]}


def instrument_from_doc(doc, check_completeness: bool = True) -> Instrument:
    if not isinstance(doc, dict):
        raise ValueError("instrument file must hold a JSON object")
    if doc.get("schemaVersion") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schemaVersion {doc.get('schemaVersion')!r}")
    outcomes = doc.get("outcomes")
    if not isinstance(outcomes, list) or not outcomes:
        raise ValueError("outcomes must be a nonempty list")
    entries = {}
    for k, o in enumerate(outcomes):
        where = f"outcomes[{k}]"
        if not isinstance(o, dict):
            raise ValueError(f"{where}: must be an object")
        label = o.get("label")
        if not isinstance(label, (int, str)) or isinstance(label, bool):
            raise ValueError(f"{where}: label must be an integer or string")
        if label in entries:
            raise ValueError(f"{where}: duplicate label {label!r}")
        entries[label] = _operator_from(o.get("terms"), f"{where}.terms")
    return make_instrument(entries, check_completeness=check_completeness)


def _indexset_doc(s: IndexSet) -> dict:
    return {"transient": sorted(s.transient), "bound": s.bound,
            "period": s.period, "residues": sorted(s.residues)}


def _state_doc(psi: StateVector) -> list:
    return [[i, amp.real, amp.imag] for i, amp in psi.items()]


def _write(doc: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _load_instrument(path: str, check_completeness: bool) -> Instrument:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        _fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        _fail(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    try:
        return instrument_from_doc(doc, check_completeness=check_completeness)
    except (ValueError, QRepeatError) as e:
        _fail(f"{path}: {e}")


# -- report rendering --------------------------------------------------------


def report_doc(rep) -> dict:
    verdict = "repeatable" if rep.repeatable else "not repeatable"
    geometry = "orthogonal" if rep.orthogonal else "non-orthogonal"
    summary = (f"{verdict}; POVM {geometry}; "
               f"completeness {'holds' if rep.complete else 'fails'}")
    return {
        "schemaVersion": SCHEMA_VERSION,
        "repeatable": rep.repeatable,
        "orthogonal": rep.orthogonal,
        "complete": rep.complete,
        "perOutcome": [{"label": label,
                        "isometricOnRange": c.isometric_on_range,
                        "rangeInSupport": c.range_in_support}
                       for label, c in rep.per_outcome.items()],
        "perPair": [{"first": e, "second": f,
                     "productVanishes": c.product_vanishes,
                     "rangesOrthogonal": c.ranges_orthogonal}
                    for (e, f), c in rep.per_pair.items()],
        "witnesses": [{"condition": w.condition,
                       "position": list(w.position) if w.position else None,
                       "deviation": w.deviation}
                      for w in rep.witnesses],
        "summary": summary,
    }


def povm_doc(pv) -> dict:
    return {"schemaVersion": SCHEMA_VERSION,
            "effects": [{"label": label, "terms": _operator_doc(p)}
                        for label, p in pv.items()]}


def classification_doc(cls) -> dict:
    return {"schemaVersion": SCHEMA_VERSION,
            "admitsRepeatableForm": cls.admits_repeatable_form,
            "omega": _indexset_doc(cls.omega_set),
            "zOmega": _operator_doc(cls.z_omega),
            "outcomes": [{"label": label,
                          "zSet": _indexset_doc(cls.z_sets[label]),
                          "z": _operator_doc(cls.z[label]),
                          "t": _operator_doc(cls.t[label])}
                         for label in cls.z]}


def wold_doc(inst: Instrument) -> dict:
    outcomes = []
    for label, op in inst.items():
        entry = {"label": label}
        try:
            parts = split(op)
            dec = wold_decompose(parts.v)
        except QRepeatError as e:
            entry["unsupported"] = str(e)
            outcomes.append(entry)
            continue
        entry.update({
            "v": _operator_doc(parts.v),
            "w": _operator_doc(parts.w),
            "u": _operator_doc(dec.u),
            "s": _operator_doc(dec.s),
            "shiftOrbits": [{"generator": o.generator, "prefix": list(o.prefix),
                             "phases": list(o.phases), "step": o.step}
                            for o in dec.shift_orbits],
            "cycles": [list(c) for c in dec.cycles],
            "cycleFamilies": [{"offsets": list(c.offsets), "step": c.step}
                              for c in dec.cycle_families],
            "bilateralOrbits": [{"descendingPhases": list(b.descending_phases),
                                 "descendingStep": b.descending_step,
                                 "core": list(b.core),
                                 "ascendingPhases": list(b.ascending_phases),
                                 "ascendingStep": b.ascending_step}
                                for b in dec.bilateral_orbits],
            "fixedDomain": _indexset_doc(dec.fixed_domain),
            "unitaryDomain": _indexset_doc(dec.unitary_domain),
            "shiftDomain": _indexset_doc(dec.shift_domain),
        })
        outcomes.append(entry)
    return {"schemaVersion": SCHEMA_VERSION, "outcomes": outcomes}


def _memory_doc(reading):
    if reading is None:
        return None
    return {"orbitId": reading.orbit_id, "depth": reading.depth,
            "distribution": [[d, p] for d, p in reading.distribution]}


def write_trajectory_log(record, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps({"schemaVersion": SCHEMA_VERSION, "seed": record.seed,
                         "initialState": _state_doc(record.initial_state),
                         "steps": len(record.steps)}, sort_keys=True)]
    for k, s in enumerate(record.steps):
        lines.append(json.dumps(
            {"step": k, "outcome": s.outcome, "probability": s.probability,
             "state": _state_doc(s.post_state), "memory": _memory_doc(s.memory)},
            sort_keys=True))
    path.write_text("\n".join(lines) + "\n")
    return path


def _parse_initial(spec: str, tol: float) -> StateVector:
    text = spec.strip()
    if "," not in text:
        try:
            return StateVector.basis(int(text))
        except ValueError:
            pass
    try:
        amps = [complex(part.strip().replace("i", "j"))
                for part in text.split(",")]
    except ValueError:
        raise ValueError(f"initial state {spec!r} is neither a basis index "
                         "nor a comma-separated amplitude list")
    psi = StateVector({i: a for i, a in enumerate(amps)})
    total = psi.norm_sq()
    if total <= tol:
        raise ValueError("initial state has no amplitude")
    if abs(total - 1.0) > tol:
        click.echo(f"warning: initial state norm^2 = {total:.6g}, normalizing",
                   err=True)
    return psi.normalized()


# -- commands ----------------------------------------------------------------


@click.group()
def main():
    """Exact repeatability analysis for discrete quantum instruments."""


_tolerance = click.option("--tolerance", type=float, default=None,
                          help="Comparison tolerance override.")
_period_cap = click.option("--period-cap", type=int, default=None,
                           help="Cap on index-set periods.")


@main.command()
@click.argument("instrument", type=click.Path())
@click.option("--out", type=click.Path(), default=None,
              help="Report path (default: <stem>.report.json in the output dir).")
@_tolerance
@_period_cap
def certify(instrument, out, tolerance, period_cap):
    """Certify perfect repeatability; exit 0 when repeatable, 1 when not."""
    _apply_knobs(tolerance, period_cap)
    inst = _load_instrument(instrument, check_completeness=False)
    try:
        rep = certify_repeatable(inst)
    except QRepeatError as e:
        _fail(str(e))
    doc = report_doc(rep)
    target = Path(out) if out else _out_dir(None) / (_stem(instrument) + ".report.json")
    _write(doc, target)
    click.echo(f"{doc['summary']}")
    click.echo(f"report: {target}")
    sys.exit(0 if rep.repeatable else 1)


@main.command()
@click.argument("instrument", type=click.Path())
@click.option("--out", type=click.Path(), default=None)
@_tolerance
@_period_cap
def povm(instrument, out, tolerance, period_cap):
    """Write the instrument's POVM effects."""
    _apply_knobs(tolerance, period_cap)
    inst = _load_instrument(instrument, check_completeness=False)
    doc = povm_doc(inst.povm())
    target = Path(out) if out else _out_dir(None) / (_stem(instrument) + ".povm.json")
    _write(doc, target)
    for effect in doc["effects"]:
        click.echo(f"effect {effect['label']!r}: {len(effect['terms'])} terms")
    click.echo(f"povm: {target}")


@main.command()
@click.argument("instrument", type=click.Path())
@click.option("--out", type=click.Path(), default=None)
@_tolerance
@_period_cap
def classify(instrument, out, tolerance, period_cap):
    """Split a diagonal POVM into projective and degenerate parts."""
    _apply_knobs(tolerance, period_cap)
    inst = _load_instrument(instrument, check_completeness=False)
    try:
        cls = classify_povm(inst.povm())
    except QRepeatError as e:
        _fail(str(e))
    doc = classification_doc(cls)
    target = Path(out) if out else _out_dir(None) / (_stem(instrument) + ".classification.json")
    _write(doc, target)
    click.echo("admits repeatable form: "
               f"{'yes' if doc['admitsRepeatableForm'] else 'no'}")
    click.echo(f"classification: {target}")


@main.command()
@click.argument("instrument", type=click.Path())
@click.option("--out", type=click.Path(), default=None)
@_tolerance
@_period_cap
def wold(instrument, out, tolerance, period_cap):
    """Decompose each outcome into shift, unitary, and deposit blocks."""
    _apply_knobs(tolerance, period_cap)
    inst = _load_instrument(instrument, check_completeness=False)
    doc = wold_doc(inst)
    target = Path(out) if out else _out_dir(None) / (_stem(instrument) + ".wold.json")
    _write(doc, target)
    for entry in doc["outcomes"]:
        if "unsupported" in entry:
            click.echo(f"outcome {entry['label']!r}: unsupported ({entry['unsupported']})")
        else:
            click.echo(f"outcome {entry['label']!r}: "
                       f"{len(entry['shiftOrbits'])} shift orbits, "
                       f"{len(entry['cycles'])} cycles")
    click.echo(f"wold: {target}")


@main.command()
@click.argument("instrument", type=click.Path())
@click.option("--steps", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--initial", default="0", show_default=True,
              help="Basis index, or comma-separated amplitudes for indices 0..k.")
@click.option("--log", "log_path", type=click.Path(), default=None,
              help="Trajectory log path (default: <stem>.trajectory.jsonl).")
@_tolerance
@_period_cap
def simulate(instrument, steps, seed, initial, log_path, tolerance, period_cap):
    """Run a seeded measurement trajectory and log it step by step."""
    _apply_knobs(tolerance, period_cap)
    inst = _load_instrument(instrument, check_completeness=True)
    try:
        psi = _parse_initial(initial, oa.TOLERANCE)
        record = run_trajectory(inst, psi, steps, seed)
    except (ValueError, QRepeatError) as e:
        _fail(str(e))
    target = Path(log_path) if log_path else \
        _out_dir(None) / (_stem(instrument) + ".trajectory.jsonl")
    write_trajectory_log(record, target)
    outcomes = " ".join(repr(s.outcome) for s in record.steps)
    depths = " ".join(
        "-" if s.memory is None or s.memory.depth is None else str(s.memory.depth)
        for s in record.steps)
    click.echo(f"outcomes: {outcomes}")
    click.echo(f"memory depths: {depths}")
    click.echo(f"log: {target}")


@main.command()
@click.argument("name", type=click.Choice(["ex1", "binary"]))
@click.option("--n", type=int, default=2, show_default=True,
              help="Outcome count for ex1.")
@click.option("--p", default="0.5,0.5", show_default=True,
              help="Comma-separated success probabilities for ex1.")
@click.option("--p1", type=float, default=0.5, show_default=True)
@click.option("--p2", type=float, default=0.5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--steps", type=int, default=10, show_default=True)
@click.option("--outdir", type=click.Path(), default=None)
@_tolerance
@_period_cap
def demo(name, n, p, p1, p2, seed, steps, outdir, tolerance, period_cap):
    """Write a full bundle: instrument, reports, decomposition, trajectory."""
    _apply_knobs(tolerance, period_cap)
    try:
        if name == "ex1":
            probs = tuple(float(x) for x in p.split(","))
            inst = build_example_family(n, probs)
        else:
            inst = build_binary_example(p1, p2)
    except (ValueError, QRepeatError) as e:
        _fail(str(e))
    base = _out_dir(outdir)
    written = [_write(instrument_doc(inst), base / f"{name}.instrument.json")]
    rep = certify_repeatable(inst)
    written.append(_write(report_doc(rep), base / f"{name}.report.json"))
    written.append(_write(povm_doc(inst.povm()), base / f"{name}.povm.json"))
    try:
        cls_doc = classification_doc(classify_povm(inst.povm()))
    except QRepeatError as e:
        cls_doc = {"schemaVersion": SCHEMA_VERSION, "unsupported": str(e)}
    written.append(_write(cls_doc, base / f"{name}.classification.json"))
    written.append(_write(wold_doc(inst), base / f"{name}.wold.json"))
    record = run_trajectory(inst, StateVector.basis(0), steps, seed)
    written.append(write_trajectory_log(record, base / f"{name}.trajectory.jsonl"))
    click.echo(report_doc(rep)["summary"])
    for path in written:
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
