"""Command-line surface: instrument files, reports, logs, and demo bundles.

All artifacts are JSON with a schemaVersion field, written with sorted keys
so regeneration under the same inputs is byte-identical.  Coefficients are
serialized as decimal floats in shortest round-trip form, so parsing a
serialized instrument reproduces the operators exactly.  Trajectory logs
are line-delimited: a header line, then one record per step.

Exit codes: 0 a positive verdict (for ``certify``: repeatable), 1 a
negative one, 2 parse or validation failure, a file whose products
overflow, or a file that cannot be read, decoded or written.  The default output
directory is the ``QREPEAT_OUTDIR`` environment variable, falling back to
the current directory.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from pathlib import Path

import click

from .certify import certify_repeatable, classify_povm
from .config import current, settings
from .errors import QRepeatError
from .indexsets import IndexSet
from .instruments import (Instrument, build_binary_example,
                          build_example_family, make_instrument)
from .opalgebra import StateVector, StructuredOperator, _from_sums
from .simulate import run_trajectory
from .wold import outcome_decompositions

SCHEMA_VERSION = "1"
_FLOAT_MAX = sys.float_info.max


def _out_dir(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get("QREPEAT_OUTDIR", "."))


def _stem(path: str) -> str:
    stem = Path(path).stem
    return stem[:-11] if stem.endswith(".instrument") else stem


# -- JSON forms --------------------------------------------------------------


def _term_doc(t) -> dict:
    if t.length == 1:
        return {"kind": "dyad", "coeff": [t.coeff.real, t.coeff.imag],
                "out": t.out_offset, "in": t.in_offset}
    return {"kind": "family", "coeff": [t.coeff.real, t.coeff.imag],
            "outStride": t.out_stride, "outOffset": t.out_offset,
            "inStride": t.in_stride, "inOffset": t.in_offset}


def _index(doc: dict, field: str, where: str, k: int, minimum: int = 0) -> int:
    v = doc.get(field)
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ValueError(f"{where}[{k}]: {field} must be an integer >= {minimum}")
    return v


def _add_term(doc, where: str, k: int, fams: dict, dyds: dict) -> None:
    """Add term ``k`` of the operator at ``where`` to the coefficient sums
    ``_from_sums`` reads: a point's to ``dyds`` at ``(out, in)``, a family's to
    ``fams`` at ``(outStride, outOffset, inStride, inOffset)``, a ``jStart``
    folded into the offsets as ``Family`` folds it.  Its path is formatted
    only for an error."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}[{k}]: term must be an object")
    kind = doc.get("kind")
    raw = doc.get("coeff")
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ValueError(f"{where}[{k}]: coeff must be a [re, im] pair")
    re, im = raw
    if not (isinstance(re, (int, float)) and isinstance(im, (int, float))
            and type(re) is not bool and type(im) is not bool
            and abs(re) <= _FLOAT_MAX and abs(im) <= _FLOAT_MAX):
        raise ValueError(f"{where}[{k}]: coeff must be a [re, im] pair")
    coeff = complex(re, im)  # finite: both parts are at most the largest float
    if kind == "dyad":
        key = (_index(doc, "out", where, k), _index(doc, "in", where, k))
        dyds[key] = dyds.get(key, 0.0) + coeff
        return
    if kind == "family":
        os_, oo = _index(doc, "outStride", where, k, 1), _index(doc, "outOffset", where, k)
        is_, io = _index(doc, "inStride", where, k, 1), _index(doc, "inOffset", where, k)
        j = _index(doc, "jStart", where, k) if "jStart" in doc else 0
        key = (os_, oo + j * os_, is_, io + j * is_)
        fams[key] = fams.get(key, 0.0) + coeff
        return
    raise ValueError(f"{where}[{k}]: kind must be 'dyad' or 'family'")


def _operator_doc(op: StructuredOperator) -> list:
    return [_term_doc(t) for t in op.terms]


def _operator_from(doc, where: str) -> StructuredOperator:
    """The operator at ``where``, its terms summed as they are validated and
    canonicalized as ``StructuredOperator`` canonicalizes them; dense points
    stay a block (``opalgebra._from_sums``)."""
    if not isinstance(doc, list):
        raise ValueError(f"{where}: terms must be a list")
    fams: dict = {}
    dyds: dict = {}
    for k, t in enumerate(doc):
        _add_term(t, where, k, fams, dyds)
    return _from_sums(fams, dyds, current().tolerance)


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


_encode_str = json.encoder.encode_basestring_ascii


def _float_str(v: float) -> str:
    if v != v:
        return "NaN"
    if v == math.inf:
        return "Infinity"
    if v == -math.inf:
        return "-Infinity"
    return float.__repr__(v)


# scalars as json.dumps writes them, keyed by exact type
_SCALARS = {str: _encode_str, int: int.__repr__, float: _float_str,
            bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}


def _lines(value, head: str, pad: str, tail: str, out: list[str]) -> None:
    """Append the lines of ``value`` as ``json.dumps(indent=2, sort_keys=True)``
    lays them out, one string per line: the first opens with ``head``, the
    last ends with ``tail``, and the items sit two spaces past ``pad``.
    Mappings must have string keys, and scalars the exact types above."""
    inner = pad + "  "
    append = out.append
    if isinstance(value, dict):
        if not value:
            append(head + "{}" + tail)
            return
        append(head + "{")
        for k in sorted(value):
            v = value[k]
            lead = inner + _encode_str(k) + ": "
            form = _SCALARS.get(type(v))
            if form is not None:
                append(lead + form(v) + ",")
            else:
                _lines(v, lead, inner, ",", out)
        closing = "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            append(head + "[]" + tail)
            return
        append(head + "[")
        for v in value:
            form = _SCALARS.get(type(v))
            if form is not None:
                append(inner + form(v) + ",")
            else:
                _lines(v, inner, inner, ",", out)
        closing = "]"
    else:
        form = _SCALARS.get(type(value))
        if form is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        append(head + form(value) + tail)
        return
    out[-1] = out[-1][:-1]  # no comma after the last item
    append(pad + closing + tail)


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline, without
    the pure-Python encoder that ``indent`` selects."""
    out: list[str] = []
    _lines(doc, "", "", "", out)
    out.append("")
    return "\n".join(out)


def _write(doc: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_dumps(doc))
    return path


def _save(write, doc, path: Path) -> Path:
    """``write(doc, path)``; a path that cannot be written raises ValueError."""
    try:
        return write(doc, path)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}") from e


def _load_instrument(path: str, check_completeness: bool) -> Instrument:
    """The instrument in the file at ``path``; a file that cannot be read,
    decoded or validated raises ValueError with the path in its message."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ValueError(f"cannot read {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:  # an integer too long, nesting too deep
        raise ValueError(f"{path}: invalid JSON: {e}") from e
    try:
        return instrument_from_doc(doc, check_completeness=check_completeness)
    except (ValueError, QRepeatError) as e:
        raise ValueError(f"{path}: {e}") from e


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
    for label, parts, dec, reason in outcome_decompositions(inst):
        if reason is not None:
            outcomes.append({"label": label, "unsupported": reason})
            continue
        outcomes.append({
            "label": label,
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
    return {"schemaVersion": SCHEMA_VERSION, "outcomes": outcomes}


def _memory_doc(reading):
    if reading is None:
        return None
    return {"orbitId": reading.orbit_id, "depth": reading.depth,
            "distribution": [[d, p] for d, p in reading.distribution]}


# json.dumps(v, sort_keys=True) builds this encoder anew for every call
_encode_line = json.JSONEncoder(sort_keys=True).encode


def write_trajectory_log(record, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [_encode_line({"schemaVersion": SCHEMA_VERSION, "seed": record.seed,
                           "initialState": _state_doc(record.initial_state),
                           "steps": len(record.steps)})]
    for k, s in enumerate(record.steps):
        lines.append(_encode_line(
            {"step": k, "outcome": s.outcome, "probability": s.probability,
             "state": _state_doc(s.post_state), "memory": _memory_doc(s.memory)}))
    path.write_text("\n".join(lines) + "\n")
    return path


def _parse_initial(spec: str) -> StateVector:
    text = spec.strip()
    if "," not in text:
        try:
            index = int(text)
        except ValueError:
            pass
        else:  # a basis index, so a negative one is refused
            return StateVector.basis(index)
    try:
        amps = [complex(part.strip().replace("i", "j"))
                for part in text.split(",")]
    except ValueError:
        raise ValueError(f"initial state {spec!r} is neither a basis index "
                         "nor a comma-separated amplitude list")
    psi = StateVector({i: a for i, a in enumerate(amps)})
    tol = current().tolerance
    try:
        total = psi.norm_sq()
    except ValueError:  # a norm past the largest float
        raise ValueError(f"initial state {spec!r} has a norm too large to represent") from None
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


def _settings(command):
    """Give ``command`` the --tolerance and --period-cap options and run it
    under them.  This is the command line's one mapping to exit 2: an
    invalid value, any ValueError or QRepeatError the command raises (a
    file that cannot be read, decoded, validated or written among them),
    and a MemoryError or OverflowError from an index too large to hold,
    print one ``error:`` line and exit 2."""
    @click.option("--tolerance", type=float, default=None,
                  help="Comparison tolerance override.")
    @click.option("--period-cap", type=int, default=None,
                  help="Cap on index-set periods.")
    @functools.wraps(command)
    def run(tolerance, period_cap, **kwargs):
        try:
            click.get_current_context().with_resource(settings(tolerance, period_cap))
            return command(**kwargs)
        except (ValueError, QRepeatError) as e:
            message = str(e)
        except (MemoryError, OverflowError) as e:
            message = f"too large to hold: {str(e) or 'out of memory'}"
        click.echo(f"error: {message}", err=True)
        sys.exit(2)
    return run


def _file_command(kind: str, out_help: str | None = None):
    """Register ``body``, which maps the loaded instrument to a document, its
    console lines and the exit code, as a command on an instrument file.  The
    document goes to --out or ``<stem>.<kind>.json``, and the lines and
    ``<kind>: <target>`` are echoed."""
    def register(body):
        @main.command(name=body.__name__, help=body.__doc__)
        @click.argument("instrument", type=click.Path())
        @click.option("--out", type=click.Path(), default=None, help=out_help)
        @_settings
        def command(instrument, out):
            inst = _load_instrument(instrument, check_completeness=False)
            doc, lines, code = body(inst)
            target = Path(out) if out else _out_dir(None) / f"{_stem(instrument)}.{kind}.json"
            _save(_write, doc, target)
            for line in lines:
                click.echo(line)
            click.echo(f"{kind}: {target}")
            sys.exit(code)
        return command
    return register


@_file_command("report",
               "Report path (default: <stem>.report.json in the output dir).")
def certify(inst):
    """Certify perfect repeatability; exit 0 when repeatable, 1 when not."""
    rep = certify_repeatable(inst)
    doc = report_doc(rep)
    return doc, [doc["summary"]], 0 if rep.repeatable else 1


@_file_command("povm")
def povm(inst):
    """Write the instrument's POVM effects."""
    doc = povm_doc(inst.povm())
    return doc, [f"effect {effect['label']!r}: {len(effect['terms'])} terms"
                 for effect in doc["effects"]], 0


@_file_command("classification")
def classify(inst):
    """Split a diagonal POVM into projective and degenerate parts; exit 0 when
    it admits a repeatable instrument, 1 when not."""
    cls = classify_povm(inst.povm())
    admits = cls.admits_repeatable_form
    return (classification_doc(cls),
            [f"admits repeatable form: {'yes' if admits else 'no'}"], 0 if admits else 1)


@_file_command("wold")
def wold(inst):
    """Decompose each outcome into shift, unitary, and deposit blocks."""
    doc = wold_doc(inst)
    return doc, [f"outcome {entry['label']!r}: unsupported ({entry['unsupported']})"
                 if "unsupported" in entry else
                 f"outcome {entry['label']!r}: {len(entry['shiftOrbits'])} shift orbits, "
                 f"{len(entry['cycles'])} cycles"
                 for entry in doc["outcomes"]], 0


@main.command()
@click.argument("instrument", type=click.Path())
@click.option("--steps", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--initial", default="0", show_default=True,
              help="Basis index, or comma-separated amplitudes for indices 0..k.")
@click.option("--log", "log_path", type=click.Path(), default=None,
              help="Trajectory log path (default: <stem>.trajectory.jsonl).")
@_settings
def simulate(instrument, steps, seed, initial, log_path):
    """Run a seeded measurement trajectory and log it step by step."""
    inst = _load_instrument(instrument, check_completeness=True)
    psi = _parse_initial(initial)
    record = run_trajectory(inst, psi, steps, seed)
    target = Path(log_path) if log_path else \
        _out_dir(None) / (_stem(instrument) + ".trajectory.jsonl")
    _save(write_trajectory_log, record, target)
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
@_settings
def demo(name, n, p, p1, p2, seed, steps, outdir):
    """Write a full bundle: instrument, reports, decomposition, trajectory."""
    if name == "ex1":
        probs = tuple(float(x) for x in p.split(","))
        inst = build_example_family(n, probs)
    else:
        inst = build_binary_example(p1, p2)
    record = run_trajectory(inst, StateVector.basis(0), steps, seed)
    base = _out_dir(outdir)
    written = [_save(_write, instrument_doc(inst), base / f"{name}.instrument.json")]
    rep = certify_repeatable(inst)
    written.append(_save(_write, report_doc(rep), base / f"{name}.report.json"))
    pv = inst.povm()
    written.append(_save(_write, povm_doc(pv), base / f"{name}.povm.json"))
    try:
        cls_doc = classification_doc(classify_povm(pv))
    except QRepeatError as e:
        cls_doc = {"schemaVersion": SCHEMA_VERSION, "unsupported": str(e)}
    written.append(_save(_write, cls_doc, base / f"{name}.classification.json"))
    written.append(_save(_write, wold_doc(inst), base / f"{name}.wold.json"))
    written.append(_save(write_trajectory_log, record, base / f"{name}.trajectory.jsonl"))
    click.echo(report_doc(rep)["summary"])
    for path in written:
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
