"""Span tracer that wraps the library's public functions from outside ``src/``.

Each traced layer boundary is a span with a name, a start, an end and its
parent (the span open when it began).  A span's self time is its duration
minus the time its direct children cover, so the self times of all spans
under one root add up to the root's duration exactly.  Spans are folded
into per-name totals as they close; nothing is written until the run ends.

The library imports some functions by name (``cli`` imports
``certify_repeatable``, ``simulate`` imports ``memory_map`` and so on), so
patching only the defining module would miss those call sites.
:meth:`Tracer.install` therefore rebinds every module global and class
attribute inside the ``qrepeat`` package that is the original function
object, and :meth:`Tracer.uninstall` puts each one back.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    self_ns: int = 0
    failed: int = 0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Collects per-name call counts, self times, failures and counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []  # [name, start_ns, child_ns]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0])

    def end(self, failed: bool = False, **counts: int) -> int:
        """Close the innermost span; returns its duration in ns."""
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.self_ns += dur - child
        st.failed += failed
        for key, n in counts.items():
            st.counts[key] = st.counts.get(key, 0) + n
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def wrap(self, name: str, fn, count=None, prepare=None):
        """Traced stand-in for ``fn``.

        ``prepare(args, kwargs)`` may return replacement arguments and a
        counter dict measured on the way in (used to materialize a terms
        iterable before counting it); ``count(args, kwargs, result)``
        returns counters measured on the way out.
        """
        tracer = self

        def traced(*args, **kwargs):
            pre = None
            if prepare is not None:
                args, kwargs, pre = prepare(args, kwargs)
            tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.end(failed=True)
                raise
            counts = dict(pre) if pre else {}
            if count is not None:
                counts.update(count(args, kwargs, out))
            tracer.end(**counts)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- binding -------------------------------------------------------

    def install(self, targets) -> None:
        """Rebind each ``(name, original, count, prepare)`` target everywhere.

        Every module of the ``qrepeat`` package and every class defined in
        one is searched for attributes that are the original object.
        """
        owners = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qrepeat" or modname.startswith("qrepeat.")):
                continue
            owners.append(mod)
            owners.extend(v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__ == modname)
        for name, original, count, prepare in targets:
            wrapped = self.wrap(name, original, count, prepare)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _terms_prepare(args, kwargs):
    # StructuredOperator(terms) may receive a one-shot iterable: make it a
    # tuple so it can be counted and still be consumed by the constructor.
    if len(args) > 1:
        terms = tuple(args[1])
        return (args[0], terms) + tuple(args[2:]), kwargs, {"terms_in": len(terms)}
    if "terms" in kwargs:
        kwargs = dict(kwargs, terms=tuple(kwargs["terms"]))
        return args, kwargs, {"terms_in": len(kwargs["terms"])}
    return args, kwargs, {"terms_in": 0}


def _compose_count(args, kwargs, out):
    a, b = args[0], args[1]
    return {"pairs": len(a.terms) * len(b.terms), "terms_out": len(out.terms)}


def _deviation_count(args, kwargs, out):
    return {"terms_in": len(args[0].terms) + len(args[1].terms)}


def _norm_count(args, kwargs, out):
    return {"estimates": int(out[1] != "exact")}


def library_targets(q) -> list[tuple]:
    """The traced layer boundaries, as ``(span name, function, count, prepare)``.

    ``q`` maps a module's short name to the imported ``qrepeat`` module.
    """
    oa, ix, ins, cer = q["opalgebra"], q["indexsets"], q["instruments"], q["certify"]
    wd, sim, cli = q["wold"], q["simulate"], q["cli"]
    t = [
        ("opalgebra.max_deviation", oa.max_deviation, _deviation_count, None),
        ("opalgebra.equals", oa.equals, None, None),
        ("opalgebra.compose", oa.compose, _compose_count, None),
        ("opalgebra.StructuredOperator", oa.StructuredOperator.__init__, None, _terms_prepare),
        ("opalgebra.adjoint", oa.adjoint, None, None),
        ("opalgebra.is_monomial", oa.is_monomial, None, None),
        ("opalgebra.operator_norm", oa.operator_norm, _norm_count, None),
        ("opalgebra.apply", oa.apply, None, None),
        ("opalgebra.StateVector", oa.StateVector.__init__, None, None),
        ("instruments.make_instrument", ins.make_instrument, None, None),
        ("instruments.povm", ins.povm, None, None),
        ("simulate.born_probabilities", sim.born_probabilities, None, None),
        ("simulate.empirical_conditionals", sim.empirical_conditionals, None, None),
        ("simulate.run_trajectory", sim.run_trajectory, None, None),
        ("indexsets.IndexSet", ix.IndexSet.__init__, None, None),
        ("wold.wold_decompose", wd.wold_decompose, None, None),
        ("wold.split", wd.split, None, None),
        ("wold.memory_map", wd.memory_map, None, None),
        ("wold.read_memory", wd.read_memory, None, None),
        ("certify.certify_repeatable", cer.certify_repeatable, None, None),
        ("certify.classify_povm", cer.classify_povm, None, None),
        ("certify.check_orthogonal", cer.check_orthogonal, None, None),
        ("cli.parse", cli.instrument_from_doc, None, None),
    ]
    for fn in (ins.build_example_family, ins.build_nonrepeatable_sibling,
               ins.build_binary_example, ins.build_orthogonal, ins.build_from_parts):
        t.append(("instruments.build", fn, None, None))
    for meth in ("union", "intersect", "difference", "complement",
                 "is_subset", "is_disjoint"):
        t.append(("indexsets.combine", getattr(ix.IndexSet, meth), None, None))
    for fn in (cli.instrument_doc, cli.report_doc, cli.povm_doc,
               cli.classification_doc, cli.wold_doc, cli.write_trajectory_log):
        t.append(("cli.emit", fn, None, None))
    return t
