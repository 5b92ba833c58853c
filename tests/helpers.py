"""Shared test utilities: an independent dense renderer and strategies.

The renderer enumerates term entries directly and is deliberately kept
separate from the library's own windowing code, so the two implementations
cross-check each other.
"""

import math

import numpy as np
from hypothesis import strategies as st

from qrepeat import Dyad, Family, IndexSet, StateVector, StructuredOperator


def dense(op, dim):
    m = np.zeros((dim, dim), dtype=complex)
    for t in op.terms:
        j = 0
        while ((t.length is None or j < t.length)
               and t.out_stride * j + t.out_offset < dim
               and t.in_stride * j + t.in_offset < dim):
            m[t.out_stride * j + t.out_offset,
              t.in_stride * j + t.in_offset] += t.coeff
            j += 1
    return m


def dense_vec(psi, dim):
    v = np.zeros(dim, dtype=complex)
    for i, amp in psi.items():
        if i < dim:
            v[i] = amp
    return v


def realize(s, limit):
    """Membership set below ``limit``, via member() alone."""
    return {i for i in range(limit) if s.member(i)}


def agreement_window(*sets):
    """Index below which two eventually periodic sets must be compared to
    conclude anything: past every bound the union is periodic with the lcm."""
    bound = max(s.bound for s in sets)
    period = math.lcm(*(s.period for s in sets))
    return bound + 2 * period


@st.composite
def index_sets(draw):
    period = draw(st.integers(min_value=1, max_value=6))
    residues = draw(st.frozensets(st.integers(0, period - 1), max_size=period))
    bound = draw(st.integers(min_value=0, max_value=12))
    transient = draw(st.frozensets(st.integers(0, bound - 1), max_size=8)) if bound else frozenset()
    return IndexSet(transient, bound, period, residues)


_coeffs = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def operators(draw, max_index=6, max_terms=4):
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        c = draw(_coeffs)
        if abs(c) < 1e-9:
            continue
        if draw(st.booleans()):
            terms.append(Dyad(c, draw(st.integers(0, max_index)),
                              draw(st.integers(0, max_index))))
        else:
            terms.append(Family(c,
                                draw(st.integers(1, 3)), draw(st.integers(0, max_index)),
                                draw(st.integers(1, 3)), draw(st.integers(0, max_index))))
    return StructuredOperator(tuple(terms))


@st.composite
def dense_blocks(draw, max_dim=6):
    """A d x d block of points, d <= max_dim, with an optional identity tail
    ``Family(1, 1, d, 1, d)`` and an optional point on its boundary (its head
    or the step before it)."""
    d = draw(st.integers(1, max_dim))
    terms = [Dyad(draw(_coeffs), i, j) for i in range(d) for j in range(d)]
    if draw(st.booleans()):
        terms.append(Family(1.0, 1, d, 1, d))
        if draw(st.booleans()):
            k = draw(st.sampled_from([d - 1, d]))
            terms.append(Dyad(draw(st.sampled_from([1.0, -1.0]) | _coeffs), k, k))
    return StructuredOperator(tuple(terms))


@st.composite
def states(draw, max_index=12):
    amps = draw(st.dictionaries(st.integers(0, max_index), _coeffs,
                                min_size=1, max_size=6))
    amps = {i: a for i, a in amps.items() if abs(a) > 1e-9}
    if not amps:
        amps = {0: 1.0}
    return StateVector(amps)
