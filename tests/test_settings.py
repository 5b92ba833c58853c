"""Scoped settings: tolerance and period cap hold for one block, one thread."""

import inspect
import math
import sys
import threading
import types

import pytest

import qrepeat
import qrepeat.instruments as ins
import qrepeat.opalgebra as oa
from helpers import near_complete_instrument
from qrepeat import (Dyad, Settings, StructuredOperator, build_example_family,
                     certify_repeatable, settings)
from qrepeat.config import current


def test_threads_in_lockstep_each_get_their_own_verdict():
    inst = near_complete_instrument()
    barrier = threading.Barrier(2, timeout=30)
    verdicts, errors = {}, []

    def certify_under(tolerance):
        try:
            with settings(tolerance=tolerance):
                barrier.wait()  # both blocks are open before either certifies
                verdicts[tolerance] = certify_repeatable(inst).repeatable
                barrier.wait()  # and stay open until both are done
        except Exception as e:  # reraised in the main thread below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=certify_under, args=(t,)) for t in (1e-6, 1e-12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert verdicts == {1e-6: True, 1e-12: False}


def test_threads_under_two_tolerances_each_read_the_povm_of_their_own():
    # the effect entry 1e-8 of outcome 2 is kept at 1e-12 and dropped at 1e-6,
    # so a POVM kept under one tolerance and read under the other shows
    inst = build_example_family(2, (1 - 1e-8, 1e-8))
    expected = {}
    for tolerance in (1e-6, 1e-12):
        with settings(tolerance=tolerance):
            expected[tolerance] = ins.povm(inst).entries
    assert expected[1e-6] != expected[1e-12]
    wrong, errors = [], []

    def read_under(tolerance):
        try:
            with settings(tolerance=tolerance):
                for _ in range(200):
                    pv = inst.povm()
                    if pv.entries != expected[tolerance] or pv.identity_deviation()[0] > tolerance:
                        wrong.append(tolerance)
        except Exception as e:  # reraised in the main thread below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read_under, args=(t,))
                   for t in (1e-6, 1e-12, 1e-6, 1e-12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert wrong == []


def test_a_new_thread_starts_from_the_defaults():
    seen = []
    with settings(tolerance=1e-3, period_cap=50):
        t = threading.Thread(target=lambda: seen.append(current()))
        t.start()
        t.join(timeout=30)
    assert not t.is_alive()
    assert seen == [Settings()]


def test_compose_filters_at_the_scoped_tolerance():
    small = StructuredOperator([Dyad(1e-7, 0, 0)])
    identity = StructuredOperator.identity()
    assert oa.compose(small, identity).terms == small.terms
    with settings(tolerance=1e-3):
        assert oa.compose(small, identity).terms == ()


def test_settings_are_restored_after_a_raise_and_after_nested_blocks():
    default = current()
    with pytest.raises(RuntimeError):
        with settings(tolerance=1e-3):
            raise RuntimeError
    assert current() == default
    with settings(tolerance=1e-3) as outer:
        assert outer == Settings(1e-3, 10**6)
        with settings(period_cap=50) as inner:
            assert inner == Settings(1e-3, 50)
            assert current() is inner
        assert current() is outer
    assert current() == default == Settings(1e-12, 10**6)


@pytest.mark.parametrize("fields", [{"tolerance": 0}, {"tolerance": -1e-3},
                                    {"tolerance": math.nan}, {"tolerance": math.inf},
                                    {"period_cap": 0}, {"period_cap": -5}])
def test_settings_reject_non_positive_values(fields):
    with pytest.raises(ValueError, match="must be positive"):
        Settings(**fields)
    with pytest.raises(ValueError, match="must be positive"):
        with settings(**fields):
            pass
    assert current() == Settings()


def test_no_public_callable_takes_a_tolerance():
    # the scoped settings are the only way to set the tolerance
    offenders = []
    for name in qrepeat.__all__:
        obj = getattr(qrepeat, name)
        if name in ("settings", "Settings") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no introspectable signature
            continue
        offenders += [f"{name}({p})" for p in params if p in ("tol", "tolerance")]
    assert offenders == []


def test_all_lists_every_public_name_the_package_imports():
    imported = [name for name, obj in vars(qrepeat).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType)]
    assert sorted(qrepeat.__all__) == sorted(imported)
