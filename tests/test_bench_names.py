"""The benchmark reaches qperiod by name: every name it looks up must resolve.

``bench/tracing.py`` wraps each ``(module, name)`` in ``WRAPPED`` through
``getattr``, and ``bench/workloads.py`` calls a handful of public functions
directly, so deleting or renaming one of them breaks the benchmark only
when it runs.  These tests catch that in the tier-1 suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import qperiod

BENCH = Path(__file__).resolve().parent.parent / "bench"

WORKLOAD_NAMES = [
    ("periodfind", "PeriodicFunction"),
    ("periodfind", "eqpa"),
    ("mpqc", "lcm_protocol"),
    ("mpqc", "gcd_protocol"),
    ("mpqc", "psu_protocol"),
    ("mpqc", "psi_protocol"),
    ("mpqc", "leakage_audit"),
    ("factorint", "factorize"),
]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def test_every_traced_name_resolves(tracing):
    assert tracing.WRAPPED
    missing = [
        (module, name) for module, name in tracing.WRAPPED
        if not callable(getattr(getattr(qperiod, module), name, None))
    ]
    assert missing == []


@pytest.mark.parametrize("module,name", WORKLOAD_NAMES)
def test_workload_name_resolves(module, name):
    assert callable(getattr(getattr(qperiod, module), name, None))
