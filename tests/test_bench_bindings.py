"""The program names the benchmark binds still resolve, so that a rename
fails the test suite and not only the benchmark smoke run."""

import importlib
from pathlib import Path

from zollfins import moduli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    importlib.import_module("ops")          # imports every name ops.py binds
    tracing = importlib.import_module("tracing")
    solve = moduli.CurveEval.__dict__["solve_ray"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert moduli.CurveEval.__dict__["solve_ray"] is solve
    for cache in tracing._caches().values():
        cache.cache_info()
