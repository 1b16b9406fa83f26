"""The names the benchmark imports from boxal, and the functions it traces, still exist.

The benchmark lives in ``bench/`` and runs outside the test suite, so a renamed
export or traced function would otherwise only show up when it runs.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("repetition", "checks", "tracing", "workloads")


def test_bench_imports_and_traces_boxal(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    try:
        import repetition  # imports checks, tracing and workloads

        tracer = repetition.tracing.Tracer()
        try:
            tracer.install()
        finally:
            tracer.uninstall()
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
    # certainty no longer groups; every other traced function must be found
    assert tracer.absent == ["certainty.group_passes"]
