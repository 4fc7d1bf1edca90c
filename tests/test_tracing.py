"""The benchmark's tracer (``perfbench/spans.py``) wraps package functions at
the module attributes through which callers look them up.  A rename or a
moved import would otherwise only break traced benchmark runs."""

import importlib
import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def test_benchmark_tracer_wraps_every_traced_function():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (module, func), (_, holders) in spans.TRACED.items():
            for holder in holders:
                bound = getattr(importlib.import_module(holder), func)
                assert bound.__wrapped__.__module__ == f"almterm.{module}", (holder, func)
    finally:
        tracer.uninstall()
    for (module, func), (_, holders) in spans.TRACED.items():
        original = getattr(importlib.import_module(f"almterm.{module}"), func)
        assert not hasattr(original, "__wrapped__")
        for holder in holders:
            assert getattr(importlib.import_module(holder), func) is original
