"""The benchmark in perfbench/ wraps package functions by name from outside.

A rename or a deletion in the package would break it silently, so the names
it wraps are checked here, read from its own file without editing it.
"""

import importlib
import importlib.util
import os

from lgi_weaksim import experiment

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def test_benchmark_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module_name, attr, _ in tracer.WRAPPED:
        module = importlib.import_module(f"lgi_weaksim.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    # every benchmark pass reads the gate-map cache counters
    info = experiment._gate_map.cache_info()
    assert info.hits >= 0 and info.misses >= 0
