"""Every function the benchmark's tracer wraps still exists.

`bench/tracer.py` wraps hardysim functions by module and attribute path and
reports a missing one only as a `bench-absent` line of a traced run. This
test finds a deleted or renamed wrapped name without running the benchmark.
"""

import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("site", tracer.SITES,
                         ids=lambda site: f"{site[2]}.{site[3]}")
def test_wrapped_name_resolves(site):
    _, _, module, path = site[:4]
    assert tracer._resolve(module, path) is not None
