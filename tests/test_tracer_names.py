"""The traced benchmark run patches library names; each must still resolve."""

import importlib.util
from pathlib import Path

import riccati_capacity
import riccati_capacity.cli  # noqa: F401  (attribute riccati_capacity.cli)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_the_package():
    missing = [f"{module}.{attr}" for module, attr, _, _ in load_tracing().WRAPS
               if not hasattr(getattr(riccati_capacity, module, None), attr)]
    assert missing == []
