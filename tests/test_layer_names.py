"""The per-layer trace of `bench/layers.py` wraps engine callables by their
dotted names from outside the engine, so a rename silently drops a callable
from the trace and its metric reads 0.  Every name it lists must resolve:
the timed, counted, hot and preimage callables and the private extras."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"

# deleted from the engine while the trace still names them; the trace
# moving inside the engine (ROADMAP item 4) retires them
STALE = {"linalg.solve_matrix_equation", "algebras.sparse_add_into",
         "linalg.Matrix.col", "linalg.Echelon.solve"}


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    layers = _layers()
    extra = [f"{module}.{name}" for module, names in layers.EXTRA.items() for name in names]
    tables = [*layers.TIMED.values(), *layers.COUNTED.values(), layers.HOT, layers.PREIMAGES,
              extra]
    return sorted({name for table in tables for name in table})


def _resolve(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"wmha.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("name", _traced_names())
def test_traced_engine_names_resolve(name):
    if name in STALE:
        with pytest.raises(AttributeError):
            _resolve(name)
    else:
        assert callable(_resolve(name))
