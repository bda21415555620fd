"""The benchmark tracer wraps package functions by name; every name it lists
must still resolve, so a rename fails here and not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_tracer().TRACED
    assert traced
    for module_name, attr, _, _ in traced:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)
