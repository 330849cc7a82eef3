"""The traced benchmark wraps package functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("modname,attr", [t[:2] for t in _targets()])
def test_traced_target_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))
