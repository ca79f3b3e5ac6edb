"""The benchmark tracer (perfbench/tracer.py) wraps package functions by
module and attribute name; every one of them must still exist."""

import os
import sys

import sinhpierce.cli  # noqa: F401  (loads every module the tracer wraps)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    missing = []
    for module, attr, _ in tracer.SPANS + tracer.COUNTED:
        owner = sys.modules.get(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert tracer.SPANS and missing == []
