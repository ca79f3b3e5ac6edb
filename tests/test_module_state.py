"""No sinhpierce module keeps mutable state in its globals: a cache or table
belongs to the object whose data it holds, so two runs in one process cannot
see each other's entries. A constant table is a read-only mapping. ALLOWED
names any exception; there is none."""

import collections.abc as abc
import importlib
import pkgutil

import numpy as np

import sinhpierce

ALLOWED = set()


def _mutable(value):
    if isinstance(value, np.ndarray):
        return value.flags.writeable
    return isinstance(value, (abc.MutableMapping, abc.MutableSequence, abc.MutableSet,
                              bytearray))


def test_no_module_keeps_mutable_globals():
    names = ["sinhpierce"] + [f"sinhpierce.{m.name}"
                              for m in pkgutil.iter_modules(sinhpierce.__path__)]
    found = []
    for name in names:
        module = importlib.import_module(name)
        found += [(name, attr) for attr, value in vars(module).items()
                  if not attr.startswith("__") and _mutable(value)]
    assert len(names) > 10
    assert [f for f in found if f not in ALLOWED] == []
