"""The benchmark tracer's wrap targets exist in the package.

``perfbench/tracer.py`` times each layer by wrapping the class attributes
listed in its ``TARGETS`` table.  A class or method renamed in ``src/``
would otherwise only fail when a traced benchmark run installs the
wrappers; here it fails the test suite.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [target[:3] for target in module.TARGETS]


TARGETS = _load_targets()


def test_targets_listed():
    assert len(TARGETS) == len(set(TARGETS))
    assert ("repro.grid.stamping", "StampedSystem", "drain_current_vector") in TARGETS


@pytest.mark.parametrize(
    "module, class_name, attribute",
    TARGETS,
    ids=[f"{class_name}.{attribute}" for _, class_name, attribute in TARGETS],
)
def test_target_resolves(module, class_name, attribute):
    """The tracer reads ``cls.__dict__[attribute]``: it must be defined on
    the class itself, not inherited."""
    cls = getattr(importlib.import_module(module), class_name)
    assert attribute in vars(cls)
