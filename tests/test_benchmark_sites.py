"""The benchmark's traced names must exist in the engine.

`perfbench/tracer.py` wraps engine functions by module and attribute name, so
deleting or renaming one of them breaks the benchmark without failing any
engine test. This test loads the tracer from its file, as the benchmark does,
and resolves every site.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SITES = _load_tracer().SITES


@pytest.mark.parametrize("module_name,attr", [site[:2] for site in SITES],
                         ids=[f"{site[0]}.{site[1]}" for site in SITES])
def test_traced_site_resolves_to_a_callable(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
