"""The traced bench run (`bench/tracing.py`) patches `adnil` functions by
module and attribute name; a name that no longer resolves breaks only
that run, so every one is checked here without running the bench."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_wrapped_attribute_is_callable() -> None:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing._WRAPPED
    for module, attribute, _, _ in tracing._WRAPPED:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), (module, attribute)
