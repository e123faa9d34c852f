from __future__ import annotations

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import adnil

SRC = str(Path(adnil.__file__).resolve().parents[1])


def _loaded_after(code: str) -> list[str]:
    """The adnil modules loaded in a fresh interpreter after `code`."""
    probe = code + "\nimport sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'adnil'))\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_each_submodule_on_first_use() -> None:
    assert _loaded_after("import adnil") == ["adnil"]
    assert _loaded_after("import adnil.rootsys") == ["adnil", "adnil.rootsys"]
    # nilpotence and the two modules it imports, nothing else
    assert _loaded_after("from adnil import class_distribution") == [
        "adnil", "adnil.ideals", "adnil.nilpotence", "adnil.rootsys",
    ]
    assert _loaded_after("import adnil; adnil.__version__") == ["adnil"]


def test_every_export_is_its_home_modules_object() -> None:
    # no name is exported from two submodules
    assert sum(map(len, adnil._EXPORTS.values())) == len(adnil.__all__)
    for name in adnil.__all__:
        home = import_module(f"adnil.{adnil._HOME[name]}")
        assert getattr(adnil, name) is getattr(home, name), name
    assert set(adnil.__all__) <= set(dir(adnil))
    assert adnil.__version__ == "0.1.0"


def test_submodules_are_attributes() -> None:
    for module in adnil._EXPORTS:
        assert getattr(adnil, module) is import_module(f"adnil.{module}")
    assert "cli" in dir(adnil) and "poly" in dir(adnil)


def test_unknown_name_raises_attribute_error() -> None:
    with pytest.raises(AttributeError, match="no_such_name"):
        adnil.no_such_name
    assert not hasattr(adnil, "no_such_name")
    with pytest.raises(ImportError):
        from adnil import no_such_name  # noqa: F401
