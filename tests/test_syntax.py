"""The package supports Python 3.10 (`requires-python`), but the tests
may run on a newer interpreter; parse every source file with the 3.10
grammar so that newer syntax (`except*`, PEP 695 generics) is caught."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for top in ("src/adnil", "tests", "bench") for path in (ROOT / top).rglob("*.py")
)


def test_sources_found() -> None:
    names = {path.relative_to(ROOT).as_posix() for path in SOURCES}
    assert {"src/adnil/cli.py", "tests/test_syntax.py", "bench/run.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path: Path) -> None:
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_newer_syntax_is_rejected() -> None:
    newer = [
        "try:\n    pass\nexcept* ValueError:\n    pass\n",  # 3.11
        "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",  # 3.12
    ]
    for text in newer:
        with pytest.raises(SyntaxError):
            ast.parse(text, feature_version=(3, 10))
