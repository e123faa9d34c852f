from __future__ import annotations

from collections import Counter

import pytest

from adnil import checks


def test_each_suite_enumerates_a_type_once(monkeypatch: pytest.MonkeyPatch) -> None:
    calls: dict[str, Counter] = {}
    enumerate_serially = checks.class_distribution

    def counted(rs, *args, **kwargs):
        calls[name][str(rs.lie_type)] += 1
        return enumerate_serially(rs, *args, **kwargs)

    monkeypatch.setattr(checks, "class_distribution", counted)
    for name in ("formulas", "gf", "paths", "abelian"):
        calls[name] = Counter()
        assert all(r.passed for r in checks.run_suite(name)), name
        assert set(calls[name].values()) == {1}, name
    assert set().union(*calls.values()) == set(checks.SMALL_TYPES)
