from __future__ import annotations

from collections import Counter

import pytest

from adnil import checks, genfun


def test_each_suite_enumerates_a_type_once(monkeypatch: pytest.MonkeyPatch) -> None:
    # a class histogram and a joint (dimension, class) histogram are each
    # one walk over every ideal of the type
    calls: dict[str, Counter] = {}

    def counting(enumerate_):
        def counted(rs, *args, **kwargs):
            calls[name][str(rs.lie_type)] += 1
            return enumerate_(rs, *args, **kwargs)

        return counted

    for attribute in ("class_distribution", "joint_histogram"):
        monkeypatch.setattr(checks, attribute, counting(getattr(checks, attribute)))
    for name in ("formulas", "gf", "paths", "abelian"):
        calls[name] = Counter()
        assert all(r.passed for r in checks.run_suite(name)), name
        assert set(calls[name].values()) == {1}, name
    assert len(calls["formulas"]) == 11  # A1-A6 and C2-C6; C1 is A1
    assert set().union(*calls.values()) == set(checks.SMALL_TYPES)


def test_series_row_fails_on_one_broken_product_identity(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # U_26 appears in U_13^2 - U_12^2 = U_26 (k = 12) and in no counting
    # series or continued fraction the suite expands
    exact = genfun.u_tilde

    def broken(k: int):
        u = exact(k)
        return (u[0] + 1, *u[1:]) if k == 26 else u

    monkeypatch.setattr(genfun, "u_tilde", broken)
    assert all(genfun.verify_cf_identity(h, 20) for h in range(11))
    rows = {r.name: r.passed for r in checks.suite_series()}
    assert rows == {"series residue and integrality": True, "continued fraction identity": False}
