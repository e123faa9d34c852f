from __future__ import annotations

import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adnil.checks import MAX_IDEALS, CheckResult
from adnil.cli import format_distribution, main, parse_distribution
from adnil.nilpotence import BUDGET_BLOCK, ROUTES, classify_ideal
from adnil.rootsys import build_root_system, total_count_formula

G2_TABLE = "K,count\n0,1\n1,3\n2,2\n3,1\n4,0\n5,1\ntotal,8\n"


def run_cli(capsys: pytest.CaptureFixture, argv: list[str]) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


def test_table_g2_golden(capsys: pytest.CaptureFixture) -> None:
    code, out = run_cli(capsys, ["table", "--type", "G2"])
    assert code == 0
    assert out == G2_TABLE


@pytest.mark.parametrize("method", ["oracle", "zigzag"])
def test_enumerate_across_blocks(capsys: pytest.CaptureFixture, method: str) -> None:
    # A8 has 4862 ideals, two blocks: every row keeps its own mask's class
    code, out = run_cli(capsys, ["enumerate", "--type", "A8", "--method", method])
    assert code == 0
    header, *lines = out.splitlines()
    assert header == "mask,dimension,class"
    rows = [tuple(map(int, line.split(","))) for line in lines]
    assert BUDGET_BLOCK < len(rows) == 4862 < 2 * BUDGET_BLOCK
    masks = [mask for mask, _, _ in rows]
    assert masks == sorted(set(masks))
    rs = build_root_system("A8")
    for mask, dimension, k in rows:
        assert (dimension, k) == (mask.bit_count(), classify_ideal(rs, mask, method)), mask


def test_table_bare_family_with_rank(capsys: pytest.CaptureFixture) -> None:
    code, out = run_cli(capsys, ["table", "--type", "A", "--rank", "1"])
    assert code == 0
    assert out == "K,count\n0,1\n1,1\ntotal,2\n"


def test_table_zero_rows_are_kept(capsys: pytest.CaptureFixture) -> None:
    _, out = run_cli(capsys, ["table", "--type", "G2"])
    assert "4,0" in out.splitlines()


def test_table_json_round_trip(capsys: pytest.CaptureFixture) -> None:
    code, out = run_cli(capsys, ["table", "--type", "B2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "B2"
    assert doc["counts"] == {"0": "1", "1": "3", "2": "1", "3": "1"}
    assert doc["total"] == "6"
    assert parse_distribution(out, "json") == {0: 1, 1: 3, 2: 1, 3: 1}


FORMATS = st.sampled_from(["csv", "json"])
# mostly the characters a table is made of, so that near-misses are common
TABLE_TEXT = st.text(st.sampled_from("0123456789-+., \t\r\n\"Kcountal")) | st.text()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TABLE_TEXT,
    lambda children: (
        st.lists(children, max_size=3) | st.dictionaries(TABLE_TEXT, children, max_size=3)
    ),
    max_leaves=8,
)


@given(st.dictionaries(st.integers(), st.integers(min_value=0, max_value=10**60)), FORMATS)
@example({0: 1, 1: 255, 2: 2200, 3: 0, 4: 10**30}, "csv")
@example({0: 1, 1: 255, 2: 2200, 3: 0, 4: 10**30}, "json")
def test_format_parse_round_trip(dist: dict[int, int], fmt: str) -> None:
    assert parse_distribution(format_distribution(dist, fmt, "X"), fmt) == dist


@given(
    st.one_of(
        TABLE_TEXT,
        TABLE_TEXT.map(lambda rows: "K,count\n" + rows),
        JSON_VALUES.map(json.dumps),
        st.fixed_dictionaries({
            "counts": st.dictionaries(st.integers().map(str), JSON_VALUES, max_size=4),
            "total": JSON_VALUES,
        }).map(json.dumps),
    ),
    FORMATS,
)
@example("K,count\n\r0", "csv")
@example('{"counts": {"0": Infinity}, "total": 1}', "json")
@example("[" * 5000, "json")
def test_parse_distribution_fuzz(text: str, fmt: str) -> None:
    # any text parses to a distribution or is refused with ValueError
    try:
        dist = parse_distribution(text, fmt)
    except ValueError:
        return
    assert isinstance(dist, dict)


def test_parse_distribution_rejects_corrupt_input() -> None:
    with pytest.raises(ValueError):
        parse_distribution("a,b\n0,1\ntotal,1\n", "csv")
    with pytest.raises(ValueError):
        parse_distribution("K,count\n0,1\n", "csv")
    with pytest.raises(ValueError):
        parse_distribution("K,count\n0,1\ntotal,5\n", "csv")
    with pytest.raises(ValueError):
        parse_distribution('{"counts": {"0": "1"}, "total": "9"}', "json")
    # malformed shapes: short, long and repeated rows, a missing key, a
    # document of the wrong type
    for text in ("K,count\n1\ntotal,1\n", "K,count\n0,1,2\ntotal,1\n",
                 "K,count\n1,2\n1,3\ntotal,3\n"):
        with pytest.raises(ValueError):
            parse_distribution(text, "csv")
    with pytest.raises(ValueError):
        parse_distribution('{"counts": {"0": "1"}}', "json")
    with pytest.raises(ValueError):
        parse_distribution("[1]", "json")
    # counts and totals are decimal strings, and nothing follows the total
    for text in ('{"counts": {"0": 1.9, "1": true}, "total": 2}',
                 '{"counts": {"0": "1"}, "total": 1}',
                 '{"counts": {"0": " 1"}, "total": "1"}'):
        with pytest.raises(ValueError):
            parse_distribution(text, "json")
    for text in ("K,count\n1,2\ntotal,2\ngarbage after total\n",
                 "K,count\n1,2\ntotal,2\n1,0\n", "K,count\n1,1_0\ntotal,10\n"):
        with pytest.raises(ValueError):
            parse_distribution(text, "csv")
    # no enumeration gives a negative count, even when the total adds up
    with pytest.raises(ValueError, match="nonnegative"):
        parse_distribution("K,count\n0,-1\n1,2\ntotal,1\n", "csv")
    with pytest.raises(ValueError, match="nonnegative"):
        parse_distribution('{"counts": {"0": "-1", "1": "2"}, "total": "1"}', "json")
    with pytest.raises(ValueError):
        parse_distribution("K,count\ntotal,-1\n", "csv")


def test_methods_agree_through_cli(capsys: pytest.CaptureFixture) -> None:
    _, oracle = run_cli(capsys, ["table", "--type", "C3", "--method", "oracle"])
    _, ray = run_cli(capsys, ["table", "--type", "C3", "--method", "ray"])
    _, completion = run_cli(capsys, ["table", "--type", "C3", "--method", "completion"])
    assert oracle == ray == completion


def test_workers_flag_is_deterministic(capsys: pytest.CaptureFixture) -> None:
    # B8: 12870 ideals, 3 full blocks, so a real pool of 2
    _, serial = run_cli(capsys, ["table", "--type", "B8", "--workers", "1"])
    _, pooled = run_cli(capsys, ["table", "--type", "B8", "--workers", "2"])
    assert serial == pooled


def test_table_progress_counts_ideals(capsys: pytest.CaptureFixture) -> None:
    # E8 (120 roots) reports progress on stderr: one update per block
    assert main(["table", "--type", "E8", "--workers", "1"]) == 0
    out, err = capsys.readouterr()
    assert out.endswith("total,25080\n")
    assert err.startswith("\rideals 4096/25080") and err.endswith("\rideals 25080/25080\n")
    assert err.count("\r") == 7


def test_output_file(tmp_path, capsys: pytest.CaptureFixture) -> None:
    target = tmp_path / "g2.csv"
    code, out = run_cli(capsys, ["table", "--type", "G2", "--output", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == G2_TABLE


def test_unwritable_output_exit_two(tmp_path, capsys: pytest.CaptureFixture) -> None:
    target = tmp_path / "missing" / "x.csv"
    code = main(["table", "--type", "A2", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_gf_d_exact_zero(capsys: pytest.CaptureFixture) -> None:
    code, out = run_cli(capsys, ["gf", "--family", "D", "--exact", "0", "--order", "5"])
    assert code == 0
    assert out == "n,coefficient\n0,0\n1,1\n2,1\n3,1\n4,1\n5,1\n"


def test_gf_a_cumulative_all_ones(capsys: pytest.CaptureFixture) -> None:
    code, out = run_cli(capsys, ["gf", "--family", "A", "--le", "0", "--order", "4"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [c for _, c in rows] == ["1"] * 5


def test_gf_json_decimal_strings(capsys: pytest.CaptureFixture) -> None:
    code, out = run_cli(
        capsys,
        ["gf", "--family", "C", "--le", "3", "--order", "6", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "C"
    assert doc["le"] == 3
    assert doc["coefficients"] == ["1", "2", "6", "18", "54", "162", "486"]


def test_gf_exact_telescopes_for_type_a(capsys: pytest.CaptureFixture) -> None:
    # A has no published exact-class series; the CLI differences the bounds
    code, out = run_cli(capsys, ["gf", "--family", "A", "--exact", "1", "--order", "5"])
    assert code == 0
    # coefficient x^(n+1) counts rank-n ideals of class exactly 1: 2^n - 1
    assert out == "n,coefficient\n0,0\n1,0\n2,1\n3,3\n4,7\n5,15\n"


def test_roots_csv(capsys: pytest.CaptureFixture) -> None:
    code, out = run_cli(capsys, ["roots", "--type", "G2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,height,coefficients"
    assert len(lines) == 7
    assert lines[-1] == "5,5,3 2"


def test_roots_json(capsys: pytest.CaptureFixture) -> None:
    code, out = run_cli(capsys, ["roots", "--type", "A2", "--format", "json"])
    doc = json.loads(out)
    assert code == 0
    assert doc["rank"] == 2
    assert doc["highest_root"] == [1, 1]
    assert doc["coxeter_number"] == 3
    assert len(doc["positive_roots"]) == 3


def test_enumerate_golden(capsys: pytest.CaptureFixture) -> None:
    code, out = run_cli(capsys, ["enumerate", "--type", "A2", "--method", "zigzag"])
    assert code == 0
    assert out == (
        "mask,dimension,class\n0,0,0\n1,1,1\n3,2,1\n5,2,1\n7,3,2\n"
    )


def test_qt_csv(capsys: pytest.CaptureFixture) -> None:
    code, out = run_cli(capsys, ["qt", "--type", "A2"])
    assert code == 0
    assert out == "q,t,coeff\n0,0,1\n1,1,1\n1,2,2\n2,3,1\n"


def test_qt_json_total(capsys: pytest.CaptureFixture) -> None:
    code, out = run_cli(capsys, ["qt", "--type", "C2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert sum(int(term["coeff"]) for term in doc["terms"]) == 6


def test_verify_series_passes(capsys: pytest.CaptureFixture) -> None:
    code, out = run_cli(capsys, ["verify", "--suite", "series"])
    assert code == 0
    assert "2/2 checks passed" in out


def test_verify_reports_failure(
    capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch
) -> None:
    # break the reference formula and the totals suite must catch it
    import adnil.checks as checks

    monkeypatch.setattr(checks, "total_count_formula", lambda lt: 999)
    code, out = run_cli(capsys, ["verify", "--suite", "totals"])
    assert code == 1
    assert "FAIL" in out
    # first failure stops the report
    assert out.count("FAIL") == 1


def test_verify_keep_going(
    capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch
) -> None:
    import adnil.cli as cli

    rows = [
        CheckResult("first", False, "broken"),
        CheckResult("second", True, "fine"),
        CheckResult("third", False, "broken"),
    ]
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: rows)
    code, out = run_cli(capsys, ["verify", "--suite", "totals", "--keep-going"])
    assert code == 1
    assert out.count("FAIL") == 2
    assert "1/3 checks passed" in out

    code, out = run_cli(capsys, ["verify", "--suite", "totals"])
    assert code == 1
    assert out.count("FAIL") == 1
    assert "0/1 checks passed" in out


def test_budget_exit_code(capsys: pytest.CaptureFixture) -> None:
    code = main(["table", "--type", "E6", "--workers", "1", "--budget", "1e-9"])
    captured = capsys.readouterr()
    assert code == 1
    assert "budget" in captured.err


def test_verify_agreement_budget_exit_code(capsys: pytest.CaptureFixture) -> None:
    # the whole suite takes over a second; the clock is read before each type
    started = time.monotonic()
    code = main(["verify", "--suite", "agreement", "--budget", "0.01"])
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and "budget" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--type", "Z9"],
        ["table", "--type", "A"],
        ["table"],
        ["qt", "--type", "B3"],
        ["gf", "--family", "A"],
        ["gf", "--family", "A", "--le", "1", "--exact", "2"],
        ["gf", "--family", "A", "--le", "-1"],
        ["gf", "--family", "A", "--le", "1", "--order", "0"],
        ["verify"],
        ["nonsense"],
        ["verify", "--suite", "series", "--format", "json"],
        ["table", "--type", "A3", "--rank", "x"],
        ["table", "--type", "A3", "--workers", "0"],
        ["table", "--type", "A\uff13"],
        ["verify", "--suite", "nonsense"],
        [],
    ],
)
def test_usage_errors_exit_two(capsys: pytest.CaptureFixture, argv: list[str]) -> None:
    # argparse's refusals, type resolution and the commands' own checks all
    # end in status 2 with one `error:` line, no usage text and no output
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("option, argv", [
    ("--rank", ["table", "--family", "A", "--rank", "\uff13"]),
    ("--workers", ["table", "--type", "A3", "--workers", "\uff12"]),
    ("--budget", ["table", "--type", "A3", "--budget", "\uff15"]),
    ("--max-rank", ["verify", "--suite", "agreement", "--max-rank", "\u0662"]),
    ("--le", ["gf", "--family", "A", "--le", "\uff12", "--order", "3"]),
    ("--exact", ["gf", "--family", "A", "--exact", "\u0662", "--order", "3"]),
    ("--order", ["gf", "--family", "A", "--le", "2", "--order", "\uff13"]),
])
def test_numeric_options_take_ascii_digits_only(
    capsys: pytest.CaptureFixture, option: str, argv: list[str],
) -> None:
    # `int` and `float` take any Unicode decimal digit (here fullwidth and
    # Arabic-Indic), a space or a '_'; every numeric option refuses them
    # with one `error:` line naming it, and takes the ASCII spelling
    for value in (argv[argv.index(option) + 1], " 2", "1_0"):
        bad = [*argv]
        bad[argv.index(option) + 1] = value
        code = main(bad)
        captured = capsys.readouterr()
        assert code == 2, bad
        assert captured.out == ""
        assert captured.err.startswith(f"error: argument {option}: invalid ")
        assert captured.err.count("\n") == 1
    good = [*argv]
    good[argv.index(option) + 1] = "2" if option != "--budget" else "60"
    assert main(good) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--help"], ["table", "--help"], ["verify", "-h"]])
def test_help_exits_zero(capsys: pytest.CaptureFixture, argv: list[str]) -> None:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: adnil")


def test_incompatible_method_exit_two(capsys: pytest.CaptureFixture) -> None:
    code = main(["table", "--type", "A3", "--method", "ray"])
    captured = capsys.readouterr()
    assert code == 2
    assert "requires type C" in captured.err


def test_nonpositive_workers_exit_two(capsys: pytest.CaptureFixture) -> None:
    for command in (["table", "--type", "A2"], ["verify", "--suite", "formulas"]):
        for count in ("0", "-3"):
            code = main(command + ["--workers", count])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1
            assert "workers" in captured.err
            assert captured.out == ""


def test_worker_variable_takes_ascii_digits_only(
    capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch,
) -> None:
    for value in ("\uff12", "\u0663", " 2", "2_0"):
        monkeypatch.setenv("ADNIL_WORKERS", value)
        code = main(["table", "--type", "A3"])
        captured = capsys.readouterr()
        assert code == 2, value
        assert captured.out == ""
        assert captured.err == f"error: ADNIL_WORKERS must be a positive integer, got {value!r}\n"
    monkeypatch.setenv("ADNIL_WORKERS", "2")
    assert main(["table", "--type", "A3"]) == 0
    capsys.readouterr()


def test_nonpositive_budget_exit_two(capsys: pytest.CaptureFixture) -> None:
    # nan too: a deadline of now + nan is never passed
    commands = (["table", "--type", "A9", "--workers", "1"],
                ["verify", "--suite", "agreement"], ["verify", "--suite", "table1"])
    for command in commands:
        for budget in ("nan", "0", "-1"):
            started = time.monotonic()
            code = main(command + ["--budget", budget])
            captured = capsys.readouterr()
            assert code == 2, (command, budget)
            assert time.monotonic() - started < 1.0
            assert captured.err == (
                f"error: budget must be a positive number of seconds, got {float(budget)}\n"
            )
            assert captured.out == ""


def test_verify_max_rank_holds(capsys: pytest.CaptureFixture) -> None:
    # a rank below 1 is refused, and so is a run left with no check at all
    for extra in (["--max-rank", "0"], ["--max-rank", "-1"],
                  ["--family", "C", "--max-rank", "1"]):
        code = main(["verify", "--suite", "agreement", *extra])
        captured = capsys.readouterr()
        assert code == 2, extra
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""
    code, out = run_cli(capsys, ["verify", "--suite", "agreement", "--family", "B",
                                 "--max-rank", "2"])
    assert code == 0
    assert out.endswith("\n1/1 checks passed (agreement)\n")


def test_verify_refuses_agreement_options_on_other_suites(capsys: pytest.CaptureFixture) -> None:
    # --family and --max-rank restrict the agreement suite only: another
    # suite would run whole, every family and rank, and pass
    for suite in ("paths", "table1"):
        for extra in (["--family", "A"], ["--max-rank", "2"],
                      ["--family", "A", "--max-rank", "2"], ["--max-rank", "0"]):
            code = main(["verify", "--suite", suite, *extra])
            captured = capsys.readouterr()
            assert code == 2, (suite, extra)
            assert captured.err == (
                f"error: --family and --max-rank apply to agreement only, not {suite}\n"
            )
            assert captured.out == ""


def test_verify_refuses_workers_and_budget_where_no_suite_reads_them(
    capsys: pytest.CaptureFixture,
) -> None:
    # only table1 runs a pool, and only agreement and table1 read the
    # clock: another suite would run whole, uncapped, and pass
    cases = [(suite, ["--workers", "4"], f"--workers applies to table1 only, not {suite}")
             for suite in ("agreement", "series", "totals")]
    cases += [(suite, ["--budget", "0.000001"],
               f"--budget applies to agreement and table1 only, not {suite}")
              for suite in ("series", "totals", "paths")]
    cases.append(("series", ["--workers", "4", "--budget", "0.000001"],
                  "--workers applies to table1 only, not series"))
    for suite, extra, message in cases:
        code = main(["verify", "--suite", suite, *extra])
        captured = capsys.readouterr()
        assert code == 2, (suite, extra)
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
    code, out = run_cli(capsys, ["verify", "--suite", "agreement", "--family", "B",
                                 "--max-rank", "2", "--budget", "60"])
    assert code == 0 and out.endswith("\n1/1 checks passed (agreement)\n")


def test_preflight_refuses_huge_types(capsys: pytest.CaptureFixture) -> None:
    assert total_count_formula("A14") <= MAX_IDEALS < total_count_formula("A15")
    too_many = "ideals, more than the 10000000 a run may enumerate"
    agreement = sum(total_count_formula(f"A{n}") for n in range(1, 21))
    gf_cap = "gf expands classes up to 500 and orders up to 2000, got class"
    cases = [
        (["table", "--type", "A20"], f"A20 has 24466267020 {too_many}"),
        (["enumerate", "--type", "A20"], f"A20 has 24466267020 {too_many}"),
        (["verify", "--suite", "agreement", "--family", "A", "--max-rank", "20"],
         f"the agreement suite has {agreement} {too_many}"),
        # a type has at least 2^rank ideals, so rank 24 is refused unsummed
        (["table", "--type", "D24"], f"D24 has at least 2^24 {too_many}"),
        (["table", "--type", "A20000"], f"A20000 has at least 2^20000 {too_many}"),
        (["enumerate", "--type", "A200000"], f"A200000 has at least 2^200000 {too_many}"),
        # the suite stops at its first type of rank 24, the types after it unbuilt
        (["verify", "--suite", "agreement", "--family", "A", "--max-rank", "3000"],
         f"the agreement suite has at least 2^24 {too_many}"),
        (["verify", "--suite", "agreement", "--max-rank", "12000"],
         f"the agreement suite has at least 2^24 {too_many}"),
        (["verify", "--suite", "agreement", "--family", "D", "--max-rank", "100000"],
         f"the agreement suite has at least 2^24 {too_many}"),
        (["roots", "--type", "A300"], "roots lists at most 3600 positive roots, A300 has 45150"),
        (["roots", "--type", "B61"], "roots lists at most 3600 positive roots, B61 has 3721"),
        (["qt", "--type", "A40"], "qt refuses ranks above 37, got rank 40"),
        (["qt", "--type", "C40"], "qt refuses ranks above 37, got rank 40"),
        (["gf", "--family", "D", "--exact", "3000"], f"{gf_cap} 3000 and order 12"),
        (["gf", "--family", "B", "--le", "501"], f"{gf_cap} 501 and order 12"),
        (["gf", "--family", "A", "--le", "1", "--order", "2001"], f"{gf_cap} 1 and order 2001"),
    ]
    for argv, message in cases:
        started = time.monotonic()
        code = main(argv)
        elapsed = time.monotonic() - started
        captured = capsys.readouterr()
        assert code == 2, argv
        assert elapsed < 1.0, argv
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_console_module_invocation() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "adnil.cli", "table", "--type", "G2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == G2_TABLE


# Real flags with cheap values: ranks up to 4, orders up to 30, the agreement
# suite up to rank 3, and a few good and bad worker counts and budgets.
FAMILY = st.sampled_from("ABCDEFG")
RANK = st.integers(-1, 4).map(str)
TYPE_ARGS = st.one_of(
    st.tuples(FAMILY, RANK).map(lambda fr: ["--type", "".join(fr)]),
    st.tuples(FAMILY, RANK).map(lambda fr: ["--type", fr[0], "--rank", fr[1]]),
    st.tuples(FAMILY, RANK).map(lambda fr: ["--family", fr[0], "--rank", fr[1]]),
    st.just([]),
)
FORMAT = st.sampled_from([[], ["--format", "csv"], ["--format", "json"]])
METHOD = st.sampled_from([[]] + [["--method", m] for m in ROUTES])
WORKERS = st.sampled_from([[]] + [["--workers", w] for w in ("-1", "0", "1", "2", "x")])
BUDGET = st.sampled_from([[]] + [["--budget", b] for b in ("nan", "-1", "0", "1e-9", "inf", "x")])


def _argv(command: str, *groups: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(*groups).map(lambda drawn: [command, *(a for g in drawn for a in g)])


ARGV = st.one_of(
    _argv("roots", TYPE_ARGS, FORMAT),
    _argv("enumerate", TYPE_ARGS, METHOD, FORMAT),
    _argv("table", TYPE_ARGS, METHOD, WORKERS, BUDGET, FORMAT),
    _argv("qt", TYPE_ARGS, FORMAT),
    _argv(
        "gf",
        st.sampled_from([[]] + [["--family", f] for f in "ABCDE"]),
        st.tuples(st.sampled_from(["--le", "--exact"]), st.integers(-1, 5).map(str)).map(list),
        st.sampled_from([[], ["--order", "-1"], ["--order", "0"]])
        | st.integers(1, 30).map(lambda k: ["--order", str(k)]),
        FORMAT,
    ),
    _argv("verify", st.just(["--suite", "series"]), WORKERS, BUDGET),
    _argv(
        "verify",
        st.just(["--suite", "agreement"]),
        st.sampled_from([[]] + [["--family", f] for f in "ABCD"]),
        st.integers(-1, 3).map(lambda k: ["--max-rank", str(k)]),
        st.sampled_from([[], ["--keep-going"]]),
        WORKERS,
        BUDGET,
    ),
)


@settings(max_examples=60, deadline=None)
@given(ARGV)
def test_cli_argv_fuzz(argv: list[str]) -> None:
    # every run ends in status 0, 1 or 2; any exception escaping main,
    # argparse's SystemExit included, is a bug
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, argv
