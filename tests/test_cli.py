"""Surface-syntax parsing, rendering round trips and the CLI commands."""
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from duinv import monomial, paperlab
from duinv.cli import build_parser, main, parse_matrix, render_matrix
from duinv.cycnum import CycNum, zeta
from duinv.errors import ParseError
from duinv.notation import parse_cyc, parse_rational, render_cyc
from duinv.matgroup import (Mat2, mat_c, mat_c_minus, mat_d1, mat_s, mat_s1,
                            mat_s2)
from fractions import Fraction


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

def test_parse_rationals():
    assert parse_cyc("3") == 3
    assert parse_cyc("-2/3") == CycNum.from_rat(Fraction(-2, 3))
    assert parse_cyc(" 1 / 2 ") == CycNum.from_rat(Fraction(1, 2))
    assert parse_cyc("9" * 1000) == int("9" * 1000)
    # --alpha and --beta: literal [-]p[/q] only
    assert parse_rational("3/2") == Fraction(3, 2) and parse_rational("-7") == -7
    for text in ("1.5", "1e-5000", "+1", "3/-2", "1/2/3", "\u0663"):
        with pytest.raises(ParseError):
            parse_rational(text)


def test_parse_roots(monkeypatch):
    # A power of +-zeta_n^j, as zeta(n)^k, i^k and (-zeta(n))^k, is read in
    # one step as +-zeta_n^(jk mod n), with no power taken
    monkeypatch.setattr(CycNum, "__pow__", lambda x, k: pytest.fail("a power was taken"))
    assert parse_cyc("zeta(999983)^1000") == zeta(999983, 1000)
    assert parse_cyc("i^-100000000001") == zeta(4, 3)
    assert parse_cyc("zeta(5)") == zeta(5)
    assert parse_cyc("i") == zeta(4)
    assert parse_cyc("i^2") == -1
    assert parse_cyc("zeta(8)^-1") == zeta(8, 7)
    assert parse_cyc("-zeta(12)") == -zeta(12)
    assert parse_cyc("(-1)^10000") == 1
    assert parse_cyc("(-1)^10001") == -1
    assert parse_cyc("(zeta(3))^100000") == zeta(3)
    assert parse_cyc("(-zeta(5))^4096") == zeta(5)
    assert parse_cyc("(-zeta(5))^-4097") == -zeta(5, -4097)
    assert parse_cyc("(-i)^3") == zeta(4)


def test_parse_arithmetic():
    assert parse_cyc("1+zeta(3)+zeta(3)^2") == 0
    assert parse_cyc("2*zeta(4)-i") == zeta(4)
    assert parse_cyc("(1+i)*(1-i)") == 2
    assert parse_cyc("1/2*zeta(3)") == zeta(3) / 2
    assert parse_cyc("-(2-3)") == 1


def test_parse_errors_have_positions():
    with pytest.raises(ParseError):
        parse_cyc("zeta(")
    with pytest.raises(ParseError):
        parse_cyc("1+")
    with pytest.raises(ParseError):
        parse_cyc("1 2")
    try:
        parse_cyc("1+*2")
    except ParseError as exc:
        assert exc.position == 2
    # digits are ASCII, at most 1000 to an integer: the error is at the literal
    for parse, text, position in [(parse_cyc, "zeta(\u0663)", 5),  # Arabic-Indic three
                                  (parse_cyc, "1+(" + "9" * 5000 + ")", 3),
                                  (parse_matrix, "[[\u00b2,0],[0,1]]", 2)]:  # superscript two
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.position == position


DEEP_ENTRIES = ["(" * 300 + "1" + ")" * 300, "-" * 1500 + "1"]


@pytest.mark.parametrize("text", DEEP_ENTRIES, ids=["parentheses", "negations"])
def test_parse_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested"):
        parse_cyc(text)
    with pytest.raises(ParseError, match="nested"):
        parse_matrix(f"[[{text},0],[0,1]]")


@pytest.mark.parametrize("text, taken, at", [("(1/3+zeta(7))^100000", [], 14),
                                             ("2^100000000", [], 2),
                                             ("((2^1000)^1000)^1000", [1000], 10),
                                             ("(2^4000+zeta(7))^-1", [4000], 17)])
def test_large_powers_are_refused_before_they_are_taken(monkeypatch, text, taken, at):
    """A power whose value could pass the size bound is a ParseError at its
    exponent, raised before CycNum.__pow__ runs; only the powers in `taken`
    run."""
    power, seen = CycNum.__pow__, []

    def guarded(self, k):
        if len(seen) == len(taken):
            pytest.fail(f"{text}: the power to the {k} was taken")
        seen.append(k)
        return power(self, k)

    monkeypatch.setattr(CycNum, "__pow__", guarded)
    with pytest.raises(ParseError, match="^power to the") as exc:
        parse_cyc(text)
    assert exc.value.position == at
    assert seen == taken


def test_parse_nesting_up_to_the_limit():
    assert parse_cyc("(" * 100 + "i" + ")" * 100) == zeta(4)
    assert parse_cyc("-" * 100 + "2") == 2
    with pytest.raises(ParseError):
        parse_cyc("-" * 101 + "2")


def test_parse_matrix_forms():
    assert parse_matrix("[[0,1],[1,0]]") == mat_s()
    assert parse_matrix("[[zeta(8),0],[0,zeta(8)^-1]]") == mat_c(zeta(8))
    assert parse_matrix("[[-zeta(12),0],[0,zeta(12)^-1]]") == mat_c_minus(zeta(12))
    with pytest.raises(ParseError):
        parse_matrix("[[1,0],[0,1]")


def test_render_round_trip():
    corpus = [mat_s(), mat_s1(), mat_s2(), mat_d1(),
              mat_c(zeta(7)), mat_c_minus(zeta(12)),
              Mat2.of(Fraction(1, 2), zeta(3) + 1, -zeta(8), 0)]
    for m in corpus:
        assert parse_matrix(render_matrix(m)) == m


def test_render_cyc_round_trip():
    values = [CycNum.zero(), CycNum.from_rat(Fraction(-3, 7)),
              zeta(5) + zeta(5, 3), 2 * zeta(9) - 1, -zeta(4) / 3]
    for v in values:
        assert parse_cyc(render_cyc(v)) == v


def test_power_binds_tighter_than_a_leading_minus():
    assert parse_cyc("-zeta(5)^2") == -zeta(5, 2)
    assert parse_cyc("(-zeta(5))^2") == zeta(5, 2)
    assert parse_cyc("-2^2") == -4
    assert parse_cyc("2*-3^-1") == Fraction(-2, 3)


@st.composite
def cyc_values(draw):
    """A sum of up to three terms c zeta_n^k, n <= 24, c a small int or Fraction."""
    n = draw(st.integers(1, 24))
    coeff = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    terms = draw(st.lists(st.tuples(coeff, st.integers(0, n - 1)), min_size=1, max_size=3))
    return sum((c * zeta(n, k) for c, k in terms), CycNum.zero())


@given(cyc_values(), st.tuples(cyc_values(), cyc_values(), cyc_values(), cyc_values()))
def test_rendered_values_parse_back_to_themselves(x, entries):
    assert parse_cyc(render_cyc(x)) == x
    m = Mat2(*entries)
    assert parse_matrix(render_matrix(m)) == m


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_analyze_q1(capsys):
    code = main(["analyze", "--alpha", "1", "--beta", "1",
                 "--gen", "[[zeta(3),0],[0,zeta(3)^-1]]"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == "1"
    assert data["group"]["order"] == 3
    assert data["group"]["label"] == "Q1(n=3)"
    assert data["algebra"] == {"alpha": "1", "beta": "1", "aut_shape": "diag_only"}
    assert data["hdet_trivial"] is True
    assert data["gorenstein"]["by_stanley"] is True
    assert data["cyclotomic"]["flag"] is True
    assert data["theorem03"] == {"C2": True, "C3": True, "consistent": True}
    # series serialized lowest-degree-first
    assert data["series"]["num"][0] == 1
    assert data["series"]["den"][0] == 1


def test_analyze_rejects_antidiagonal_for_diagonal_shape(capsys):
    code = main(["analyze", "--alpha", "1", "--beta", "2",
                 "--gen", "[[0,1],[1,0]]"])
    assert code == 2


def test_analyze_sl2_full_shape(capsys):
    code = main(["analyze", "--alpha", "0", "--beta", "1",
                 "--gen", "[[0,1],[-1,0]]"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["theorem03"]["C2"] and data["theorem03"]["C3"]


def test_analyze_bad_input(capsys):
    assert main(["analyze", "--alpha", "1", "--beta", "1",
                 "--gen", "[[zeta(,0],[0,1]]"]) == 1
    assert main(["analyze", "--alpha", "1", "--beta", "1",
                 "--gen", "[[1,0],[0,0]]"]) == 3


def test_analyze_markdown(capsys):
    code = main(["analyze", "--alpha", "1", "--beta", "1", "--md",
                 "--gen", "[[zeta(4),0],[0,zeta(4)^-1]]"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("| field")
    assert "Q1(n=4)" in out


def test_classify_command(capsys):
    code = main(["classify", "--gen", "[[0,1],[-1,0]]"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 4
    assert "C4" in data["all_matches"]
    code = main(["classify", "--gen", "[[-1,0],[0,1]]"])
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 2


def test_paperlab_command(capsys):
    code = main(["paperlab", "--suite", "four-variable"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 3
    assert all(entry["passed"] for entry in data)


def test_paperlab_small_all(capsys):
    code = main(["paperlab", "--suite", "jordan-plane"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert {e["check_id"] for e in data} >= {"jordan-negation-series",
                                            "jordan-negation-stanley"}


# ---------------------------------------------------------------------------
# exit codes: every library error maps to a documented code, no traceback
# ---------------------------------------------------------------------------

def test_analyze_zero_conductor_is_an_input_error(capsys):
    assert main(["analyze", "--alpha", "1", "--beta", "1",
                 "--gen", "[[zeta(0),0],[0,1]]"]) == 1
    assert "input error" in capsys.readouterr().err


def test_analyze_conductor_overflow_exit_code(capsys, monkeypatch):
    assert main(["analyze", "--alpha", "1", "--beta", "1",
                 "--gen", "[[zeta(1000),0],[0,zeta(1001)]]"]) == 1
    # the same roots in two generators: refused before any closure runs
    monkeypatch.setattr(monomial, "closure", lambda *a, **k: pytest.fail("a closure ran"))
    assert main(["analyze", "--alpha", "1", "--beta", "1",
                 "--gen", "[[zeta(1000),0],[0,1]]", "--gen", "[[zeta(1001),0],[0,1]]"]) == 1
    assert capsys.readouterr().err.count("input error:") == 2


def test_analyze_beta_zero_is_an_input_error(capsys):
    assert main(["analyze", "--alpha", "1", "--beta", "0",
                 "--gen", "[[-1,0],[0,1]]"]) == 1


@pytest.mark.parametrize("alpha", ["1e-5000", "1e-10000000", "1.5"])
def test_analyze_alpha_is_a_literal_rational(capsys, alpha):
    """--alpha takes [-]p[/q] only: exponent notation is refused at once."""
    assert main(["analyze", "--alpha", alpha, "--beta", "1",
                 "--gen", "[[-1,0],[0,1]]"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("input error: unexpected trailing input")


def test_analyze_infinite_order_exit_code(capsys):
    assert main(["analyze", "--alpha", "1", "--beta", "1",
                 "--gen", "[[2,0],[0,1/2]]"]) == 3


def test_analyze_other_library_errors_exit_4(capsys, monkeypatch):
    import duinv.cli
    from duinv.errors import NonRationalCollapse

    def fail(*args, **kwargs):
        raise NonRationalCollapse("coefficient of t^3 is irrational")

    monkeypatch.setattr(duinv.cli, "theorem03_report", fail)
    assert main(["analyze", "--alpha", "1", "--beta", "1",
                 "--gen", "[[-1,0],[0,1]]"]) == 4
    assert "irrational" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (DEEP_ENTRIES[0], "expression nested"), (DEEP_ENTRIES[1], "expression nested"),
    ("\u00b2", "expected a rational"), ("9" * 5000, "integer of more than 1000 digits"),
    ("(1/3+zeta(7))^100000", "power to the 100000"),
    ("((2^1000)^1000)^1000", "power to the 1000 of a base with 1001-bit")],
    ids=["parentheses", "negations", "superscript", "long-literal", "power", "nested-powers"])
@pytest.mark.parametrize("command", [["analyze", "--alpha", "1", "--beta", "1"], ["classify"]],
                         ids=["analyze", "classify"])
def test_deep_nesting_is_an_input_error(capsys, command, text, message):
    """Input the notation refuses, each with its position: exit 1 with an
    input error, no traceback."""
    assert main(command + ["--gen", f"[[{text},0],[0,1]]"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {message}") and "(at position" in err


@pytest.mark.parametrize("text, conductor", [
    ("zeta(10000000000000000000000)^9999999999999999999999", 10 ** 22),
    ("zeta(1000000000)^999999999", 10 ** 9)], ids=["index-overflow", "huge-list"])
@pytest.mark.parametrize("command", [["analyze", "--alpha", "1", "--beta", "1"], ["classify"]],
                         ids=["analyze", "classify"])
def test_conductor_past_the_cap_is_an_input_error(capsys, command, text, conductor):
    """A root of unity past the conductor cap is refused before its power
    builds a vector of its conductor's length: exit 1 with an input error."""
    assert main(command + ["--gen", f"[[{text},0],[0,1]]"]) == 1
    err = capsys.readouterr().err
    assert err == f"input error: conductor {conductor} exceeds cap 1000000\n"


def test_paperlab_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["paperlab", "--suite", "bogus"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("max_n", ["0", "-1", "x", "\u0663"])  # an Arabic-Indic 3
def test_paperlab_max_n_below_one_is_a_usage_error(capsys, max_n):
    with pytest.raises(SystemExit) as exc:
        main(["paperlab", "--suite", "flag-table", "--max-n", max_n])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--max-n: must be an integer of at least 1" in out.err


def test_paperlab_suite_choices_are_the_suite_names():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    suite = next(a for a in sub.choices["paperlab"]._actions if a.dest == "suite")
    with pytest.raises(ValueError) as exc:
        paperlab.run_suite("bogus")
    listed = str(exc.value).split("choose from ")[1].removesuffix(" or 'all'")
    assert set(suite.choices) == set(listed.split(", ")) | {"all"}


def test_classify_exit_codes(capsys):
    assert main(["classify", "--gen", "[[zeta(0),0],[0,1]]"]) == 1
    assert main(["classify", "--gen", "[[1/0,0],[0,1]]"]) == 1
    assert main(["classify", "--gen", "[[2,0],[0,1]]"]) == 3


def test_classify_entries_past_the_float_range(capsys):
    # The anti-diagonal g with entries 2^1100 and 2^-1100 squares to I; the
    # phase proposal for the determinant and entries scales them down first.
    assert main(["classify", "--gen", "[[0,2^1100],[2^-1100,0]]"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["order"] == 2 and "Traceback" not in captured.err


@pytest.mark.parametrize("gens", [["[[0,2],[1/2,0]]", "[[0,1],[1,0]]"],
                                  ["[[1,1],[0,1]]"], ["[[-1,1],[0,-1]]"],
                                  ["[[1,1],[1,0]]"], ["[[zeta(60),1],[1,0]]"]])
def test_analyze_infinite_group_fails_before_closing(capsys, gens):
    argv = ["analyze", "--alpha", "3", "--beta", "-1"]
    for g in gens:
        argv += ["--gen", g]
    assert main(argv) == 3
    assert "exceeded cap" not in capsys.readouterr().err
