"""Witness reports: formats, threshold checks, postselection profiles."""

from fractions import Fraction

import numpy as np
import pytest

from postsel import (
    BadArgument,
    Condition,
    WitnessReport,
    check_awpp_witness,
    check_wapp_witness,
    classify_postsel_profile,
    mixed_conditional,
)
from postsel.witness import PROFILE_KINDS

# ===================================================================
# report container and serializations
# ===================================================================


def _report() -> WitnessReport:
    rep = WitnessReport("demo-report")
    rep.add(Condition("first", "1/2", "<=", "2/3", True))
    rep.add(Condition("second", "5", ">", "0", False))
    return rep


def test_report_passed_is_conjunction():
    rep = _report()
    assert not rep.passed
    rep.conditions[1] = Condition("second", "5", ">", "0", True)
    assert rep.passed


def test_report_text_format():
    text = _report().to_text()
    assert text.splitlines()[0] == "demo-report: FAIL (2 conditions)"
    assert "  [ok ] first: 1/2 <= 2/3" in text
    assert "  [BAD] second: 5 > 0" in text


def test_report_machine_format_is_line_oriented():
    lines = _report().to_machine().splitlines()
    assert lines[0] == "scenario=demo-report condition=first lhs=1/2 op=<= rhs=2/3 result=pass"
    assert lines[1] == "scenario=demo-report condition=second lhs=5 op=> rhs=0 result=fail"


def test_report_rejects_spaces():
    with pytest.raises(ValueError):
        WitnessReport("has space")
    rep = WitnessReport("fine")
    with pytest.raises(ValueError):
        rep.add(Condition("bad id", "1", "==", "1", True))
    with pytest.raises(ValueError):
        rep.add(Condition("ok", "1 /2", "==", "1", True))


def test_report_row_rule_check_raises_and_merge():
    rep = WitnessReport("rows")
    assert rep.check("dyadic", Fraction(2, 4), "==", Fraction(1, 2))
    assert not rep.check("strict", 1, "<", Fraction(2, 2))
    rep.check_raises("raises", ZeroDivisionError, lambda: 1 // 0)
    rep.check_raises("silent", ZeroDivisionError, lambda: 1)
    outer = WitnessReport("outer")
    outer.merge(rep, "sub:")
    assert outer.to_machine().splitlines() == [
        "scenario=outer condition=sub:dyadic lhs=1/2 op=== rhs=1/2 result=pass",
        "scenario=outer condition=sub:strict lhs=1 op=< rhs=1 result=fail",
        "scenario=outer condition=sub:raises lhs=ZeroDivisionError op=== rhs=raised result=pass",
        "scenario=outer condition=sub:silent lhs=ZeroDivisionError op=== "
        "rhs=not-raised result=fail",
    ]


def test_report_check_rejects_unknown_op():
    rep = WitnessReport("ops")
    with pytest.raises(ValueError, match="unknown comparison '='; expected one of == <= >= < >"):
        rep.check("a", 1, "=", 1)
    assert rep.conditions == []


@pytest.mark.parametrize("brackets", ["[]", "[)", "(]", "()"])
def test_report_within_brackets(brackets):
    """An ``in`` row: a square bracket admits its bound, a round one does not."""
    lo, hi = Fraction(1, 4), Fraction(3, 4)
    xs = {"at-lo": lo, "at-hi": hi, "inside": Fraction(1, 2),
          "below": Fraction(1, 8), "above": Fraction(7, 8)}
    rep = WitnessReport("within")
    got = {cid: rep.within(cid, x, lo, hi, brackets) for cid, x in xs.items()}
    assert got == {"at-lo": brackets[0] == "[", "at-hi": brackets[1] == "]",
                   "inside": True, "below": False, "above": False}
    rhs = f"{brackets[0]}1/4,3/4{brackets[1]}"
    assert rep.conditions == [
        Condition(cid, str(x), "in", rhs, got[cid]) for cid, x in xs.items()
    ]
    assert rep.to_machine().splitlines()[0] == (
        f"scenario=within condition=at-lo lhs=1/4 op=in rhs={rhs} "
        f"result={'pass' if got['at-lo'] else 'fail'}"
    )


def test_report_within_default_is_closed_and_rejects_bad_brackets():
    rep = WitnessReport("within")
    assert rep.within("dyadic", Fraction(1, 2), 0, Fraction(1, 2))
    assert rep.conditions == [Condition("dyadic", "1/2", "in", "[0,1/2]", True)]
    for brackets in ("", "[", "]]", "{}", "[]]"):
        with pytest.raises(ValueError, match="brackets must be one of"):
            rep.within("bad", 0, 0, 1, brackets)
    assert len(rep.conditions) == 1


# ===================================================================
# two-sided ratio thresholds
# ===================================================================


def test_awpp_witness_accepts_clean_instances():
    rep = check_awpp_witness(
        g_of={"1": 15, "0": 1},
        f_of={"1": 16, "0": 16},
        labels={"1": True, "0": False},
        eps=Fraction(1, 16),
    )
    assert rep.passed
    assert len(rep.conditions) == 4  # positivity + range per instance


def test_awpp_witness_boundary_values_pass():
    # ratio exactly 1 - eps in the language, exactly eps outside
    f, labels, eps = {"1": 16, "0": 16}, {"1": True, "0": False}, Fraction(1, 16)
    rep = check_awpp_witness({"1": 15, "0": 1}, f, labels, eps)
    assert rep.passed
    # one notch past the threshold fails
    rep_bad = check_awpp_witness({"1": 14, "0": 2}, f, labels, eps)
    assert not rep_bad.passed
    bad = [c for c in rep_bad.conditions if not c.passed]
    assert {c.cid for c in bad} == {"w=0:out-range", "w=1:in-range"}


def test_awpp_witness_ratio_above_one_fails():
    rep = check_awpp_witness({"1": 17}, {"1": 16}, {"1": True}, Fraction(1, 16))
    assert not rep.passed


def test_awpp_witness_reports_nonpositive_normalizer():
    rep = check_awpp_witness({"1": 1}, {"1": 0}, {"1": True}, Fraction(1, 16))
    assert not rep.passed
    assert rep.conditions[0].cid == "w=1:normalizer-positive"
    assert len(rep.conditions) == 1  # no range row for a broken normalizer


def test_awpp_witness_fraction_threshold():
    f = {"1": 9, "0": 9}
    rep = check_awpp_witness({"1": 8, "0": 3}, f, {"1": True, "0": False}, Fraction(1, 3))
    assert rep.passed
    with pytest.raises(ValueError):
        check_awpp_witness({}, {}, {}, Fraction(1, 2))  # eps must be < 1/2
    with pytest.raises(ValueError):
        check_awpp_witness({}, {}, {}, Fraction(0))
    with pytest.raises(ValueError):
        check_awpp_witness({}, {}, {}, 5)  # an exponent is not a width


# ===================================================================
# strict majority-margin thresholds
# ===================================================================


def test_wapp_witness_margins():
    eps = Fraction(1, 4)
    rep = check_wapp_witness(
        {"1": Fraction(11, 12), "0": Fraction(2, 12)},
        {"1": True, "0": False},
        eps,
    )
    assert rep.passed
    # (1+eps)/2 == 5/8 exactly is NOT enough: the bound is strict
    rep_edge = check_wapp_witness({"1": Fraction(5, 8)}, {"1": True}, eps)
    assert not rep_edge.passed
    rep_over = check_wapp_witness({"0": Fraction(3, 8)}, {"0": False}, eps)
    assert not rep_over.passed  # (1-eps)/2 == 3/8, also strict
    rep_in = check_wapp_witness({"0": Fraction(2, 8)}, {"0": False}, eps)
    assert rep_in.passed


def test_wapp_witness_validates_epsilon():
    with pytest.raises(ValueError):
        check_wapp_witness({}, {}, Fraction(0))
    with pytest.raises(ValueError):
        check_wapp_witness({}, {}, Fraction(1))


_STATS = {"1": Fraction(1, 2)}
_INEXACT = {
    "float-lhs": lambda: WitnessReport("t").check("a", 0.1, "==", Fraction(1, 10)),
    "str-rhs": lambda: WitnessReport("t").check("a", Fraction(1, 10), "==", "1/10"),
    "within-bound": lambda: WitnessReport("t").within("a", Fraction(1, 2), 0, 1.0),
    "wapp-epsilon": lambda: check_wapp_witness({"1": Fraction(1)}, {"1": True}, 0.5),
    "wapp-ratio": lambda: check_wapp_witness({"1": 0.9}, {"1": True}, Fraction(1, 2)),
    "awpp-eps": lambda: check_awpp_witness({"1": 1}, {"1": 1}, {"1": True}, 0.25),
    "awpp-g": lambda: check_awpp_witness({"1": 0.5}, {"1": 1}, {"1": True}, Fraction(1, 4)),
    "r2": lambda: classify_postsel_profile(_STATS, "aFP", f={"1": 1}, q_exp=1, r2=1.0),
    "q_exp": lambda: classify_postsel_profile(_STATS, "FP", f={"1": 1}, q_exp=1.0),
    "f": lambda: classify_postsel_profile(_STATS, "FP", f={"1": 0.5}, q_exp=0),
}


@pytest.mark.parametrize("case", list(_INEXACT))
def test_witness_rows_reject_inexact_values(case):
    """Floats, strings and non-integer exponents never reach a row."""
    with pytest.raises(ValueError):
        _INEXACT[case]()


def test_an_exact_value_reads_an_integer_through_the_integer_rule():
    """A bool is no exact value, though ``bool`` is a ``Rational``: True is not probability 1.
    A numpy integer reads as its int."""
    for call in (
        lambda: WitnessReport("r").check("c", True, "==", 1),
        lambda: mixed_conditional(10, 3, True),
    ):
        with pytest.raises(BadArgument, match="^exact value must be an integer, got True$"):
            call()
    rep = WitnessReport("r")
    assert rep.check("c", np.int64(1), "==", Fraction(1))
    assert rep.conditions[0].lhs == "1"


# each call omits one entry; the ValueError's message names it
_MISSING = {
    "awpp-f": (
        lambda: check_awpp_witness({"0": 1}, {"0": 2}, {"1": True}, Fraction(1, 3)),
        "f_of has no entry for '1'",
    ),
    "awpp-g": (
        lambda: check_awpp_witness({"0": 1}, {"1": 2}, {"1": True}, Fraction(1, 3)),
        "g_of has no entry for '1'",
    ),
    "wapp-ratio": (
        lambda: check_wapp_witness({"0": 1}, {"1": True}, Fraction(1, 3)),
        "ratio_of has no entry for '1'",
    ),
    "fp-no-f": (lambda: classify_postsel_profile(_STATS, "FP", q_exp=1), "f not given"),
    "fp-instance": (
        lambda: classify_postsel_profile(_STATS, "FP", f={"0": 1}, q_exp=1),
        "f has no entry for '1'",
    ),
    "asize-length": (
        lambda: classify_postsel_profile(_STATS, "asize", f={2: 1}, q_exp=1, r2=1),
        "f has no entry for 1",
    ),
}


@pytest.mark.parametrize("case", list(_MISSING))
def test_witness_tables_missing_an_entry_raise(case):
    fn, message = _MISSING[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn()


# each call gives one exponent below 0, which would be a shift by -1
_NEGATIVE_EXPONENT = {
    "q_exp": lambda: classify_postsel_profile(_STATS, "FP", f={"1": 1}, q_exp=-1),
    "r2": lambda: classify_postsel_profile(_STATS, "aFP", f={"1": 1}, q_exp=1, r2=-1),
}


@pytest.mark.parametrize("name", list(_NEGATIVE_EXPONENT))
def test_profile_exponent_below_0_is_named(name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
        _NEGATIVE_EXPONENT[name]()


# ===================================================================
# postselection-probability profiles
# ===================================================================


def _p(n: int, k: int) -> Fraction:
    return Fraction(n, 1 << k)


def test_profile_kinds_frozen():
    assert PROFILE_KINDS == ("post", "FP", "size", "aFP", "asize")


def test_profile_post():
    rep = classify_postsel_profile({"0": _p(1, 3), "1": _p(0, 0)}, "post")
    assert [c.passed for c in rep.conditions] == [True, False]


def test_profile_fp_exact_equality():
    stats = {"00": _p(3, 4), "01": _p(5, 4)}
    rep = classify_postsel_profile(stats, "FP", f={"00": 3, "01": 5}, q_exp=4)
    assert rep.passed
    rep2 = classify_postsel_profile(stats, "FP", f={"00": 3, "01": 4}, q_exp=4)
    assert not rep2.passed


def test_profile_size_depends_on_length_only():
    stats = {"00": _p(3, 4), "11": _p(3, 4), "1": _p(1, 1)}
    rep = classify_postsel_profile(stats, "size", f={1: 8, 2: 3}, q_exp=4)
    assert rep.passed


def test_profile_afp_window():
    target = Fraction(3, 16)
    eps = Fraction(1, 4)
    inside = Fraction(9, 64)  # 9/64 == (1 - 1/4) * 3/16 exactly: boundary
    outside = Fraction(8, 64)
    rep = classify_postsel_profile({"0": inside}, "aFP", f={"0": 3}, q_exp=4, r2=2)
    assert rep.passed
    rep2 = classify_postsel_profile({"0": outside}, "aFP", f={"0": 3}, q_exp=4, r2=2)
    assert not rep2.passed
    assert (1 - eps) * target == inside


def test_profile_asize_window():
    rep = classify_postsel_profile(
        {"00": _p(3, 4), "10": _p(3, 4)}, "asize", f={2: 3}, q_exp=4, r2=3
    )
    assert rep.passed


def test_profile_exp_and_leexp():
    """P(p=1) == 2**-q_exp exactly is ``FP`` with f = 1; no profile of its own is left."""
    stats = {"0": _p(1, 3)}
    assert classify_postsel_profile(stats, "FP", f={"0": 1}, q_exp=3).passed
    assert not classify_postsel_profile(stats, "FP", f={"0": 1}, q_exp=2).passed
    assert not classify_postsel_profile(stats, "FP", f={"0": 1}, q_exp=4).passed
    # the one-sided P(p=1) >= 2**-q_exp profile is gone, and so is exp (FP with f = 1)
    for gone in ("leexp", "exp"):
        with pytest.raises(ValueError, match=f"unknown profile '{gone}'"):
            classify_postsel_profile(stats, gone, q_exp=3)


def test_profile_accepts_stats_objects():
    from postsel import PostselStats

    st = PostselStats(_p(1, 2), _p(1, 3))
    rep = classify_postsel_profile({"0": st}, "FP", f={"0": 1}, q_exp=2)
    assert rep.passed


def test_profile_unknown_kind():
    with pytest.raises(ValueError):
        classify_postsel_profile({}, "bogus")
