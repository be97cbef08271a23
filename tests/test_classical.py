"""Coin-flipping machines: exact enumeration, coupling, witness extraction."""

from fractions import Fraction

import pytest

from postsel import (
    DyadicRational,
    PromiseViolation,
    ProbTM,
    StatsMismatch,
    ZeroPostselection,
    build_upcoup,
    gap,
    make_gap_machine,
    run_ptm,
    tabulated_count_machine,
    wapp_witness,
)

# ===================================================================
# exact enumeration
# ===================================================================


def _threshold_tm(coin_width: int, f_post: int, f_out: int) -> ProbTM:
    """Postselect iff coins < f_post; output 1 iff coins < f_out."""

    def evaluate(w: str, coins: int) -> tuple[int, int]:
        return int(coins < f_post), int(coins < f_out)

    return ProbTM(coin_width, evaluate)


def test_run_ptm_threshold():
    st = run_ptm(_threshold_tm(4, 10, 9), "")
    assert st.p_post == DyadicRational(10, 4)
    assert st.p_joint == DyadicRational(9, 4)
    assert st.p_cond == Fraction(9, 10)


def test_run_ptm_zero_coins_is_deterministic():
    tm = ProbTM(0, lambda w, c: (1, int(w == "1")))
    assert run_ptm(tm, "1").p_cond == Fraction(1)
    assert run_ptm(tm, "0").p_cond == Fraction(0)


def test_run_ptm_never_postselecting_raises():
    with pytest.raises(ZeroPostselection):
        run_ptm(ProbTM(2, lambda w, c: (0, 1)), "")


def test_run_ptm_rejects_non_bits():
    with pytest.raises(ValueError):
        run_ptm(ProbTM(1, lambda w, c: (2, 0)), "")
    with pytest.raises(ValueError):
        ProbTM(-1, lambda w, c: (1, 1))


# ===================================================================
# unique-path coupling
# ===================================================================


def _unique_path_machine(path_width: int, the_path: int, in_w: int = 1) -> "PredicateCircuit":
    """Accept exactly ``the_path``, whatever the instance says."""
    from postsel import PredicateCircuit, mcx

    accept = in_w + path_width
    ctls = list(range(in_w, accept))
    negs = [not ((the_path >> i) & 1) for i in range(path_width)]
    return PredicateCircuit(in_w, path_width, 0, (mcx(ctls, accept, negs),), accept)


def _never_machine(path_width: int, in_w: int = 1) -> "PredicateCircuit":
    from postsel import PredicateCircuit

    return PredicateCircuit(in_w, path_width, 0, (), in_w + path_width)


def test_upcoup_unique_path_statistics():
    q = 3
    tm = build_upcoup(_unique_path_machine(q, 5), _never_machine(q), "1")
    st = run_ptm(tm, "1")
    assert st.p_post == DyadicRational(1, q)  # exactly 2**-q
    assert st.p_cond == Fraction(1)  # the first machine owns the path
    tm2 = build_upcoup(_never_machine(q), _unique_path_machine(q, 5), "0")
    st2 = run_ptm(tm2, "0")
    assert st2.p_post == DyadicRational(1, q)
    assert st2.p_cond == Fraction(0)


def test_upcoup_exhaustive_over_path_owners():
    for q in (1, 2, 3):
        for owner in range(1 << q):
            tm = build_upcoup(_unique_path_machine(q, owner), _never_machine(q), "0")
            st = run_ptm(tm, "0")
            assert st.p_post == DyadicRational(1, q)
            assert st.p_cond in (Fraction(0), Fraction(1))


def test_upcoup_promise_violations_raise_eagerly():
    q = 2
    with pytest.raises(PromiseViolation):
        build_upcoup(_never_machine(q), _never_machine(q), "0")  # zero accepts
    with pytest.raises(PromiseViolation):
        build_upcoup(
            _unique_path_machine(q, 1), _unique_path_machine(q, 2), "0"
        )  # two accepts
    with pytest.raises(ValueError):
        build_upcoup(_never_machine(2), _never_machine(3), "0")  # width mismatch


# ===================================================================
# witness extraction
# ===================================================================


def _declared_tm() -> ProbTM:
    # 4 coins; on w="1": post iff coins < 12, out iff coins < 11
    # on w="0": post iff coins < 12, out iff coins < 2
    def evaluate(w: str, coins: int) -> tuple[int, int]:
        cut = 11 if w == "1" else 2
        return int(coins < 12), int(coins < cut)

    return ProbTM(
        4,
        evaluate,
        fp_numerators={"1": 6, "0": 6},  # 12 == 6 * 2**(4-3)
        fp_exponent=3,
        epsilon=Fraction(1, 4),
        instances={"1": True, "0": False},
    )


def test_wapp_witness_ratio_reproduces_conditional():
    tm = _declared_tm()
    wit = wapp_witness(tm)
    assert wit.p_exp == 1
    for w in ("0", "1"):
        assert wit.ratio(w) == run_ptm(tm, w).p_cond
    assert wit.ratio("1") == Fraction(11, 12)
    assert wit.ratio("0") == Fraction(2, 12)


def test_wapp_witness_is_a_counting_machine():
    wit = wapp_witness(_declared_tm())
    assert gap(wit.g_machine, "1").accepts == 11
    assert gap(wit.g_machine, "0").accepts == 2


def test_wapp_witness_requires_declarations():
    with pytest.raises(ValueError):
        wapp_witness(ProbTM(2, lambda w, c: (1, 1)))
    tm = _declared_tm()
    tm.instances = {}
    with pytest.raises(ValueError):
        wapp_witness(tm)


def test_wapp_witness_checks_declared_postselection():
    tm = _declared_tm()
    tm.fp_numerators = {"1": 5, "0": 6}  # 5 * 2 != 12
    with pytest.raises(StatsMismatch):
        wapp_witness(tm)


def test_wapp_witness_rejects_mixed_lengths():
    tm = _declared_tm()
    tm.instances = {"1": True, "00": False}
    tm.fp_numerators = {"1": 6, "00": 6}
    with pytest.raises(ValueError):
        wapp_witness(tm)


@pytest.mark.parametrize("bad", [2, 3])
def test_wapp_witness_rejects_non_bit_outputs_like_run_ptm(bad):
    tm = _declared_tm()
    tm.evaluate = lambda w, coins: (int(coins < 12), bad * int(coins < 2))
    with pytest.raises(ValueError, match="bit pairs"):
        run_ptm(tm, "0")
    with pytest.raises(ValueError, match="bit pairs"):
        wapp_witness(tm)


def test_wapp_witness_rejects_oversized_denominator():
    tm = _declared_tm()
    tm.fp_exponent = 9
    with pytest.raises(ValueError):
        wapp_witness(tm)
