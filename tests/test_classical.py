"""Coin machines: exact counting, coupling, witness extraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from postsel import (
    CoinMachine,
    DyadicRational,
    MachineContractError,
    PredicateCircuit,
    PromiseViolation,
    StatsMismatch,
    ZeroPostselection,
    build_upcoup,
    check_wapp_witness,
    complement_machine,
    cx,
    eval_machine,
    gap,
    mcx,
    run_ptm,
    scale_gap,
    tabulated_count_machine,
    wapp_witness,
    x,
)
from postsel.scenarios import _point_machine, random_machine

# ===================================================================
# exact counting
# ===================================================================


def _below(coin_width: int, c: int) -> PredicateCircuit:
    """No instance bits; accepts iff the coins read below c."""
    return tabulated_count_machine({"": c}, 0, coin_width)


def test_run_ptm_threshold():
    # postselect iff coins < 10; output 1 iff coins < 9
    st = run_ptm(CoinMachine(_below(4, 10), _below(4, 9)), "")
    assert st.p_post == DyadicRational(10, 4)
    assert st.p_joint == DyadicRational(9, 4)
    assert st.p_cond == Fraction(9, 10)


def test_run_ptm_zero_coins_is_deterministic():
    # always postselect; output the instance bit
    always, copy_w = PredicateCircuit(1, 0, 0, (x(1),), 1), PredicateCircuit(1, 0, 0, (cx(0, 1),), 1)
    tm = CoinMachine(always, copy_w)
    assert run_ptm(tm, "1").p_cond == Fraction(1)
    assert run_ptm(tm, "0").p_cond == Fraction(0)


def test_run_ptm_never_postselecting_raises():
    with pytest.raises(ZeroPostselection):
        run_ptm(CoinMachine(_below(2, 0), _below(2, 0)), "")


def test_run_ptm_rejects_non_bits():
    """A machine emits only bits, so what is left to reject is a negative coin count."""
    with pytest.raises(ValueError):
        CoinMachine(_below(-1, 0), _below(-1, 0))


def test_coin_machine_rejects_mismatched_widths():
    """Bad widths are a broken machine contract, in the coin machine and in
    the coupling that builds one."""
    wide = PredicateCircuit(1, 2, 0, (), 3)  # one instance bit, where _below reads none
    with pytest.raises(MachineContractError, match="post and joint must read the same instance"):
        CoinMachine(wide, _below(2, 1))
    with pytest.raises(MachineContractError, match="post and joint must flip the same coins"):
        CoinMachine(_below(3, 1), _below(2, 1))
    with pytest.raises(MachineContractError, match="machines must read the same instance width"):
        build_upcoup(wide, _below(2, 1), "0")


def test_joint_accepting_more_than_post_raises():
    tm = CoinMachine(_below(2, 1), _below(2, 3))
    with pytest.raises(StatsMismatch, match=r"P\(p=1\) = 1/2\^2, P\(o=1, p=1\) = 3/2\^2"):
        run_ptm(tm, "")
    with pytest.raises(StatsMismatch, match="impossible record"):
        wapp_witness(tm, {"": 1}, 1)


@hst.composite
def _coin_pairs(draw):
    """(post, joint, w): random machines of one width, 0-2 instance bits and
    1-4 coins; None stands for the self-reading machine (0 bits, 2 coins)."""
    readers = draw(hst.sampled_from([(), ("post",), ("joint",), ("post", "joint")]))
    in_w, t = (0, 2) if readers else (draw(hst.integers(0, 2)), draw(hst.integers(1, 4)))

    def machine(role: str):
        if role in readers:
            return None
        return random_machine(random.Random(draw(hst.integers(0, 2**32))), in_w, t)

    w = "".join(draw(hst.sampled_from("01")) for _ in range(in_w))
    return machine("post"), machine("joint"), w


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_coin_pairs())
def test_run_ptm_matches_per_path_counts(self_reading_machine, case):
    """run_ptm against counts taken coin by coin with ``eval_machine``: the
    record holds them over 2**t, or refuses the pair no run can give."""
    post, joint = (m or self_reading_machine for m in case[:2])
    w, t = case[2], post.path_width
    n_post, n_joint = (sum(eval_machine(m, w, c) for c in range(1 << t)) for m in (post, joint))
    tm = CoinMachine(post, joint)
    if n_post == 0:
        with pytest.raises(ZeroPostselection):
            run_ptm(tm, w)
    elif n_joint > n_post:
        with pytest.raises(StatsMismatch):
            run_ptm(tm, w)
    else:
        st = run_ptm(tm, w)
        assert (st.p_post, st.p_joint) == (DyadicRational(n_post, t), DyadicRational(n_joint, t))


# ===================================================================
# unique-path coupling
# ===================================================================


def _never_machine(path_width: int, in_w: int = 1) -> PredicateCircuit:
    return tabulated_count_machine({}, in_w, path_width)


def test_upcoup_unique_path_statistics(self_reading_machine):
    q = 3
    tm = build_upcoup(_point_machine(1, q, 5), _never_machine(q), "1")
    st = run_ptm(tm, "1")
    assert st.p_post == DyadicRational(1, q)  # exactly 2**-q
    assert st.p_cond == Fraction(1)  # the first machine owns the path
    tm2 = build_upcoup(_never_machine(q), _point_machine(1, q, 5), "0")
    st2 = run_ptm(tm2, "0")
    assert st2.p_post == DyadicRational(1, q)
    assert st2.p_cond == Fraction(0)
    # the self-reading machine owns path 11 of two
    never = _never_machine(2, in_w=0)
    st = run_ptm(build_upcoup(self_reading_machine, never, ""), "")
    assert (st.p_post, st.p_cond) == (DyadicRational(1, 2), Fraction(1))
    st = run_ptm(build_upcoup(never, self_reading_machine, ""), "")
    assert (st.p_post, st.p_cond) == (DyadicRational(1, 2), Fraction(0))


def test_upcoup_exhaustive_over_path_owners():
    for q in (1, 2, 3):
        for owner in range(1 << q):
            tm = build_upcoup(_point_machine(1, q, owner), _never_machine(q), "0")
            st = run_ptm(tm, "0")
            assert st.p_post == DyadicRational(1, q)
            assert st.p_cond in (Fraction(0), Fraction(1))


def test_upcoup_promise_violations_raise_eagerly():
    q = 2
    with pytest.raises(PromiseViolation):
        build_upcoup(_never_machine(q), _never_machine(q), "0")  # zero accepts
    with pytest.raises(PromiseViolation):
        build_upcoup(_point_machine(1, q, 1), _point_machine(1, q, 2), "0")  # two accepts
    with pytest.raises(MachineContractError, match="machines must share a path width"):
        build_upcoup(_never_machine(2), _never_machine(3), "0")  # width mismatch

def _wrap(core: PredicateCircuit, ctls, negs) -> PredicateCircuit:
    """Accept iff the bits ``ctls`` match ``negs`` (True for 0), read between
    ``core``'s forward pass and its undoing; core's scratch and accept bits
    become this machine's scratch."""
    acc = core.total_bits
    gates = core.gates + (mcx(ctls, acc, negs),) + tuple(reversed(core.gates))
    return PredicateCircuit(core.input_width, core.path_width, core.ancilla_count + 1, gates, acc)


@hst.composite
def _promise_pairs(draw):
    """(n, m, w): two machines with scratch bits and one accepting path between
    them on w.  Each reads a scaled random core; the owner accepts path j on w,
    the other accepts there only if its core does, which it does not.  So the
    other's silence hangs on its scratch starting clean."""
    in_w, q = draw(hst.integers(1, 2)), draw(hst.integers(1, 4))
    w = "".join(draw(hst.sampled_from("01")) for _ in range(in_w))
    j = draw(hst.integers(0, (1 << q) - 1))

    def core() -> PredicateCircuit:
        extra = draw(hst.integers(0, q - 1))
        c = draw(hst.integers((1 << extra >> 1) + 1, 1 << extra))  # scale_gap adds `extra` bits
        rng = random.Random(draw(hst.integers(0, 2**32)))
        return scale_gap(random_machine(rng, in_w, q - extra), c)

    data = list(range(in_w + q))
    pattern = [b == "0" for b in w] + [not (j >> i) & 1 for i in range(q)]
    owner = _wrap(core(), data, pattern)
    other = core()
    if eval_machine(other, w, j):
        other = complement_machine(other)
    never = _wrap(other, data + [other.accept_index], pattern + [False])
    return (owner, never, w) if draw(hst.booleans()) else (never, owner, w)


@settings(max_examples=200, deadline=None)
@given(_promise_pairs())
def test_upcoup_matches_per_path_reference(case):
    n, m, w = case
    tm = build_upcoup(n, m, w)
    # the machines take turns on one scratch block, with the flag past both
    assert tm.post.total_bits == max(n.total_bits, m.total_bits) + 1
    try:
        gap(tm.post, w)
    except MachineContractError:
        pytest.fail("the coupled post machine broke the machine contract")
    for coin in range(1 << n.path_width):
        first = eval_machine(n, w, coin)
        assert eval_machine(tm.post, w, coin) == (first or eval_machine(m, w, coin))
        assert eval_machine(tm.joint, w, coin) == first


# ===================================================================
# witness extraction
# ===================================================================

# 4 coins; on both instances post iff coins < 12, declared as 12 == 6 * 2**(4-3);
# output iff coins < 11 on w="1" and iff coins < 2 on w="0"
_FP, _S = {"1": 6, "0": 6}, 3


def _declared_tm() -> CoinMachine:
    return CoinMachine(
        tabulated_count_machine({"1": 12, "0": 12}, 1, 4),
        tabulated_count_machine({"1": 11, "0": 2}, 1, 4),
    )


def test_wapp_witness_ratio_reproduces_conditional():
    tm = _declared_tm()
    wit = wapp_witness(tm, _FP, _S)
    assert wit.p_exp == 1
    for w in ("0", "1"):
        assert wit.ratio(w) == run_ptm(tm, w).p_cond
    assert wit.ratio("1") == Fraction(11, 12)
    assert wit.ratio("0") == Fraction(2, 12)


def test_wapp_witness_is_a_counting_machine():
    tm = _declared_tm()
    wit = wapp_witness(tm, _FP, _S)
    assert wit.g_machine is tm.joint
    assert gap(wit.g_machine, "1").accepts == 11
    assert gap(wit.g_machine, "0").accepts == 2


def test_wapp_witness_requires_declarations():
    with pytest.raises(ValueError):
        wapp_witness(CoinMachine(_below(2, 4), _below(2, 4)), {}, 0)
    with pytest.raises(ValueError):
        wapp_witness(_declared_tm(), {}, _S)


def test_wapp_witness_checks_declared_postselection():
    with pytest.raises(StatsMismatch):
        wapp_witness(_declared_tm(), {"1": 5, "0": 6}, _S)  # 5 * 2 != 12


def test_wapp_witness_refuses_a_numerator_below_one():
    """A declared f(w) < 1 would make the witness ratio divide by zero or go
    negative.  A machine that never postselects is refused by its record; one
    that does cannot match f(w) <= 0."""
    never = CoinMachine(_below(1, 0), _below(1, 0))
    for f in (0, -1):
        with pytest.raises(ZeroPostselection):
            wapp_witness(never, {"": f}, 1)
    half = CoinMachine(_below(1, 1), _below(1, 1))
    for f in (0, -1):
        with pytest.raises(StatsMismatch, match=f"declaration says {f}/2\\^"):
            wapp_witness(half, {"": f}, 1)


def test_wapp_witness_rejects_mixed_lengths():
    with pytest.raises(MachineContractError):
        wapp_witness(_declared_tm(), {"1": 6, "00": 6}, _S)


def test_wapp_witness_rejects_oversized_denominator():
    for s in (9, -1):  # 2**s must lie in 2**0 .. 2**t
        with pytest.raises(ValueError, match=f"2\\*\\*{s} is outside"):
            wapp_witness(_declared_tm(), _FP, s)


def test_wapp_witness_ratio_rejects_an_undeclared_instance():
    wit = wapp_witness(_declared_tm(), {"1": 6}, _S)
    assert wit.ratio("1") == Fraction(11, 12)
    with pytest.raises(ValueError, match="'0' is not declared"):
        wit.ratio("0")


@pytest.mark.parametrize("eps", [0.25, "1/4", None])
def test_wapp_witness_rejects_an_inexact_epsilon(eps):
    """The margin enters only at the threshold check, which takes it exactly."""
    wit = wapp_witness(_declared_tm(), _FP, _S)
    with pytest.raises(ValueError, match="exact rational"):
        check_wapp_witness({"1": wit.ratio("1")}, {"1": True}, eps)
