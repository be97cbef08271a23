"""Sparse exact simulator: known states, invariants, caps, postselection,
and the differential harness on circuits up to 63 qubits wide."""

import random
import re

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings

from postsel import planes, simulator
from postsel import (
    BadArgument,
    CapExceeded,
    Circuit,
    DyadicRational,
    InsufficientAncillas,
    MachineContractError,
    PostselStats,
    StatsMismatch,
    ZeroPostselection,
    ccx,
    cx,
    expand_mcx,
    gap,
    h,
    joint_prob,
    make_gap_machine,
    mcx,
    measure_prob,
    path_sum,
    postselect_stats,
    run,
    x,
)
from postsel.pathsum import DEFAULT_MAX_BRANCH
from postsel.scenarios import random_circuit

from engine_harness import check_engines, circuits

# ===================================================================
# known small states
# ===================================================================


def test_single_hadamard_is_uniform():
    st = run(Circuit(1, (h(0),), 0), "0")
    assert st.m == 1
    assert [st.amplitude(z) for z in range(2)] == [(1, 1), (1, 1)]  # 1/sqrt2 each
    assert measure_prob(st, 0, 1) == DyadicRational(1, 1)


def test_hh_is_identity():
    st = run(Circuit(1, (h(0), h(0)), 0), "0")
    assert st.amplitude(0) == (2, 2)  # 2/sqrt2**2 == 1
    assert st.amplitude(1) == (0, 2)  # off the support: the paths cancelled
    # the cancelled |1> is dropped
    assert (st.n, st.indices.tolist(), st.coeffs.tolist(), st.m) == (1, [0], [2], 2)


def test_hh_from_one_interferes_back():
    st = run(Circuit(1, (h(0), h(0)), 0), "1")
    assert (st.n, st.indices.tolist(), st.coeffs.tolist(), st.m) == (1, [1], [2], 2)


def test_bell_pair():
    st = run(Circuit(2, (h(0), cx(0, 1)), 0), "00")
    assert st.m == 1
    # (|00> + |11>)/sqrt2
    assert [st.amplitude(z) for z in range(4)] == [(1, 1), (0, 1), (0, 1), (1, 1)]
    assert measure_prob(st, 0, 1) == DyadicRational(1, 1)
    assert joint_prob(st, [(0, 1), (1, 0)]) == DyadicRational(0, 0)
    assert joint_prob(st, [(0, 1), (1, 1)]) == DyadicRational(1, 1)


def test_x_and_negated_control():
    st = run(Circuit(2, (x(0), cx(0, 1, neg=True)), 0), "00")
    assert (st.indices.tolist(), st.coeffs.tolist()) == ([0b01], [1])  # (q1 q0); no fire on 1
    st = run(Circuit(2, (cx(0, 1, neg=True),), 0), "00")
    assert (st.indices.tolist(), st.coeffs.tolist()) == ([0b10], [1])  # fires on 0


def test_ccx_only_on_11():
    c = Circuit(3, (ccx(0, 1, 2),), 0)
    for z0 in range(8):
        st = run(c, format(z0, "03b")[::-1])
        expect = z0 ^ (0b100 if (z0 & 0b11) == 0b11 else 0)
        assert (st.indices.tolist(), st.coeffs.tolist()) == ([expect], [1])


# ===================================================================
# invariants
# ===================================================================


def test_norm_invariant_sum_of_squares_is_2_to_m():
    """Unitarity in integer form: sum(coeffs**2) == 2**m after every run, so
    joint_prob with no constraint is 1."""
    rng = random.Random(3)
    for _ in range(60):
        c, bits = random_circuit(rng, allow_mcx=rng.random() < 0.5)
        st = run(c, bits)
        assert st.m == c.h_count
        assert joint_prob(st, []) == DyadicRational(1, 0)
        assert sum(v * v for v in st.coeffs.tolist()) == 1 << st.m


def test_marginals_sum_to_one():
    rng = random.Random(4)
    for _ in range(30):
        c, bits = random_circuit(rng, allow_mcx=rng.random() < 0.5)
        st = run(c, bits)
        for q in range(c.width):
            total = measure_prob(st, q, 0).as_fraction() + measure_prob(st, q, 1).as_fraction()
            assert total == Fraction(1)


# ===================================================================
# the differential harness: run, path_sum and path_sum_slow against the
# dict reference
# ===================================================================

# supports of 5 and 7 on wires 0-2, and of 9 and 13 on wires 3-6: side by side
# they multiply, to 63 = 7 * 9 and 65 = 5 * 13 entries
_SUPPORT_5 = (h(1), h(0), ccx(0, 1, 2, False, True), h(1))
_SUPPORT_7 = (h(0), h(1), ccx(0, 1, 2, False, True), h(0), ccx(0, 2, 1), h(0),
              cx(0, 1, neg=True))
_SUPPORT_9 = (h(3), h(6), cx(6, 4, neg=True), cx(4, 3), ccx(3, 6, 5), h(3),
              ccx(5, 3, 6, True, True), h(5), ccx(5, 6, 4, False, True), h(6), ccx(6, 3, 5))
_SUPPORT_13 = (h(3), ccx(4, 6, 5, False, True), h(4), h(6), ccx(6, 4, 5, True, False),
               ccx(3, 5, 6, False, True), ccx(5, 4, 3, True, False), h(5))
_H62 = tuple(h(q) for _ in range(31) for q in (0, 1))  # 62 Hadamards that cancel pairwise


@settings(max_examples=50, deadline=None)
@given(circuits(widths=(2, 8)))
def test_sparse_run_matches_path_sums_and_dense_reference(case):
    """check_engines on widths 2-8, with mcx lowered on declared ancillas:
    run against the dict reference (the one reference for run, which took
    the place of the dense one) and against path_sum and path_sum_slow."""
    check_engines(*case)


@settings(max_examples=50, deadline=None)
@given(circuits())
# support of 1: no Hadamard, gates on wires in index bytes 1, 5 and 7
@example((Circuit(63, (x(62), cx(62, 40), ccx(40, 62, 9), cx(9, 0, neg=True)), 0), "0" * 63, []))
# a run over 5 live entries, not a multiple of 8, with negated controls on wires 9 and 62
@example((Circuit(63, (h(9), h(62), ccx(9, 62, 40, True), h(9), cx(62, 40, neg=True),
                       ccx(9, 40, 62, True)), 0), "0" * 63, []))
# a run whose x, cx and ccx each fire twice: every target ends where it began
@example((Circuit(63, (h(40), h(17), x(62), x(62), cx(40, 9), cx(40, 9),
                       ccx(17, 40, 62), ccx(17, 40, 62)), 0), "1" * 63, []))
# width 1: runs on the only wire, before and after an H
@example((Circuit(1, (x(0), h(0), x(0)), 0), "1", []))
def test_wide_runs_match_dict_reference(case):
    """check_engines on widths 1-63, the top often, so that wire 62 and
    index bytes 1-7 are reached."""
    check_engines(*case)


@settings(max_examples=50, deadline=None)
@given(circuits())
# supports of 128 (the last H is on a varying wire, yet no two entries meet) and of
# 64 (branches only, every one on an all-ones wire)
@example((Circuit(8, (*map(h, range(6)), ccx(0, 1, 6), h(6)), 0), "0" * 8, []))
@example((Circuit(63, tuple(map(h, (0, 9, 17, 40, 55, 62))), 0), "1" * 63, []))
# supports of 63 and 65, and of 5 alone
@example((Circuit(7, _SUPPORT_7 + _SUPPORT_9, 0), "0" * 7, []))
@example((Circuit(7, _SUPPORT_5 + _SUPPORT_13, 0), "0" * 7, []))
@example((Circuit(3, _SUPPORT_5, 0), "000", []))
# H on an all-ones wire: the new half is negated
@example((Circuit(4, (h(0), x(3), cx(0, 2), h(3), h(1)), 0), "0000", []))
@example((Circuit(2, (h(1),), 0), "11", []))
# merges that cancel entries: HH on a wire, and H on a wire entangled with another
@example((Circuit(3, (h(0), h(1), h(0), h(1)), 0), "010", []))
@example((Circuit(3, (h(0), cx(0, 1), h(0), h(1)), 0), "000", []))
# coefficients written out from a sign plane at the one merge, at the end:
# after a branch on an all-ones wire, and after Hadamards that branch on
# fresh or all-ones wires once entries may meet
@example((Circuit(2, (h(0), h(1), h(0)), 0), "01", []))
@example((Circuit(4, _SUPPORT_5 + (h(3), h(0)), 0), "0001", []))
@example((Circuit(5, _SUPPORT_5 + (h(3), h(4)), 0), "00010", []))
# more than 60 Hadamards: object-dtype coefficients, 62 of them merging
@example((Circuit(3, _H62 + (h(2), cx(2, 0)), 0), "100", []))
# one entry with coefficient 2 at m = 2: n == 1 < 2**m, though the state is a basis state
@example((Circuit(1, (h(0), h(0)), 0), "0", []))
def test_branch_and_merge_match_dict_reference(case):
    """check_engines where Hadamards branch on fresh and all-ones wires and
    merge on varying ones: run's state read every way, and path_sum and
    path_sum_slow, against the per-index dict reference."""
    check_engines(*case)


@settings(max_examples=50, deadline=None)
@given(circuits(widths=(2, 8)))
# _SUPPORT_5's 5 coefficients, 2 of them +-2, then branches on wires at 1:
# one merge at the end sums them under the sign plane, and at _FLOOR = 1 a
# merge before the branches leaves a tiled short array under a sign plane
# (test_run_is_the_same_whenever_it_merges)
@example((Circuit(5, _SUPPORT_5 + (h(3), h(4)), 0), "00011",
          [[(0, 0)], [(1, 1), (3, 0)], [(2, 1), (4, 1)], [(0, 1), (1, 0)]]))
# more than 60 Hadamards, 62 of them merging, then a branch, alone or followed
# by reversible gates and Hadamards that merge: object dtype
@example((Circuit(3, _H62 + (h(2),), 0), "001", [[(0, 0)], [(2, 1)], [(1, 0), (2, 0)]]))
@example((Circuit(4, _H62 + (h(0), ccx(0, 1, 3, True), h(2), cx(3, 2, neg=True), h(3),
                             ccx(2, 3, 1, True), h(1)), 2, 3), "0110", [[(2, 1), (3, 1)]]))
def test_branch_form_matches_its_written_out_entries(case):
    """check_engines on widths 2-8, whose spare wires at 1 take the last
    Hadamards, so run returns a nonzero sign plane unless entries meet and
    its last merge clears it: the branch form, and the same state tiled to
    full length, answer as their written-out entries do, before and after
    coeffs is first read."""
    check_engines(*case)


# ===================================================================
# when run merges: at _FLOOR entries and at twice the last merge's,
# past the support cap, and at the end
# ===================================================================

_W = planes._FLOOR.bit_length()  # an H layer on _W wires leaves 2 * _FLOOR entries


def _entries(st) -> dict[int, int]:
    return dict(zip(st.indices.tolist(), st.coeffs.tolist()))


@settings(max_examples=50, deadline=None)
@given(circuits())
# the support passes _FLOOR before an H on a varying wire: merges mid-run at
# 4 * _FLOOR, 2 * _FLOOR and _FLOOR entries, each halving the support; the
# last H then leaves _FLOOR / 2 entries, pairs of which meet only at the end
@example((Circuit(_W + 1, (*map(h, range(_W)), h(0), h(1), h(2), ccx(4, 5, 0), h(3)), 0),
          "0" * (_W + 1), [[(0, 0)], [(3, 1), (4, 1)], [(1, 0), (_W - 1, 1)]]))
# at _FLOOR = 1, coefficients written out from a short array and a sign
# plane: mid-run, after a branch on an all-ones wire; tiled from the 5 merged
# ones, then merged again; and a short array of 5 under a sign plane at the
# end, as the last Hadamards branch on wires at 1 after a merge
@example((Circuit(2, (h(0), h(1), h(0)), 0), "01", []))
@example((Circuit(4, _SUPPORT_5 + (h(3), h(0)), 0), "0001", []))
@example((Circuit(5, _SUPPORT_5 + (h(3), h(4)), 0), "00011",
          [[(0, 0)], [(1, 1), (3, 0)], [(2, 1), (4, 1)], [(0, 1), (1, 0)]]))
def test_run_is_the_same_whenever_it_merges(case):
    """run at _FLOOR = 1, merging after every H on a varying wire, passes
    check_engines and lists the same entries and probabilities as run at
    the default _FLOOR, which on these draws (at most 10 Hadamards) merges
    once, at the end; both match path_sum."""
    circuit, bits, constraints = case
    lazy = run(circuit, bits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planes, "_FLOOR", 1)
        eager = run(circuit, bits)
        check_engines(circuit, bits, constraints)
    assert _entries(eager) == _entries(lazy)
    for pins in [[]] + constraints:
        p = joint_prob(lazy, pins)
        assert joint_prob(eager, pins) == p
        if circuit.h_count <= DEFAULT_MAX_BRANCH:
            assert DyadicRational(*path_sum(circuit, bits, pins)) == p


def test_queries_leave_a_branch_only_state_unwritten():
    """After an H layer, joint_prob (by popcount, and by counts per short
    coefficient; with no constraint too), measure_prob and amplitude read the
    branch form: no n-entry coefficient array or index array is built, nor,
    before any merge, the one-entry short array."""
    assert 1 << 2 <= planes._FLOOR <= 1 << 18  # where the sizes below hold
    layer = tuple(map(h, range(1, 17)))
    for gates, bits, amp, size in (
        (layer, "0" * 17, (1, 16), 1),  # every |coeff| is 1: popcount
        # coefficient 2 at m = 2, then branches on wires at 1: qubit 1 set is
        # -2.  The two H(0)s meet at the first merge, at _FLOOR entries, which
        # it sums in fours; the layer's last Hadamards then only branch.
        ((h(0), h(0)) + layer, "0" + "1" * 16, (-2, 18), planes._FLOOR >> 2),
    ):
        st = run(Circuit(17, gates, 0), bits)
        assert joint_prob(st, [(1, 1), (16, 0)]) == DyadicRational(1, 2)
        assert measure_prob(st, 16, 1) == DyadicRational(1, 1)
        assert st.amplitude(0b10) == amp
        assert joint_prob(st, []) == DyadicRational(1, 0)
        assert {"coeffs", "indices", "short"}.isdisjoint(vars(st))
        assert (st.short.size, st.n) == (size, 1 << 16)


def test_object_dtype_fallback_for_many_hadamards():
    """More than 60 h gates switches to Python-int coefficients, still exact;
    circuits mixing them with other gates are examples of the harness test."""
    c = Circuit(2, _H62 + (h(0),), 0)
    assert c.h_count == 63
    st = run(c, "00")
    assert st.coeffs.dtype == object
    assert sum(v * v for v in st.coeffs.tolist()) == 1 << 63
    assert joint_prob(st, []) == DyadicRational(1, 0)
    # qubit 0 saw 32 h's (identity), qubit 1 saw 31 (one net h); 62 of the 63
    # branchings cancel pairwise, so each coefficient is 2**31 at m = 63
    assert (st.n, st.indices.tolist(), st.m) == (2, [0b00, 0b10], 63)
    assert st.coeffs.tolist() == [1 << 31, 1 << 31]


def test_repr_of_a_large_state_is_short():
    """The planes (2**16-bit ints here) stay out of repr, which pytest and
    Hypothesis call on failure: int's str limit would make it raise."""
    st = run(Circuit(16, tuple(map(h, range(16))), 0), "0" * 16)
    assert st.coeffs.size == 1 << 16
    assert len(repr(st)) < 1000


@pytest.mark.parametrize("z", ["1", 1.0, np.float64(1), True, None, 4, -1, 1 << 70])
def test_amplitude_rejects_non_basis_states(z):
    st = run(Circuit(2, (h(0),), 0), "11")
    with pytest.raises(ValueError, match="basis state"):
        st.amplitude(z)


def test_amplitude_reads_every_basis_state():
    st = run(Circuit(2, (h(0),), 0), "11")  # (|10> - |11>)/sqrt2 as (q1 q0)
    assert [st.amplitude(z) for z in range(4)] == [(0, 1), (0, 1), (1, 1), (-1, 1)]
    assert st.amplitude(np.int64(3)) == (-1, 1)


def test_int64_path_for_few_hadamards():
    st = run(Circuit(2, (h(0), h(1)), 0), "00")
    assert st.coeffs.dtype == np.int64


# ===================================================================
# guard rails
# ===================================================================


def test_support_cap(monkeypatch):
    """DEFAULT_MAX_SUPPORT bounds the live support after every h, not the width."""
    c = Circuit(4, (h(0), h(1), h(2), h(3)), 0)
    monkeypatch.setattr(simulator, "DEFAULT_MAX_SUPPORT", 16)
    assert run(c, "0000").coeffs.size == 16
    monkeypatch.setattr(simulator, "DEFAULT_MAX_SUPPORT", 15)
    with pytest.raises(CapExceeded, match="support"):
        run(c, "0000")
    # the cap applies after the merge: the last h pairs 4 entries into 2
    monkeypatch.setattr(simulator, "DEFAULT_MAX_SUPPORT", 4)
    merged = run(Circuit(2, (h(0), h(1), h(0)), 0), "00")
    assert sorted(merged.indices.tolist()) == [0, 2]
    # a support past the cap merges there, long before _FLOOR: 16 entries sum
    # to 4 at the fourth h and 16 to 1 at the sixth; entries that do not meet
    # still raise
    twice = Circuit(3, tuple(map(h, range(3))) * 2, 0)
    monkeypatch.setattr(simulator, "DEFAULT_MAX_SUPPORT", 8)
    assert _entries(run(twice, "000")) == {0: 8}
    monkeypatch.setattr(simulator, "DEFAULT_MAX_SUPPORT", 7)
    with pytest.raises(CapExceeded, match="live support 8 exceeds cap 7 at h 2"):
        run(twice, "000")
    # width alone costs nothing: 40 qubits with two live entries
    wide = run(Circuit(40, (h(0), cx(0, 39)), 0), "0" * 40)
    assert sorted(wide.indices.tolist()) == [0, 1 | 1 << 39]


def test_width_limit_is_63_qubits_on_both_engines():
    ok = Circuit(63, (h(0), x(62), cx(62, 61)), 0)
    st = run(ok, "0" * 63)
    assert joint_prob(st, [(0, 1), (61, 1)]) == DyadicRational(1, 1)
    assert path_sum(ok, "0" * 63, [(0, 1), (61, 1)]) == (1, 1)
    wide = Circuit(64, (h(0), x(63)), 0)
    with pytest.raises(CapExceeded, match="63-qubit"):
        run(wide, "0" * 64)
    with pytest.raises(CapExceeded, match="63-qubit"):
        path_sum(wide, "0" * 64, [(0, 1)])


@settings(max_examples=50, deadline=None)
@given(circuits(widths=(4, 12)))
# negated controls; the borrowed wire holds 1
@example((Circuit(6, (h(0), h(2), mcx([0, 1, 2], 3, [False, True, True])), 3, 0,
                  ((4, 1), (5, 0))), "000010", [[(3, 1), (0, 1)]]))
def test_run_lowers_mcx_like_expand_mcx(case):
    """run lowers mcx itself: the same state as on the circuit expand_mcx
    returns, and, by check_engines, the dict reference's on the unlowered
    circuit, where mcx acts whole."""
    circuit, bits, _ = case
    a, b = run(circuit, bits), run(expand_mcx(circuit), bits)
    assert (a.n, a.indices.tolist(), a.coeffs.tolist(), a.m) == (
        b.n, b.indices.tolist(), b.coeffs.tolist(), b.m)
    check_engines(*case)


def test_run_raises_when_the_ancilla_pool_is_short():
    c = Circuit(6, (mcx([0, 1, 2, 3], 4),), 4, ancillas=((5, 0),))
    with pytest.raises(InsufficientAncillas, match="needs 2 ancillas"):
        run(c, "000000")


def test_rejects_input_contradicting_ancilla():
    c = Circuit(2, (), 0, ancillas=((1, 1),))
    with pytest.raises(ValueError, match="ancilla"):
        run(c, "00")
    run(c, "01")


def test_rejects_bad_bits():
    with pytest.raises(ValueError):
        run(Circuit(2, (), 0), "0")
    with pytest.raises(ValueError):
        run(Circuit(2, (), 0), "0z")
    for bits in (5, None, {"1", "0"}, frozenset("01"), {0: "1", 1: "0"}):
        with pytest.raises(ValueError, match="bits must be a sequence"):
            run(Circuit(2, (), 0), bits)
    with pytest.raises(MachineContractError, match="bits must be a sequence"):
        gap(make_gap_machine(2, 2), 5)
    # a bit is "0", "1" or an integer 0/1: 1.0 and True equal 1, but are neither
    for bit in (1.0, True):
        with pytest.raises(BadArgument, match=f"^bit must be an integer, got {bit}$"):
            run(Circuit(2, (), 0), [bit, 0])
    assert measure_prob(run(Circuit(2, (), 0), [np.int64(1), 0]), 0, 1) == DyadicRational(1, 0)


# ===================================================================
# postselection statistics
# ===================================================================


def test_postselect_stats_bell():
    c = Circuit(2, (h(0), cx(0, 1)), output=1, postselect=0)
    st = postselect_stats(c, "00")
    assert st.p_post == DyadicRational(1, 1)
    assert st.p_joint == DyadicRational(1, 1)
    assert st.p_cond == Fraction(1)


def test_postselect_stats_conditional_is_exact_fraction():
    # p ~ uniform on 2 coins; o = AND of the coins; P(o|p) needs thirds.
    c = Circuit(
        4,
        (h(0), h(1), ccx(0, 1, 2), cx(0, 3), cx(1, 3), ccx(0, 1, 3)),
        output=2,
        postselect=3,  # p == OR of the coins
    )
    st = postselect_stats(c, "0000")
    assert st.p_post == DyadicRational(3, 2)
    assert st.p_joint == DyadicRational(1, 2)
    assert st.p_cond == Fraction(1, 3)


def test_postselect_stats_zero_raises():
    c = Circuit(2, (), output=0, postselect=1)
    with pytest.raises(ZeroPostselection, match=r"^P\(postselect=1\) is exactly zero$"):
        postselect_stats(c, "00")
    # the record itself refuses P(p=1) = 0, whichever engine built it
    with pytest.raises(ZeroPostselection, match=r"^P\(postselect=1\) is exactly zero$"):
        PostselStats(DyadicRational(0, 0), DyadicRational(0, 0))


def test_postsel_stats_refuses_an_impossible_pair():
    """Only 0 <= P(o=1, p=1) <= P(p=1) <= 1 is a record; the message names both."""
    for post, joint in [((1, 1), (3, 1)), ((1, 1), (-1, 1)), ((3, 1), (1, 1)), ((-1, 1), (0, 0))]:
        p_post, p_joint = DyadicRational(*post), DyadicRational(*joint)
        names = re.escape(f"P(p=1) = {p_post}, P(o=1, p=1) = {p_joint}")
        with pytest.raises(StatsMismatch, match=names + "$"):
            PostselStats(p_post, p_joint)
    # the bounds themselves make a record, over mixed denominators too
    assert PostselStats(DyadicRational(1, 0), DyadicRational(3, 2)).p_cond == Fraction(3, 4)
    assert PostselStats(DyadicRational(1, 2), DyadicRational(2, 3)).p_cond == Fraction(1)


def test_postselect_stats_requires_postselect_qubit():
    with pytest.raises(ValueError):
        postselect_stats(Circuit(2, (), 0), "00")


def test_joint_prob_conflicting_constraints_is_zero():
    st = run(Circuit(2, (h(0),), 0), "00")
    assert joint_prob(st, [(0, 0), (0, 1)]) == DyadicRational(0, 0)
    assert joint_prob(st, [(0, 1), (0, 1)]) == DyadicRational(1, 1)
