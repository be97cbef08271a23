"""Acceptance gate: one exact check per required capability.

Each test prints a single ``[pass]``/``[FAIL]`` line naming its criterion;
run with ``pytest -s tests/test_acceptance.py`` to see the summary inline.
All comparisons are exact — integers, dyadics and Fractions, zero tolerance.
"""

import hashlib
import random
import time
from fractions import Fraction

import pytest
import sympy

from postsel import (
    CoinMachine,
    DyadicRational,
    ZeroPostselection,
    build_upcoup,
    check_awpp_witness,
    check_wapp_witness,
    classify_postsel_profile,
    compile_fqp_to_exp,
    compile_gap_squared,
    compile_pair_postsel,
    compile_pp_instance,
    default_input,
    expand_mcx,
    gap,
    gap_squared_prob,
    joint_prob,
    make_gap_machine,
    measure_prob,
    mixed_conditional,
    pair_stats,
    path_sum,
    postselect_stats,
    rescale_postsel,
    run,
    run_ptm,
    run_scenario,
    verify_error_algebra,
    wapp_witness,
)
from postsel.cli import main
from postsel.counting import PredicateCircuit
from postsel.circuit import cx, mcx, x
from postsel.scenarios import _uniform_circuit, random_circuit, random_machine


def _verdict(tag: str, ok: bool) -> None:
    print(f"[{'pass' if ok else 'FAIL'}] {tag}")
    assert ok, tag


def _stats(circuit):
    return postselect_stats(expand_mcx(circuit), default_input(circuit))


# -------------------------------------------------------------------
# 1. the two probability routes agree on random circuits
# -------------------------------------------------------------------


def test_acceptance_01_oracle_equivalence():
    rng = random.Random(42)
    t0 = time.monotonic()
    checked = 0
    ok = True
    for i in range(100):
        circ, bits = random_circuit(rng, allow_mcx=(i % 3 == 0))
        ok = ok and circ.width <= 8 and len(circ.gates) <= 24 and circ.h_count <= 12
        state = run(expand_mcx(circ), bits)
        g, m = path_sum(circ, bits, [(circ.output, 1)])
        ok = ok and DyadicRational(g, m) == measure_prob(state, circ.output, 1)
        if circ.postselect is not None:
            cons = [(circ.output, 1), (circ.postselect, 1)]
            g2, m2 = path_sum(circ, bits, cons)
            ok = ok and DyadicRational(g2, m2) == joint_prob(state, cons)
        checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and checked >= 100 and elapsed < 60.0
    _verdict(
        f"criterion 01: oracle equivalence on {checked} circuits "
        f"({elapsed:.1f}s, exact)",
        ok,
    )


# -------------------------------------------------------------------
# 2. squared-gap compiler hits G**2 / 2**2q exactly
# -------------------------------------------------------------------


def test_acceptance_02_gap_squared_closed_form():
    rng = random.Random(43)
    ok = True
    for _ in range(50):
        q = rng.randint(1, 4)
        m = random_machine(rng, rng.randint(0, 2), q)
        w = "".join(rng.choice("01") for _ in range(m.input_width))
        expected = gap_squared_prob(gap(m, w).gap, q)
        circ = compile_gap_squared(m, w)
        flat = expand_mcx(circ)
        got = measure_prob(run(flat, default_input(flat)), circ.output, 1)
        ok = ok and got == expected
    pinned = compile_gap_squared(make_gap_machine(2, 2), "")
    flat = expand_mcx(pinned)
    got = measure_prob(run(flat, default_input(flat)), pinned.output, 1)
    ok = ok and got == DyadicRational(1, 2) == gap_squared_prob(2, 2)
    _verdict("criterion 02: 50 random machines + pinned G=2,q=2 -> 1/4", ok)


# -------------------------------------------------------------------
# 3. two-machine postselection closed forms and the gap-parity identity
# -------------------------------------------------------------------


def test_acceptance_03_pair_closed_forms():
    rng = random.Random(44)
    ok = True
    made = 0
    while made < 50:
        in_w = rng.randint(0, 2)
        q = rng.randint(1, 3)
        k = rng.randint(0, 2)
        m1 = random_machine(rng, in_w, q)
        m2 = random_machine(rng, in_w, q)
        w = "".join(rng.choice("01") for _ in range(in_w))
        g1, g2 = gap(m1, w).gap, gap(m2, w).gap
        if g1 == 0 and g2 == 0:
            with pytest.raises(ZeroPostselection):
                compile_pair_postsel(m1, m2, w, k)
            continue
        p_ref, cond_ref = pair_stats(g1, g2, q, k)
        st = _stats(compile_pair_postsel(m1, m2, w, k))
        ok = ok and st.p_post == p_ref and st.p_cond == cond_ref
        made += 1
    pinned = _stats(compile_pair_postsel(make_gap_machine(2, 2), make_gap_machine(-2, 2), ""))
    ok = ok and pinned.p_post == DyadicRational(1, 3) and pinned.p_cond == Fraction(1, 2)
    h1, h2 = sympy.symbols("h1 h2")
    identity = (2 * h1) ** 2 + (2 * h2) ** 2 - 4 * (h1**2 + h2**2)
    ok = ok and sympy.simplify(identity) == 0
    _verdict(
        "criterion 03: 50 random pairs + pinned 1/8 & 1/2 + G=2h identity", ok
    )


# -------------------------------------------------------------------
# 4. witness recovered from compiled circuits clears the exact thresholds
# -------------------------------------------------------------------


def test_acceptance_04_derived_witness_thresholds():
    rng = random.Random(45)
    r1 = r2 = 3
    q = 5
    u = 2 * q + 2
    labels: dict[str, bool] = {}
    g_wit: dict[str, int] = {}
    f_wit: dict[str, int] = {}
    stats = {}
    f_table: dict[str, int] = {}
    ok = True
    for i in range(10):
        in_l = i % 2 == 0
        small = rng.choice([2, 4])
        big = rng.randrange(3 * small, 33, 2)  # big**2 >= 9 small**2 > 7 small**2
        gg1, gg2 = (big, small) if in_l else (small, big)
        circ = compile_pair_postsel(make_gap_machine(gg1, q), make_gap_machine(gg2, q), "")
        st = _stats(circ)
        label = f"{i:02d}"
        labels[label] = in_l
        stats[label] = st
        f_num = gg1 * gg1 + gg2 * gg2
        f_table[label] = f_num
        ok = ok and st.p_post == DyadicRational(f_num, u)  # inside every aFP window
        gj, mj = path_sum(circ, default_input(circ), [(circ.output, 1), (circ.postselect, 1)])
        g_wit[label] = gj << r2
        f_wit[label] = f_num * ((1 << r2) + 1) << (mj - u)
        cond_gate = 1 - Fraction(1, 1 << r1)
        ok = ok and (st.p_cond >= cond_gate if in_l else st.p_cond <= 1 - cond_gate)
    profile = classify_postsel_profile(stats, "aFP", f=f_table, q_exp=u, r2=r2)
    ok = ok and profile.passed
    ok = ok and check_awpp_witness(g_wit, f_wit, labels, Fraction(1, 3)).passed
    lower = (1 - Fraction(1, 8)) ** 2 / (1 + Fraction(1, 8))
    ok = ok and lower == Fraction(49, 72) and lower >= Fraction(2, 3)
    ok = ok and run_scenario("awpp-backward", seed=42, r=4).passed
    _verdict(
        "criterion 04: derived witness from 10 sharp circuits, eps=1/3, 49/72>=2/3",
        ok,
    )


# -------------------------------------------------------------------
# 5. error-propagation inequalities across the sharpness range
# -------------------------------------------------------------------


def test_acceptance_05_error_algebra():
    ok = all(verify_error_algebra(r).passed for r in range(2, 17))
    _verdict("criterion 05: exact error algebra for r = 2..16", ok)


# -------------------------------------------------------------------
# 6. forcing the postselection probability to an exact power of two
# -------------------------------------------------------------------


def test_acceptance_06_exact_postselection_adjustment():
    ok = True
    for h_exp in range(0, 7):
        for f in range(1, (1 << h_exp) + 1):
            base = (
                _uniform_circuit(0, 1, 1)
                if h_exp == 0
                else _uniform_circuit(h_exp, f, None)
            )
            final = compile_fqp_to_exp(base, f, h_exp)
            gj, mj = path_sum(final, default_input(final), [(final.postselect, 1)])
            ok = ok and Fraction(gj, 1 << mj) == Fraction(1, 1 << h_exp)
            t = f.bit_length() - 1
            ok = ok and mixed_conditional(f, t, Fraction(9, 10)) >= Fraction(7, 10)
            ok = ok and mixed_conditional(f, t, Fraction(1, 10)) <= Fraction(3, 10)
    hi = _stats(compile_fqp_to_exp(_uniform_circuit(4, 10, 9), 10, 4))
    lo = _stats(compile_fqp_to_exp(_uniform_circuit(4, 10, 1), 10, 4))
    ok = ok and hi.p_post == DyadicRational(1, 4) == lo.p_post
    ok = ok and hi.p_cond == Fraction(3, 4) >= Fraction(7, 10)
    ok = ok and lo.p_cond == Fraction(1, 4) <= Fraction(3, 10)
    _verdict(
        "criterion 06: P(p=1)=2**-h for all h<=6, 0<f<=2**h; 7/10 & 3/10 bounds",
        ok,
    )


# -------------------------------------------------------------------
# 7. rescaling divides the postselection odds, conditional untouched
# -------------------------------------------------------------------


def test_acceptance_07_rescale_preserves_conditional():
    rng = random.Random(46)
    ok = True
    made = 0
    while made < 20:
        circ, bits = random_circuit(rng)
        if circ.postselect is None:
            continue
        try:
            st0 = postselect_stats(circ, bits)
        except ZeroPostselection:
            continue
        t = rng.randint(1, 3)
        scaled = rescale_postsel(circ, t)
        st = postselect_stats(expand_mcx(scaled), bits + "0" * (scaled.width - circ.width))
        ok = ok and st.p_post.as_fraction() == st0.p_post.as_fraction() / (1 << t)
        ok = ok and st.p_cond == st0.p_cond
        made += 1
    _verdict("criterion 07: 2**-t rescale on 20 random circuits, exact", ok)


# -------------------------------------------------------------------
# 8. promise pairs: floored postselection, two-valued conditional
# -------------------------------------------------------------------


def test_acceptance_08_promise_fixtures():
    ok = True
    for q in (1, 2, 3):
        floor = Fraction(1, 1 << (2 * q))
        for v in range(2, (1 << q) + 1, 2):
            for in_l in (True, False):
                v1, v2 = (v, 0) if in_l else (0, v)
                st = _stats(
                    compile_pair_postsel(make_gap_machine(v1, q), make_gap_machine(v2, q), "")
                )
                ok = ok and st.p_post.as_fraction() >= floor
                ok = ok and st.p_cond * (1 - st.p_cond) == 0
                ok = ok and st.p_cond == (Fraction(1) if in_l else Fraction(0))
    _verdict("criterion 08: promise pairs, P(p=1) >= 2**-2q and {0,1} conditional", ok)


# -------------------------------------------------------------------
# 9. classical unique-path coupling, exhaustively, plus its witness
# -------------------------------------------------------------------


def _point_machine(q: int, j: int) -> PredicateCircuit:
    negs = [((j >> i) & 1) == 0 for i in range(q)]
    return PredicateCircuit(0, q, 0, (mcx(list(range(q)), q, negs),), q)


def _empty_machine(q: int) -> PredicateCircuit:
    return PredicateCircuit(0, q, 0, (), q)


def test_acceptance_09_unique_path_coupling():
    ok = True
    for q in range(1, 7):
        for j in range(1 << q):
            for first_owns in (True, False):
                if first_owns:
                    tm = build_upcoup(_point_machine(q, j), _empty_machine(q), "")
                else:
                    tm = build_upcoup(_empty_machine(q), _point_machine(q, j), "")
                st = run_ptm(tm, "")
                ok = ok and st.p_post == DyadicRational(1, q)
                ok = ok and st.p_cond == (Fraction(1) if first_owns else Fraction(0))
    # witness extraction at margin 1/2: exact 0/1 ratios validate...
    half = Fraction(1, 2)
    for first_owns in (True, False):
        q = 3
        tm = (
            build_upcoup(_point_machine(q, 5), _empty_machine(q), "")
            if first_owns
            else build_upcoup(_empty_machine(q), _point_machine(q, 5), "")
        )
        wit = wapp_witness(tm, {"": 1}, q)
        rep = check_wapp_witness({"": wit.ratio("")}, {"": first_owns}, half)
        ok = ok and rep.passed
    # ...and the borderline fair-coin conditional fails both orientations
    always = PredicateCircuit(1, 1, 0, (x(2),), 2)
    coin = CoinMachine(always, PredicateCircuit(1, 1, 0, (cx(1, 2),), 2))
    ratio = run_ptm(coin, "1").p_cond
    ok = ok and ratio == half
    ok = ok and not check_wapp_witness({"1": ratio}, {"1": True}, half).passed
    ok = ok and not check_wapp_witness({"1": ratio}, {"1": False}, half).passed
    _verdict(
        "criterion 09: unique-path coupling exhaustive q<=6; eps=1/2 witness", ok
    )


# -------------------------------------------------------------------
# 10. majority-style instances: floor and conditional bounds at r=4
# -------------------------------------------------------------------


def test_acceptance_10_majority_instance_bounds():
    r = 4
    in_bound = Fraction(1, 2) + Fraction(1, 22) - Fraction(12, 11) / (1 << r)
    out_bound = Fraction(3, 1 << (2 * r))
    ok = in_bound == Fraction(21, 44)
    for in_l in (True, False):
        mg = make_gap_machine(2 if in_l else 0, 1)
        mf = make_gap_machine(2, 1)
        circ = compile_pp_instance(mg, mf, "")
        st = _stats(circ)
        strict_floor = Fraction(1, 1 << (2 * 1 + 2 * 1 + 2))
        ok = ok and st.p_post.as_fraction() > strict_floor
        if in_l:
            ok = ok and st.p_cond == Fraction(3, 4) and st.p_cond >= in_bound
        else:
            ok = ok and st.p_cond == Fraction(0) and st.p_cond <= out_bound
    rho = 1 - Fraction(1, 1 << r)
    ok = ok and 3 * rho**2 / (3 * rho**2 + 1) >= in_bound
    ok = ok and run_scenario("pp-to-postsel", seed=42, r=4).passed
    _verdict("criterion 10: majority instances, strict floor, 21/44 & 3/256 bounds", ok)


# -------------------------------------------------------------------
# 11. the whole verification suite is byte-deterministic and fast
# -------------------------------------------------------------------


# sha256 of `postsel verify --suite all --format machine --seed S`: a change
# that alters any row must update its digest and name the rows in CHANGES.md
SUITE_DIGESTS = {
    42: "c44aed62222a41a264799237ed8b9deba5a6c9db3be966359ea934a1b04b2a3b",
    7: "09f40d66bb418d2e7bf89f11f07e2286060d811b1a4c66c75f704a33aee3323c",
}


@pytest.mark.parametrize("seed", [42, 7])
def test_acceptance_11_suite_determinism(capsys, seed):
    argv = ["verify", "--suite", "all", "--seed", str(seed), "--format", "machine"]
    t0 = time.monotonic()
    rc1 = main(argv)
    first = capsys.readouterr().out
    t1 = time.monotonic()
    rc2 = main(argv)
    second = capsys.readouterr().out
    t2 = time.monotonic()
    digest = hashlib.sha256(first.encode("ascii")).hexdigest()
    ok = rc1 == 0 and rc2 == 0 and first == second and first.count("\n") > 100
    ok = ok and digest == SUITE_DIGESTS[seed]
    ok = ok and (t1 - t0) < 300.0 and (t2 - t1) < 300.0
    with capsys.disabled():
        _verdict(
            f"criterion 11: seed-{seed} suite byte-identical twice and pinned "
            f"({t1 - t0:.1f}s / {t2 - t1:.1f}s, {first.count(chr(10))} rows, "
            f"sha256 {digest[:12]})",
            ok,
        )
