"""Compilers from counting machines to circuits: exact closed-form checks.

Every check here is oracle-first: the expected probability is computed from
the machine's accept/reject counts (or the branch-sum oracle) and only then
compared against the compiled circuit's simulated statistics.
"""

import hashlib
import random
from fractions import Fraction

import pytest
import sympy

from postsel import (
    Circuit,
    DyadicRational,
    StatsMismatch,
    ZeroPostselection,
    compile_fqp_to_exp,
    compile_gap_squared,
    compile_pair_postsel,
    compile_pp_instance,
    default_input,
    expand_mcx,
    gadget_biased_flag,
    gap,
    gap_squared_prob,
    joint_prob,
    make_gap_machine,
    measure_prob,
    mix_with_constant,
    mixed_conditional,
    parse_machine,
    path_sum,
    postselect_stats,
    rescale_postsel,
    run,
    serialize_circuit,
    verify_error_algebra,
)
from postsel.scenarios import _uniform_circuit

# ===================================================================
# helpers
# ===================================================================


def _sim_output_prob(circuit: Circuit) -> DyadicRational:
    state = run(circuit, default_input(circuit))
    return measure_prob(state, circuit.output, 1)


def _oracle_output_prob(circuit: Circuit) -> DyadicRational:
    flat = expand_mcx(circuit)
    g, m = path_sum(flat, default_input(flat), [(flat.output, 1)])
    return DyadicRational(g, m)


# ===================================================================
# squared-gap compiler
# ===================================================================


def test_gap_squared_pinned():
    m = make_gap_machine(2, 2)
    assert gap(m, "").gap == 2
    c = compile_gap_squared(m, "")
    assert _sim_output_prob(c) == DyadicRational(1, 2)  # 2**2 / 2**4 == 1/4
    assert _oracle_output_prob(c) == DyadicRational(1, 2)


def test_gap_squared_sign_irrelevant(self_reading_machine):
    for v in (-4, -2, 0, 2, 4):
        c = compile_gap_squared(make_gap_machine(v, 2), "")
        assert _sim_output_prob(c) == gap_squared_prob(v, 2)
    assert gap(self_reading_machine, "").gap == -2
    c = compile_gap_squared(self_reading_machine, "")
    assert _sim_output_prob(c) == _oracle_output_prob(c) == DyadicRational(1, 2)  # 4/2**4


def test_gap_squared_all_accept_is_certain():
    m = make_gap_machine(8, 3)
    c = compile_gap_squared(m, "")
    assert _sim_output_prob(c) == DyadicRational(1, 0)


def test_gap_squared_restores_scratch(self_reading_machine):
    for m in (make_gap_machine(4, 3), self_reading_machine):
        c = compile_gap_squared(m, "")
        assert joint_prob(run(c, default_input(c)), c.ancillas) == DyadicRational(1, 0)


def test_gap_squared_instance_width_checked():
    with pytest.raises(ValueError):
        compile_gap_squared(make_gap_machine(2, 2), "01")


# ===================================================================
# two-machine postselection compiler
# ===================================================================


def test_pair_pinned(self_reading_machine):
    # the self-reading machine has gap -2 too, so it may stand in for m2, or
    # for m1 with the conditional unchanged
    plus, minus = make_gap_machine(2, 2), make_gap_machine(-2, 2)
    for m1, m2 in ((plus, minus), (plus, self_reading_machine), (self_reading_machine, plus)):
        c = compile_pair_postsel(m1, m2, "")
        st = postselect_stats(c, default_input(c))
        assert st.p_post == DyadicRational(1, 3)  # (4+4)/2**6 == 1/8
        assert st.p_cond == Fraction(1, 2)
        assert st.p_joint == DyadicRational(1, 4)
        # oracle route for the same joint event
        flat = expand_mcx(c)
        g, m = path_sum(flat, default_input(flat), [(flat.output, 1), (flat.postselect, 1)])
        assert DyadicRational(g, m) == DyadicRational(1, 4)


def test_pair_padding_scales_postselection_only():
    m1, m2 = make_gap_machine(2, 2), make_gap_machine(2, 2)
    c0 = compile_pair_postsel(m1, m2, "", 0)
    base = postselect_stats(c0, default_input(c0))
    for k in (1, 2):
        c = compile_pair_postsel(m1, m2, "", k)
        st = postselect_stats(c, default_input(c))
        assert st.p_post.as_fraction() == base.p_post.as_fraction() / (1 << (2 * k))
        assert st.p_cond == base.p_cond


def test_pair_zero_postselection_is_eager():
    m = make_gap_machine(0, 2)
    with pytest.raises(ZeroPostselection):
        compile_pair_postsel(m, m, "")


def test_pair_validation():
    m1 = make_gap_machine(2, 2)
    m2 = make_gap_machine(2, 3)
    with pytest.raises(ValueError):
        compile_pair_postsel(m1, m2, "")  # path widths differ
    with pytest.raises(ValueError):
        compile_pair_postsel(m1, m1, "", k=-1)


# ===================================================================
# probability gadgets
# ===================================================================


def test_biased_flag_pinned():
    c = gadget_biased_flag(5, 3)
    assert _sim_output_prob(c) == DyadicRational(5, 3)
    assert _oracle_output_prob(c) == DyadicRational(5, 3)


def test_biased_flag_sweep():
    with pytest.raises(ValueError):
        gadget_biased_flag(9, 3)
    with pytest.raises(ValueError):
        gadget_biased_flag(-1, 3)


def test_rescale_divides_postselection_only():
    base = _uniform_circuit(4, 10, 9)
    st0 = postselect_stats(base, default_input(base))
    assert st0.p_post == DyadicRational(10, 4)
    assert st0.p_cond == Fraction(9, 10)
    for t in (1, 2, 3):
        c = rescale_postsel(base, t)
        st = postselect_stats(c, default_input(c))
        assert st.p_post.as_fraction() == st0.p_post.as_fraction() / (1 << t)
        assert st.p_cond == st0.p_cond


def test_rescale_zero_is_identity():
    base = _uniform_circuit(3, 5, 2)
    assert rescale_postsel(base, 0) is base
    with pytest.raises(ValueError):
        rescale_postsel(base, -1)
    with pytest.raises(ValueError):
        rescale_postsel(Circuit(2, (), 0), 1)  # no postselect qubit


# ===================================================================
# half-and-half mix and the exact postselection adjuster
# ===================================================================


def test_mixed_conditional_symbolic_form():
    """cond_W == 1/2 + f * (2*cond_V - 1) / 2**(t+2), symmetrically around 1/2."""
    f, v = sympy.symbols("f v", positive=True)
    t = sympy.symbols("t", positive=True, integer=True)
    w = f / 2 ** (t + 1) * v + sympy.Rational(1, 2) * (2 ** (t + 1) - f) / 2 ** (t + 1)
    assert sympy.simplify(w - (sympy.Rational(1, 2) + f * (2 * v - 1) / 2 ** (t + 2))) == 0


def test_mix_with_constant_pinned():
    base = _uniform_circuit(4, 10, 9)  # P(p) = 10/16, cond = 9/10
    mixed = mix_with_constant(base, 10, 4)
    st = postselect_stats(mixed, default_input(mixed))
    assert st.p_post == DyadicRational(1, 1)  # 2**3 / 2**4
    assert st.p_cond == Fraction(3, 4)
    assert st.p_cond == mixed_conditional(10, 3, Fraction(9, 10))


def test_mix_with_constant_sweep():
    rng = random.Random(104)
    for _ in range(8):
        h_exp = rng.randint(1, 5)
        f_post = rng.randint(1, (1 << h_exp))
        f_out = rng.randint(0, (1 << h_exp))
        base = _uniform_circuit(h_exp, f_post, f_out)
        inner = postselect_stats(base, default_input(base)).p_cond
        t = f_post.bit_length() - 1
        mixed = mix_with_constant(base, f_post, h_exp)
        st = postselect_stats(mixed, default_input(mixed))
        assert st.p_post == DyadicRational(1 << t, h_exp)
        assert st.p_cond == mixed_conditional(f_post, t, inner)


def test_mix_with_constant_checks_declared_stats():
    base = _uniform_circuit(4, 10, 9)
    with pytest.raises(StatsMismatch):
        mix_with_constant(base, 9, 4)
    with pytest.raises(ValueError):
        mix_with_constant(base, 0, 4)
    with pytest.raises(ValueError):
        mix_with_constant(base, 17, 4)


def test_fqp_to_exp_forces_power_of_two():
    base = _uniform_circuit(4, 10, 9)
    c = compile_fqp_to_exp(base, 10, 4)
    st = postselect_stats(c, default_input(c))
    assert st.p_post == DyadicRational(1, 4)  # exactly 2**-4
    assert st.p_cond == Fraction(3, 4)


def test_fqp_to_exp_power_of_two_input_skips_rescale():
    base = _uniform_circuit(3, 4, 3)
    c = compile_fqp_to_exp(base, 4, 3)
    st = postselect_stats(c, default_input(c))
    assert st.p_post == DyadicRational(1, 3)
    # f == 2**t: heads branch kept whole, conditional mixes with exactly 1/2
    assert st.p_cond == mixed_conditional(4, 2, Fraction(3, 4))


# ===================================================================
# majority-style instance compiler
# ===================================================================


def test_pp_instance_pinned():
    mg = make_gap_machine(2, 1)  # gap 2, q_exp = 2
    mf = make_gap_machine(2, 1)
    c = compile_pp_instance(mg, mf, "")
    st = postselect_stats(c, default_input(c))
    # P_V = P_W = 4/2**4 = 1/4; P(p) = (3+1)/4 * 1/4 = 1/4; cond = 3/4
    assert st.p_post == DyadicRational(1, 2)
    assert st.p_cond == Fraction(3, 4)


def test_pp_instance_closed_forms():
    rng = random.Random(105)
    for _ in range(6):
        qg = rng.randint(1, 2)
        qf = rng.randint(1, 2)
        gg = rng.randrange(-(1 << qg), (1 << qg) + 1, 2)
        gf = rng.choice([v for v in range(-(1 << qf), (1 << qf) + 1, 2) if v])
        mg = make_gap_machine(gg, qg)
        mf = make_gap_machine(gf, qf)
        c = compile_pp_instance(mg, mf, "")
        denom = 1 << (2 * qg + 2 * qf + 2)
        p_exp = Fraction(3 * gg * gg + gf * gf, denom)
        st = postselect_stats(c, default_input(c))
        assert st.p_post.as_fraction() == p_exp
        assert st.p_cond == Fraction(3 * gg * gg, 3 * gg * gg + gf * gf)


def test_pp_instance_validation():
    mg = make_gap_machine(2, 1)
    with pytest.raises(ValueError):
        compile_pp_instance(mg, make_gap_machine(0, 1), "")  # f gap must be nonzero


# ===================================================================
# serialized circuits, pinned gate for gate
# ===================================================================

# the two machine files of the CI console-script step
CI_M1 = parse_machine("machine 1 2 0\nccx 1 2 3\nx 3\nccx !0 1 3\naccept 3\n")
CI_M2 = parse_machine("machine 1 2 1\nccx 0 1 3\ncx 3 4\nccx 2 3 4\nccx 0 1 3\naccept 4\n")


def _fqp2exp(pair: Circuit) -> Circuit:
    """``compile --construction fqp2exp`` without --f/--h: f and h read off the pair."""
    p_post = postselect_stats(pair, default_input(pair)).p_post
    return compile_fqp_to_exp(pair, p_post.n, p_post.k)


PINNED_CIRCUITS = {
    "gapsq": (
        lambda: compile_gap_squared(CI_M1, "1"),
        "9da3136d1c6d4a336bb5bce611174d54e407540563be0577913fb71e6eacf1eb",
    ),
    "pair": (
        lambda: compile_pair_postsel(CI_M1, CI_M2, "1", 1),
        "39f69753ec1476626d2b1eafdfc912c07202211f37cf5e2447e69d4d2ca30637",
    ),
    "rescale": (
        lambda: rescale_postsel(compile_pair_postsel(CI_M1, CI_M2, "1", 1), 2),
        "924099f9d695d1d1ad72d7a7208d2b0371290c009b67da28972dc8de8d52d735",
    ),
    "fqp2exp": (
        lambda: _fqp2exp(compile_pair_postsel(CI_M1, CI_M2, "1", 1)),
        "ec44048ef30a1f3bb39420257a55c5976def365ead7e0e652ae6c1bb4e0c053d",
    ),
    "pp": (
        lambda: compile_pp_instance(CI_M1, CI_M2, "1"),
        "60788d19a49be2448f7da4d46c67a98442293856e0ebf691dce8d7cb8ff19d13",
    ),
    "gapsq-m2-input-0": (
        lambda: compile_gap_squared(CI_M2, "0"),
        "7de503e5b0a1fe81a12e79db1b704594d53b41c226d0f4f0780d54838f3e1eee",
    ),
}


@pytest.mark.parametrize("name", PINNED_CIRCUITS)
def test_compiled_circuit_text_is_pinned(name):
    """The verify digests see only probabilities; these see every gate."""
    build, digest = PINNED_CIRCUITS[name]
    text = serialize_circuit(build())
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


# ===================================================================
# exact error-propagation inequalities
# ===================================================================


def test_error_algebra_r3_exact_rows():
    report = verify_error_algebra(3)
    assert report.passed
    rows = {c.cid: (Fraction(c.lhs), c.op, Fraction(c.rhs)) for c in report.conditions}
    assert rows["inflate-upper"] == (Fraction(4, 3), "<=", Fraction(3, 2))
    assert rows["deflate-lower"] == (Fraction(3, 10), ">=", Fraction(0))
    assert rows["square-lower"] == (Fraction(49, 64), ">=", Fraction(3, 4))
    assert rows["cross-upper"] == (Fraction(65, 64), "<=", Fraction(5, 4))


def test_error_algebra_tight_at_r2():
    report = verify_error_algebra(2)
    assert report.passed
    rows = {c.cid: (Fraction(c.lhs), Fraction(c.rhs)) for c in report.conditions}
    assert rows["inflate-upper"] == (Fraction(2), Fraction(2))  # equality case


def test_error_algebra_many_r():
    with pytest.raises(ValueError):
        verify_error_algebra(1)
