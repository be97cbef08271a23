"""Compilers from counting machines to circuits: exact closed-form checks.

Every check here is oracle-first: the expected probability is computed from
the machine's accept/reject counts (or the branch-sum oracle) and only then
compared against the compiled circuit's simulated statistics.
"""

import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hst

from postsel import (
    BadArgument,
    CapExceeded,
    Circuit,
    DyadicRational,
    MachineContractError,
    PostselStats,
    PredicateCircuit,
    StatsMismatch,
    ZeroPostselection,
    ccx,
    compile_fqp_to_exp,
    compile_gap_squared,
    compile_pair_postsel,
    compile_pp_instance,
    default_input,
    expand_mcx,
    gadget_biased_flag,
    gap,
    gap_squared_prob,
    h,
    joint_prob,
    make_gap_machine,
    mcx,
    measure_prob,
    mix_with_constant,
    mixed_conditional,
    pair_stats,
    parse_machine,
    path_sum,
    postselect_stats,
    rescale_postsel,
    run,
    serialize_circuit,
    tabulated_count_machine,
    verify_error_algebra,
)
from postsel.constructions import _instance_input
from postsel.scenarios import _uniform_circuit
from postsel.simulator import _events

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
    c = compile_gap_squared(m)
    assert _sim_output_prob(c) == DyadicRational(1, 2)  # 2**2 / 2**4 == 1/4
    assert _oracle_output_prob(c) == DyadicRational(1, 2)


def test_gap_squared_sign_irrelevant(self_reading_machine):
    for v in (-4, -2, 0, 2, 4):
        c = compile_gap_squared(make_gap_machine(v, 2))
        assert _sim_output_prob(c) == gap_squared_prob(v, 2)
    assert gap(self_reading_machine, "").gap == -2
    c = compile_gap_squared(self_reading_machine)
    assert _sim_output_prob(c) == _oracle_output_prob(c) == DyadicRational(1, 2)  # 4/2**4


def test_gap_squared_all_accept_is_certain():
    m = make_gap_machine(8, 3)
    c = compile_gap_squared(m)
    assert _sim_output_prob(c) == DyadicRational(1, 0)


def test_gap_squared_restores_scratch(self_reading_machine):
    for m in (make_gap_machine(4, 3), self_reading_machine):
        c = compile_gap_squared(m)
        assert joint_prob(run(c, default_input(c)), c.ancillas) == DyadicRational(1, 0)


def test_gap_squared_instance_width_checked():
    """The instance is part of the input, whose width run checks."""
    c = compile_gap_squared(make_gap_machine(2, 2))
    with pytest.raises(ValueError):
        run(c, "01" + default_input(c))


# ===================================================================
# two-machine postselection compiler
# ===================================================================


def test_pair_pinned(self_reading_machine):
    # the self-reading machine has gap -2 too, so it may stand in for m2, or
    # for m1 with the conditional unchanged
    plus, minus = make_gap_machine(2, 2), make_gap_machine(-2, 2)
    for m1, m2 in ((plus, minus), (plus, self_reading_machine), (self_reading_machine, plus)):
        c = compile_pair_postsel(m1, m2)
        # both machines run unconditionally: only the flag copies read the selector
        sel_gates = [g for g in c.gates if c.output in g.qubits]
        assert sel_gates[0] == h(c.output)
        assert [(g.kind, g.controls[0], g.negated) for g in sel_gates[1:]] == [
            ("ccx", c.output, (False, True)), ("ccx", c.output, (True, True))]
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
    c0 = compile_pair_postsel(m1, m2, 0)
    base = postselect_stats(c0, default_input(c0))
    for k in (1, 2):
        c = compile_pair_postsel(m1, m2, k)
        st = postselect_stats(c, default_input(c))
        assert st.p_post.as_fraction() == base.p_post.as_fraction() / (1 << (2 * k))
        assert st.p_cond == base.p_cond


def test_pair_zero_postselection_raises_when_run():
    m = make_gap_machine(0, 2)
    c = compile_pair_postsel(m, m)
    with pytest.raises(ZeroPostselection):
        postselect_stats(c, default_input(c))


def test_pair_validation():
    m1 = make_gap_machine(2, 2)
    m2 = make_gap_machine(2, 3)
    with pytest.raises(
        MachineContractError, match="^machines must share instance and path widths$"
    ):
        compile_pair_postsel(m1, m2)  # path widths differ
    with pytest.raises(BadArgument, match="^k must be >= 0, got -1$"):
        compile_pair_postsel(m1, m1, k=-1)


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


def test_biased_flag_checks_the_width_before_building_2_to_the_m():
    """At m = 10**8, 1 << m alone would be a 12.5 MB integer."""
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="^width 100000001 exceeds the 63-qubit index limit$"):
            gadget_biased_flag(1, 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


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
    with pytest.raises(BadArgument, match="^t must be >= 0, got -1$"):
        rescale_postsel(base, -1)
    with pytest.raises(ValueError):
        rescale_postsel(Circuit(2, (), 0), 1)  # no postselect qubit


@pytest.mark.parametrize("bad", [1.5, True])
def test_pair_k_and_rescale_t_must_be_integers(bad):
    # 1.5 was a raw TypeError, and True was read as 1
    m = make_gap_machine(2, 2)
    with pytest.raises(BadArgument, match=f"^k must be an integer, got {bad!r}$"):
        compile_pair_postsel(m, m, bad)
    with pytest.raises(BadArgument, match=f"^t must be an integer, got {bad!r}$"):
        rescale_postsel(compile_pair_postsel(m, m), bad)


# ===================================================================
# half-and-half mix and the exact postselection adjuster
# ===================================================================


def test_mixed_conditional_symbolic_form():
    """cond_W == 1/2 + f * (2*cond_V - 1) / 2**(t+2), symmetrically around 1/2."""
    f, v = sympy.symbols("f v", positive=True)
    t = sympy.symbols("t", positive=True, integer=True)
    w = f / 2 ** (t + 1) * v + sympy.Rational(1, 2) * (2 ** (t + 1) - f) / 2 ** (t + 1)
    assert sympy.simplify(w - (sympy.Rational(1, 2) + f * (2 * v - 1) / 2 ** (t + 2))) == 0


def test_mixed_conditional_refuses_a_negative_t():
    # t = -1 shifted by 0 and returned a value; t = -2 shifted by -1
    for t in (-1, -2):
        with pytest.raises(ValueError, match=f"^t must be >= 0, got {t}$"):
            mixed_conditional(4, t, Fraction(1, 2))


def test_mixed_conditional_refuses_a_float_inner():
    """An exact helper returns no float: ``inner`` is read by ``witness._frac``."""
    with pytest.raises(BadArgument, match=r"^expected an exact rational value, got 0\.9$"):
        mixed_conditional(10, 3, 0.9)


def test_mix_with_constant_pinned():
    base = _uniform_circuit(4, 10, 9)  # P(p) = 10/16, cond = 9/10
    mixed = mix_with_constant(base, 10, 4)
    # the base runs unconditionally: the coin is read only by the two cswaps
    coin = base.width
    coin_gates = [g for g in mixed.gates if coin in g.qubits]
    assert coin_gates[0] == h(coin)
    assert [(g.kind, g.controls[0]) for g in coin_gates[1:]] == [("ccx", coin)] * 6
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
    c = compile_pp_instance(mg, mf)
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
        c = compile_pp_instance(mg, mf)
        denom = 1 << (2 * qg + 2 * qf + 2)
        p_exp = Fraction(3 * gg * gg + gf * gf, denom)
        st = postselect_stats(c, default_input(c))
        assert st.p_post.as_fraction() == p_exp
        assert st.p_cond == Fraction(3 * gg * gg, 3 * gg * gg + gf * gf)


def test_pp_instance_validation():
    mg = make_gap_machine(2, 1)
    with pytest.raises(MachineContractError, match="^machines must share an instance width$"):
        compile_pp_instance(mg, CI_M1)  # the blocks share one instance register
    zero = make_gap_machine(0, 1)
    c = compile_pp_instance(zero, zero)
    with pytest.raises(ZeroPostselection):
        postselect_stats(c, default_input(c))


# ===================================================================
# one circuit per machine pair, run on every instance
# ===================================================================


@hst.composite
def machine_pairs(draw):
    """Two machines on one instance width (1-2 bits) and one path width (1-2),
    each an XOR of polarized terms into its accept bit.  Some open with a gate
    that reads the accept bit into their scratch bit while it is still 0, so
    a pass run twice, rather than forward and then in reverse, leaves it set."""
    n, q = draw(hst.integers(1, 2)), draw(hst.integers(1, 2))
    scratch, accept = n + q, n + q + 1

    def machine():
        gates = []
        if draw(hst.booleans()):  # reads the accept bit before any gate writes it
            gates.append(ccx(draw(hst.integers(0, scratch - 1)), accept, scratch))
        for _ in range(draw(hst.integers(1, 4))):
            ctls = draw(hst.lists(hst.integers(0, scratch - 1), max_size=3, unique=True))
            gates.append(mcx(ctls, accept, draw(hst.lists(
                hst.booleans(), min_size=len(ctls), max_size=len(ctls)))))
        return PredicateCircuit(n, q, 1, tuple(gates), accept)

    return machine(), machine()


def _oracle_last_event(circuit: Circuit, bits: str) -> DyadicRational:
    """P(o=1, p=1), or P(o=1) with no postselect qubit, by branch enumeration."""
    return DyadicRational(*path_sum(circuit, bits, list(_events(circuit).values())[-1]))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=machine_pairs(), k=hst.integers(0, 2))
@example(pair=None, k=1)  # the self-reading machine against make_gap_machine(2, 2)
def test_one_circuit_per_pair_matches_closed_forms_on_every_instance(
    self_reading_machine, pair, k
):
    """gapsq, pair and pp, each compiled once, run on every instance w:
    closed forms from ``gap(m, w)``, and ``path_sum`` on the joint event
    (P(o=1) for gapsq)."""
    m1, m2 = pair or (self_reading_machine, make_gap_machine(2, 2))
    q = m1.path_width
    gapsq, two = compile_gap_squared(m1), compile_pair_postsel(m1, m2, k)
    pp = compile_pp_instance(m1, m2)
    for w in map("".join, itertools.product("01", repeat=m1.input_width)):
        g1, g2 = gap(m1, w).gap, gap(m2, w).gap
        bits = _instance_input(gapsq, w, m1.input_width)
        p_out = measure_prob(run(gapsq, bits), gapsq.output, 1)
        assert p_out == gap_squared_prob(g1, q) == _oracle_last_event(gapsq, bits)
        if g1 == g2 == 0:  # neither circuit postselects anything
            for circ in (two, pp):
                with pytest.raises(ZeroPostselection):
                    postselect_stats(circ, _instance_input(circ, w, m1.input_width))
            continue
        pp_ref = PostselStats(  # both blocks have q path bits
            DyadicRational(3 * g1 * g1 + g2 * g2, 4 * q + 2), DyadicRational(3 * g1 * g1, 4 * q + 2)
        )
        for circ, want in ((two, pair_stats(g1, g2, q, k)), (pp, pp_ref)):
            bits = _instance_input(circ, w, m1.input_width)
            st = postselect_stats(circ, bits)
            assert st == want
            assert _oracle_last_event(circ, bits) == st.p_joint


# ===================================================================
# serialized circuits, pinned gate for gate
# ===================================================================

# the pair machines of the console checks in tests/test_cli.py
CI_M1 = parse_machine("machine 1 2 0\nccx 1 2 3\nx 3\nccx !0 1 3\naccept 3\n")
CI_M2 = parse_machine("machine 1 2 1\nccx 0 1 3\ncx 3 4\nccx 2 3 4\nccx 0 1 3\naccept 4\n")
# the pp-to-postsel scenario's machines, gaps (2, 2) on instance 1 and (0, 4) on 0
PP_MACHINES = (
    tabulated_count_machine({"1": 3, "0": 2}, 1, 2), tabulated_count_machine({"1": 3, "0": 4}, 1, 2)
)


def _fqp2exp(pair: Circuit, w: str) -> Circuit:
    """``compile --construction fqp2exp --input w`` without --h: f and h read off the pair."""
    bits = _instance_input(pair, w, CI_M1.input_width)
    p_post = postselect_stats(pair, bits).p_post
    return compile_fqp_to_exp(pair, p_post.n, p_post.k, bits)


# name: (build, (width, gate count, H count), sha256 of the circuit text).  A new
# digest under the same shape rewires or reorders gates but adds none.
PINNED_CIRCUITS = {
    "gapsq": (
        lambda: compile_gap_squared(CI_M1),
        (5, 16, 6),
        "7fc7255fc2ae8dff3eb60417391435839ba8da46de0fc24155b7093b9931c15b",
    ),
    "pair": (
        lambda: compile_pair_postsel(CI_M1, CI_M2, 1),
        (11, 28, 10),
        "9e6a65335a3d66a338155cc3292faa3be774034ba36bf79c088f0adaaa11116f",
    ),
    "rescale": (
        lambda: rescale_postsel(compile_pair_postsel(CI_M1, CI_M2, 1), 2),
        (15, 32, 12),
        "ccc114367e25585f42fe0a5cdda86da3eef23556f0382d8f2a341ac61d50ab31",
    ),
    "fqp2exp": (
        lambda: _fqp2exp(compile_pair_postsel(CI_M1, CI_M2, 1), "1"),
        (19, 42, 17),
        "2acc0a80597f50666d4c7e3075268feda572cc7bc2245289450d9e4a29f41aaa",
    ),
    "pp": (
        lambda: compile_pp_instance(CI_M1, CI_M2),
        (21, 46, 18),
        "5b832e545867a4ea06fb493499980234dda68b61b87bf7e8988990f040c27d77",
    ),
    "gapsq-m2": (
        lambda: compile_gap_squared(CI_M2),
        (6, 18, 6),
        "7de503e5b0a1fe81a12e79db1b704594d53b41c226d0f4f0780d54838f3e1eee",
    ),
    "pp-pool": (  # the pp-to-postsel scenario's pair: its blocks borrow for 3-control mcx
        lambda: compile_pp_instance(*PP_MACHINES),
        (20, 44, 18),
        "a593b6c51e9097b62e0e60567d504c3056a4d6e8e58f29f3b7238f953ceb585c",
    ),
}


@pytest.mark.parametrize("name", PINNED_CIRCUITS)
def test_compiled_circuit_text_is_pinned(name):
    """The verify digests see only probabilities; these see every gate."""
    build, shape, digest = PINNED_CIRCUITS[name]
    circuit = build()
    assert (circuit.width, len(circuit.gates), sum(g.kind == "h" for g in circuit.gates)) == shape
    text = serialize_circuit(circuit)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


def test_pp_blocks_share_one_borrow_pool():
    """Each block declares one work qubit, which the other block's mcx may
    borrow: no wire is added for the borrowing, where a pool per block adds two."""
    assert compile_pp_instance(*PP_MACHINES).width == 20


def test_an_instance_of_the_wrong_length_is_refused():
    """The console pair reads 1 instance bit: "11" would overwrite its first pad wire."""
    pair = compile_pair_postsel(CI_M1, CI_M2, 1)
    assert _instance_input(pair, "1", CI_M1.input_width) == "1" + default_input(pair)[1:]
    for w in ("", "11"):
        with pytest.raises(MachineContractError, match=f"instance '{w}' is not 1 bits"):
            _instance_input(pair, w, CI_M1.input_width)


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
    for r in range(2, 65):
        assert verify_error_algebra(r).passed, r
