"""End-to-end verification scenarios.

Each scenario compiles fixture machines or circuits, measures them with the
sparse statevector simulator and the branch-enumeration oracle, and reports exact
comparisons against closed forms as a WitnessReport.  A machine pair is
compiled once, and instance w of its n instance bits runs through that one
circuit on the input ``constructions._instance_input(circuit, w, n)``.  Both
engines read a circuit's events (P(o=1), P(p=1), P(o=1, p=1)) as
``simulator._events`` defines them.  Scenario functions all take (seed,
fixtures), ``fixtures`` being the witness pairs of ``_pair_fixtures``, built once
per pass, that the AWPP and APP scenarios check.  Only ``oracle-equivalence``,
``gap-squared`` and ``postsel-rescale`` read the seed: it drives their random
circuits and machines through a private generator, so repeated runs are
byte-identical.  A ``PostselError`` in a scenario is its one failed row.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .circuit import Circuit, _ARITY, ccx, default_input, h, mcx, x
from .classical import CoinMachine, build_upcoup, run_ptm, wapp_witness
from .constructions import (
    _Builder,
    _instance_input,
    compile_fqp_to_exp,
    compile_gap_squared,
    compile_pair_postsel,
    compile_pp_instance,
    gadget_biased_flag,
    gap_squared_prob,
    mix_with_constant,
    mixed_conditional,
    pair_stats,
    rescale_postsel,
    verify_error_algebra,
)
from .counting import (
    FPFunction,
    PredicateCircuit,
    complement_machine,
    emit_less_than,
    gap,
    make_gap_machine,
    tabulated_count_machine,
)
from .errors import BadArgument, PostselError, PromiseViolation, StatsMismatch, ZeroPostselection
from .pathsum import path_sum, path_sum_slow
from .simulator import _events, joint_prob, measure_prob, postselect_stats, run
from .witness import (
    Condition,
    WitnessReport,
    check_awpp_witness,
    check_wapp_witness,
    classify_postsel_profile,
)


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _stats(circuit: Circuit, w: str = "", width: int = 0):
    return postselect_stats(circuit, _instance_input(circuit, w, width))


def _output_prob(circuit: Circuit, w: str = "", width: int = 0):
    """P(o=1) of a circuit run on instance w of ``width`` bits."""
    state = run(circuit, _instance_input(circuit, w, width))
    return measure_prob(state, circuit.output, 1)


def _check_pair(
    report: WitnessReport, prefix: str, circuit: Circuit, w: str, gaps, q: int, width=0, k=0
):
    """Rows ``prefix:postsel`` and ``prefix:conditional``: a compiled gap pair's
    statistics on instance w against the closed form ``pair_stats``.  Returns the stats."""
    st, ref = _stats(circuit, w, width), pair_stats(*gaps, q, k)
    report.check(f"{prefix}:postsel", st.p_post, "==", ref.p_post)
    report.check(f"{prefix}:conditional", st.p_cond, "==", ref.p_cond)
    return st


def _check_oracle_joint(report: WitnessReport, prefix: str, circuit: Circuit, w: str, st, width=0):
    """Row ``prefix:oracle-joint``: P(o=1, p=1) on instance w, simulated and enumerated."""
    gj, mj = path_sum(circuit, _instance_input(circuit, w, width), _events(circuit)["prob_joint"])
    report.check(f"{prefix}:oracle-joint", st.p_joint, "==", Fraction(gj, 1 << mj))


# --- randomized fixtures ------------------------------------------------------


def random_circuit(rng: random.Random, *, allow_mcx: bool = False) -> tuple[Circuit, str]:
    """Seeded random circuit plus a matching input assignment.

    With ``allow_mcx`` the top two qubits are reserved as a declared work
    pool so macro expansion always has room to borrow.
    """
    pool = 2 if allow_mcx else 0
    width = rng.randint(6, 8) if allow_mcx else rng.randint(3, 8)
    active = width - pool
    kinds = ["h", "h", "x", "cx", "cx", "ccx", "ccx"]
    if allow_mcx:
        kinds += ["mcx", "mcx"]
    gates = []
    h_left = 12
    for _ in range(rng.randint(4, 24)):
        kind = rng.choice(kinds)
        if kind == "h" and h_left == 0:
            kind = "x"
        if kind == "h":
            h_left -= 1
            gates.append(h(rng.randrange(active)))
        elif kind == "x":
            gates.append(x(rng.randrange(active)))
        else:  # cx, ccx or mcx: mcx names the kind by its control count
            n_ctl = _ARITY[kind] if kind != "mcx" else rng.randint(3, min(4, active - 1))
            qs = rng.sample(range(active), n_ctl + 1)
            gates.append(mcx(qs[:-1], qs[-1], [rng.random() < 0.3 for _ in qs[:-1]]))
    output = rng.randrange(active)
    postselect = None
    if rng.random() < 0.5:
        postselect = rng.choice([q for q in range(active) if q != output])
    ancillas = tuple((q, 0) for q in range(active, width))
    bits = "".join(rng.choice("01") for _ in range(active)) + "0" * pool
    return Circuit(width, tuple(gates), output, postselect, ancillas), bits


def random_machine(rng: random.Random, input_width: int, path_width: int) -> PredicateCircuit:
    """Random accept predicate as an XOR of polarized control terms."""
    accept = input_width + path_width
    gates = []
    for _ in range(rng.randint(1, 6)):
        n_ctl = rng.randint(0, min(4, accept))
        ctls = sorted(rng.sample(range(accept), n_ctl))
        gates.append(mcx(ctls, accept, [rng.random() < 0.5 for _ in ctls]))
    return PredicateCircuit(input_width, path_width, 0, tuple(gates), accept)


def _point_machine(n: int, q: int, j: int) -> PredicateCircuit:
    """n instance bits it never reads, q path bits; accepts exactly path j."""
    negs = [((j >> i) & 1) == 0 for i in range(q)]
    return PredicateCircuit(n, q, 0, (mcx(list(range(n, n + q)), n + q, negs),), n + q)


# --- the pair fixtures of the theorem scenarios -------------------------------


class _PairFixture:
    """A witness pair on n-bit instances, ``labels`` saying which are in the language:
    g1 / f near 1 on it and near 0 off it, g2 = f - g1.  The machines realize the
    cross products over f*f, doubled, as gaps (G1, G2) = (2*f*g1, 2*f*g2) on q path
    bits, so P(p=1) = post / 2**post_exp, post = G1**2 + G2**2, post_exp = 2q + 2.
    It holds closed forms and one compiled circuit, never a simulation; ``prefix``
    keeps its row ids apart from other fixtures'."""

    def __init__(self, prefix: str, labels: dict, n: int, q: int, g1: dict, f: dict):
        self.prefix, self.labels, self.n, self.q, self.g1, self.f = prefix, labels, n, q, g1, f
        self.g2 = {w: f[w] - g for w, g in g1.items()}
        self.gaps = {w: (2 * f[w] * g1[w], 2 * f[w] * self.g2[w]) for w in labels}
        self.post = {w: a * a + b * b for w, (a, b) in self.gaps.items()}
        self.post_exp = 2 * q + 2
        self.machines = tuple(
            tabulated_count_machine({w: ((1 << q) + g[i]) // 2 for w, g in self.gaps.items()}, n, q)
            for i in (0, 1)
        )
        self.circuit = compile_pair_postsel(*self.machines)


def _pair_fixtures() -> list[_PairFixture]:
    """Fixture 0: the two-bit language "first bit is 1" with the sharp witness
    f = 2, g1 = f on it and 0 off it, q = 3, so P(p=1) = 64 / 2**8 everywhere."""
    labels = {w: w[0] == "1" for w in ("00", "01", "10", "11")}
    g1 = {w: 2 if in_l else 0 for w, in_l in labels.items()}
    return [_PairFixture("", labels, 2, 3, g1, dict.fromkeys(labels, 2))]


# --- scenarios ----------------------------------------------------------------


def scenario_oracle_equivalence(seed: int, fixtures: list) -> WitnessReport:
    """Statevector simulation and branch enumeration agree on random circuits."""
    rng = _rng(seed, "oracle-equivalence")
    report = WitnessReport("oracle-equivalence")
    for i in range(100):
        circ, bits = random_circuit(rng, allow_mcx=(i % 3 == 2))
        state = run(circ, bits)
        # P(o=0) pins a wire to 0, which no event does; the two engines share
        # that pin (planes.Planes.kept), so the check is P(o=0) + P(o=1) = 1
        p0, p1 = (measure_prob(state, circ.output, v) for v in (0, 1))
        report.check(f"circuit{i:03d}:prob_output0", p0, "==", 1 - p1)
        for event, cons in _events(circ).items():
            g, m = path_sum(circ, bits, cons)
            report.check(
                f"circuit{i:03d}:{event}", joint_prob(state, cons), "==", Fraction(g, 1 << m)
            )
        # the last event (P(o=1, p=1), or P(o=1) with no postselect qubit) on the first 20
        # and on every state still all +-1, where joint_prob counts on path_sum's planes
        if i < 20 or state.n == 1 << state.m:
            gs, ms = path_sum_slow(circ, bits, cons)
            report.check(
                f"circuit{i:03d}:slow", Fraction(gs, 1 << ms), "==", Fraction(g, 1 << m)
            )
    return report


def scenario_gap_squared(seed: int, fixtures: list) -> WitnessReport:
    """Single-machine compiler: P(o=1) equals the squared gap exactly."""
    rng = _rng(seed, "gap-squared")
    report = WitnessReport("gap-squared")

    pinned = compile_gap_squared(make_gap_machine(2, 2))
    report.check("pinned-gap2-q2", _output_prob(pinned), "==", Fraction(1, 4))
    certain = compile_gap_squared(make_gap_machine(4, 2))  # every path accepts
    report.check("pinned-all-accept", _output_prob(certain), "==", 1)
    self_reading = PredicateCircuit(0, 2, 1, (ccx(0, 3, 2), ccx(0, 1, 3)), 3)  # reads bit 3 first
    want = gap_squared_prob(gap(self_reading, "").gap, 2)
    report.check("pinned-self-reading", _output_prob(compile_gap_squared(self_reading)), "==", want)

    for i in range(50):
        in_w = rng.randint(0, 2)
        q = rng.randint(1, 4)
        mach = random_machine(rng, in_w, q)
        w = "".join(rng.choice("01") for _ in range(in_w))
        want = gap_squared_prob(gap(mach, w).gap, q)
        circ = compile_gap_squared(mach)
        report.check(f"machine{i:02d}:prob", _output_prob(circ, w, in_w), "==", want)
        go, mo = path_sum(circ, _instance_input(circ, w, in_w), _events(circ)["prob_output"])
        report.check(f"machine{i:02d}:oracle", Fraction(go, 1 << mo), "==", want)
    return report


def scenario_awpp_forward(seed: int, fixtures: list) -> WitnessReport:
    """Witness pair -> pair compiler: exact statistics and sharp conditionals."""
    report = WitnessReport("awpp-forward")
    for fx in fixtures:
        p = fx.prefix
        report.merge(check_awpp_witness(fx.g1, fx.f, fx.labels, Fraction(1, 32)), f"{p}w1:")
        flipped = {w: not v for w, v in fx.labels.items()}
        report.merge(check_awpp_witness(fx.g2, fx.f, flipped, Fraction(1, 32)), f"{p}w2:")
        stats = {}
        for w, in_l in fx.labels.items():
            st = stats[w] = _check_pair(report, f"{p}w={w}", fx.circuit, w, fx.gaps[w], fx.q, fx.n)
            _check_oracle_joint(report, f"{p}w={w}", fx.circuit, w, st, fx.n)
            if in_l:
                report.check(f"{p}w={w}:cond-high", st.p_cond, ">=", 1 - Fraction(1, 8))
            else:
                report.check(f"{p}w={w}:cond-low", st.p_cond, "<=", Fraction(1, 8))
        prof = classify_postsel_profile(stats, "aFP", f=fx.post, q_exp=fx.post_exp, r2=3)
        report.merge(prof, f"{p}profile:")
        padded, w = compile_pair_postsel(*fx.machines, k=1), max(fx.labels)
        _check_pair(report, f"{p}padded-k1", padded, w, fx.gaps[w], fx.q, fx.n, k=1)

    # boundary instance sitting exactly on the in-language threshold 1 - 2**-5
    boundary = check_awpp_witness({"1": 31}, {"1": 32}, {"1": True}, Fraction(1, 32))
    report.merge(boundary, "boundary:")
    mb1 = make_gap_machine(2 * 31 * 2, 7)
    mb2 = make_gap_machine(2 * 1 * 32, 7)
    _check_pair(report, "boundary", compile_pair_postsel(mb1, mb2), "", (124, 64), 7)
    return report


def scenario_awpp_forward_complement(seed: int, fixtures: list) -> WitnessReport:
    """Complementation: swapping the machines flips the conditional."""
    report = WitnessReport("awpp-forward-complement")
    for fx in fixtures:
        m1, m2 = fx.machines
        swapped = compile_pair_postsel(m2, m1)
        signed = compile_pair_postsel(complement_machine(m1), m2)
        for w, in_l in fx.labels.items():
            (g1, g2), p = fx.gaps[w], f"{fx.prefix}w={w}"
            report.check(f"{p}:complement-gap", gap(complement_machine(m1), w).gap, "==", -g1)
            ref, st = pair_stats(g1, g2, fx.q, 0), _stats(swapped, w, fx.n)
            report.check(f"{p}:swap-postsel", st.p_post, "==", ref.p_post)
            report.check(f"{p}:swap-conditional", st.p_cond, "==", 1 - ref.p_cond)
            if in_l:
                report.check(f"{p}:swap-cond-low", st.p_cond, "<=", Fraction(1, 8))
            else:
                report.check(f"{p}:swap-cond-high", st.p_cond, ">=", 1 - Fraction(1, 8))
            # a gap's sign never shows in the statistics
            if g1 != 0:
                stn = _stats(signed, w, fx.n)
                report.check(f"{p}:sign-invariant", stn.p_cond, "==", ref.p_cond)
    zero = make_gap_machine(0, 3)
    report.check_raises(
        "zero-gaps-raise", ZeroPostselection, lambda: _stats(compile_pair_postsel(zero, zero))
    )
    return report


def scenario_awpp_backward(seed: int, fixtures: list) -> WitnessReport:
    """Read a witness pair back out of the compiled circuits via the oracle.

    The joint numerator from branch enumeration, scaled by 2**r2, over the
    declared postselection numerator scaled by (2**r2 + 1), lands in [1-eps, 1]
    or [0, eps] at eps = 1/3 whenever the circuit statistics are within the
    declared windows at r1 = r2 = 3.
    """
    r2 = 3
    report = WitnessReport("awpp-backward")
    for fx in fixtures:
        g_wit, f_wit = {}, {}
        joint = _events(fx.circuit)["prob_joint"]
        for w in fx.labels:
            gj, mj = path_sum(fx.circuit, _instance_input(fx.circuit, w, fx.n), joint)
            g_wit[w] = gj << r2
            f_wit[w] = fx.post[w] * ((1 << r2) + 1) << (mj - fx.post_exp)
        report.merge(check_awpp_witness(g_wit, f_wit, fx.labels, Fraction(1, 3)), fx.prefix)
    lower = (1 - Fraction(1, 8)) ** 2 / (1 + Fraction(1, 8))
    report.check("bound-value", lower, "==", Fraction(49, 72))
    report.check("bound-instantiation", lower, ">=", Fraction(2, 3))
    return report


def scenario_app_forward(seed: int, fixtures: list) -> WitnessReport:
    """Length-indexed normalizer: statistics fit the size-only profiles."""
    report = WitnessReport("app-forward")
    for fx in fixtures:
        p, size_f = fx.prefix, {len(w): v for w, v in fx.post.items()}
        norm = {"1" * fx.n: ((1 << fx.post_exp) + size_f[fx.n]) // 2}  # gap f(|w|)
        f_fn = FPFunction(fx.post_exp, tabulated_count_machine(norm, fx.n, fx.post_exp))
        stats = {}
        for w in fx.labels:
            report.check(f"{p}w={w}:normalizer", f_fn(w), "==", fx.post[w])
            stats[w] = _check_pair(report, f"{p}w={w}", fx.circuit, w, fx.gaps[w], fx.q, fx.n)
        report.merge(classify_postsel_profile(stats, "post"), f"{p}profile-post:")
        for kind, r2 in (("size", None), ("asize", 3)):
            prof = classify_postsel_profile(stats, kind, f=size_f, q_exp=fx.post_exp, r2=r2)
            report.merge(prof, f"{p}profile-{kind}:")
    return report


def scenario_wpp_promise(seed: int, fixtures: list) -> WitnessReport:
    """Two-valued conditionals with a fixed postselection numerator."""
    report = WitnessReport("wpp-promise")
    q = 2
    pairs = {"0": (0, 2), "1": (2, 0)}
    stats = {}
    for label in sorted(pairs):
        v1, v2 = pairs[label]
        circ = compile_pair_postsel(make_gap_machine(v1, q), make_gap_machine(v2, q))
        st = stats[label] = _check_pair(report, f"w={label}", circ, "", (v1, v2), q)
        report.check(f"w={label}:two-valued", st.p_cond * (1 - st.p_cond), "==", 0)
        report.check(f"w={label}:floor", st.p_post, ">=", Fraction(1, 1 << (2 * q)))
        _check_oracle_joint(report, f"w={label}", circ, "", st)
    table = {label: 4 for label in pairs}
    report.merge(
        classify_postsel_profile(stats, "FP", f=table, q_exp=2 * q + 2), "profile-fp:"
    )
    return report


def scenario_postsel_rescale(seed: int, fixtures: list) -> WitnessReport:
    """Rescaling halves P(p=1) per step and leaves the conditional alone."""
    rng = _rng(seed, "postsel-rescale")
    report = WitnessReport("postsel-rescale")
    made = 0
    attempts = 0
    while made < 20 and attempts < 400:
        attempts += 1
        circ, bits = random_circuit(rng)
        if circ.postselect is None:
            continue
        try:
            base = postselect_stats(circ, bits)
        except ZeroPostselection:
            continue
        t = 1 + made % 3
        scaled = rescale_postsel(circ, t)
        wide_bits = bits + "0" * (scaled.width - circ.width)
        st = postselect_stats(scaled, wide_bits)
        report.check(
            f"circuit{made:02d}:postsel-t{t}",
            st.p_post,
            "==",
            base.p_post / (1 << t),
        )
        report.check(f"circuit{made:02d}:conditional-t{t}", st.p_cond, "==", base.p_cond)
        made += 1
    for m in range(0, 5):
        for a in range(0, (1 << m) + 1):
            flag = gadget_biased_flag(a, m)
            report.check(
                f"biased-flag:m={m}:a={a}", _output_prob(flag), "==", Fraction(a, 1 << m)
            )
    return report


def _uniform_circuit(h_exp: int, f_post: int, f_out: int | None) -> Circuit:
    """h coins; postselect on [coins < f_post]; output [coins < f_out] or coin 0."""
    b = _Builder()
    coins = b.alloc(h_exp)
    p_flag = b.alloc1()
    b.extend(map(h, coins))
    b.extend(emit_less_than(coins, f_post, p_flag))
    if f_out is None:
        out = coins[0]
    else:
        out = b.alloc1()
        b.extend(emit_less_than(coins, f_out, out))
    return b.finish(output=out, postselect=p_flag)


def scenario_exact_postsel_adjust(seed: int, fixtures: list) -> WitnessReport:
    """Mix-then-rescale drives P(p=1) to exactly 2**-h for every numerator."""
    report = WitnessReport("exact-postsel-adjust")
    for h_exp in range(1, 7):
        for f in range(1, (1 << h_exp) + 1):
            v = _uniform_circuit(h_exp, f, None)
            w2 = compile_fqp_to_exp(v, f, h_exp)
            gj, mj = path_sum(w2, default_input(w2), _events(w2)["prob_postselect"])
            report.check(
                f"h={h_exp}:f={f}:postsel",
                Fraction(gj, 1 << mj),
                "==",
                Fraction(1, 1 << h_exp),
            )

    v_hi = _uniform_circuit(4, 10, 9)
    inner = _stats(v_hi)
    report.check("fixture-hi:inner-cond", inner.p_cond, "==", Fraction(9, 10))
    mixed = mix_with_constant(v_hi, 10, 4)
    st = _stats(mixed)
    report.check("fixture-hi:mixed-postsel", st.p_post, "==", Fraction(8, 16))
    report.check(
        "fixture-hi:mixed-cond", st.p_cond, "==", mixed_conditional(10, 3, Fraction(9, 10))
    )
    report.check("fixture-hi:mixed-cond-value", st.p_cond, "==", Fraction(3, 4))
    report.check("fixture-hi:cond-floor", st.p_cond, ">=", Fraction(7, 10))
    final = rescale_postsel(mixed, 3)
    stf = _stats(final)
    report.check("fixture-hi:final-postsel", stf.p_post, "==", Fraction(1, 16))
    report.check("fixture-hi:final-cond", stf.p_cond, "==", Fraction(3, 4))
    report.merge(
        classify_postsel_profile({"f=10,h=4": stf}, "FP", f={"f=10,h=4": 1}, q_exp=4), "profile:"
    )

    v_lo = _uniform_circuit(4, 10, 1)
    inner_lo = _stats(v_lo)
    report.check("fixture-lo:inner-cond", inner_lo.p_cond, "==", Fraction(1, 10))
    mixed_lo = mix_with_constant(v_lo, 10, 4)
    st_lo = _stats(mixed_lo)
    report.check("fixture-lo:mixed-cond", st_lo.p_cond, "==", Fraction(1, 4))
    report.check("fixture-lo:cond-ceiling", st_lo.p_cond, "<=", Fraction(3, 10))

    report.check_raises(
        "wrong-numerator-raises", StatsMismatch, lambda: mix_with_constant(v_hi, 9, 4)
    )
    return report


def scenario_classical_upcoup(seed: int, fixtures: list) -> WitnessReport:
    """Coin machines coupling two counters with a unique accepting path."""
    report = WitnessReport("classical-upcoup")
    for q in range(1, 7):
        empty = make_gap_machine(-(1 << q), q)  # no path accepts
        for owner in ("first", "second"):
            good = 0
            for j in range(1 << q):
                if owner == "first":
                    tm = build_upcoup(_point_machine(0, q, j), empty, "")
                    want = Fraction(1)
                else:
                    tm = build_upcoup(empty, _point_machine(0, q, j), "")
                    want = Fraction(0)
                st = run_ptm(tm, "")
                if st.p_post == Fraction(1, 1 << q) and st.p_cond == want:
                    good += 1
            report.check(f"q={q}:{owner}-owner", good, "==", 1 << q)
    report.check_raises(
        "two-paths-raise",
        PromiseViolation,
        lambda: build_upcoup(_point_machine(0, 2, 0), _point_machine(0, 2, 1), ""),
    )
    report.check_raises(
        "no-path-raises",
        PromiseViolation,
        lambda: build_upcoup(make_gap_machine(-4, 2), make_gap_machine(-4, 2), ""),
    )

    def below(q: int, c: int) -> PredicateCircuit:
        """One instance bit, q coins; on w = "1" accepts iff the coins read below c."""
        return tabulated_count_machine({"1": c}, 1, q)

    three_quarters = CoinMachine(below(3, 4), below(3, 3))
    wit = wapp_witness(three_quarters, {"1": 1}, 1)
    ratio = wit.ratio("1")
    report.check("witness-ratio", ratio, "==", Fraction(3, 4))
    report.merge(check_wapp_witness({"1": ratio}, {"1": True}, Fraction(1, 3)), "eps1/3:")
    # margin 1/2 puts the acceptance gate exactly at the ratio; strict fails
    gate = (1 + Fraction(1, 2)) / 2
    report.check("eps1/2-rejected", ratio, "<=", gate)
    report.check("sup-epsilon", 2 * ratio - 1, "==", Fraction(1, 2))

    st = run_ptm(CoinMachine(below(2, 4), below(2, 2)), "1")
    report.check("half-ratio", st.p_cond, "==", Fraction(1, 2))
    report.check("half-fails-in", st.p_cond, "<=", (1 + Fraction(1, 2)) / 2)
    report.check("half-fails-out", st.p_cond, ">=", (1 - Fraction(1, 2)) / 2)

    report.check_raises(
        "wrong-declaration-raises",
        StatsMismatch,
        lambda: wapp_witness(three_quarters, {"1": 3}, 1),
    )
    report.check_raises(
        "no-postselection-raises",
        ZeroPostselection,
        lambda: run_ptm(CoinMachine(below(2, 0), below(2, 0)), "1"),
    )
    return report


_R = 4  # the sharpness exponent at which pp-to-postsel checks its bounds


def scenario_pp_to_postsel(seed: int, fixtures: list) -> WitnessReport:
    """Majority-vote gap pair routed through the 1/4 selector flag."""
    report = WitnessReport("pp-to-postsel")
    mg = tabulated_count_machine({"1": 3, "0": 2}, 1, 2)
    mf = tabulated_count_machine({"1": 3, "0": 4}, 1, 2)  # gaps 2 and 4: f reads w
    labels = {"1": True, "0": False}
    in_bound = Fraction(1, 2) + Fraction(1, 22) - Fraction(12, 11) / (1 << _R)
    out_bound = Fraction(3, 1 << (2 * _R))
    circ = compile_pp_instance(mg, mf)
    for w in sorted(labels):
        st = _stats(circ, w, mg.input_width)
        gg, gf = gap(mg, w).gap, gap(mf, w).gap
        denom = 3 * gg * gg + gf * gf
        report.check(f"w={w}:postsel", st.p_post, "==", Fraction(denom, 1 << 10))
        report.check(f"w={w}:conditional", st.p_cond, "==", Fraction(3 * gg * gg, denom))
        report.check(f"w={w}:floor", st.p_post, ">=", Fraction(1, 1 << 10))
        _check_oracle_joint(report, f"w={w}", circ, w, st, mg.input_width)
        if labels[w]:
            report.check(f"w={w}:cond-high", st.p_cond, ">=", in_bound)
        else:
            report.check(f"w={w}:cond-low", st.p_cond, "<=", out_bound)
    rho = 1 - Fraction(1, 1 << _R)
    report.check("bound-instantiation", 3 * rho**2 / (3 * rho**2 + 1), ">=", in_bound)
    report.check(
        "bound-value-r4",
        Fraction(1, 2) + Fraction(1, 22) - Fraction(12, 11) / 16,
        "==",
        Fraction(21, 44),
    )
    # on w = 0 the g gap vanishes too, so nothing is postselected
    zero_f = compile_pp_instance(mg, tabulated_count_machine({"1": 2, "0": 2}, 1, 2))
    report.check_raises("zero-gaps-raise", ZeroPostselection, lambda: _stats(zero_f, "0", 1))
    return report


def scenario_error_algebra(seed: int, fixtures: list) -> WitnessReport:
    """Exact inequality ladder across the sharpness range r = 2..16."""
    report = WitnessReport("error-algebra")
    for rr in range(2, 17):
        report.merge(verify_error_algebra(rr), f"r={rr}:")
    return report


SCENARIOS = {
    "oracle-equivalence": scenario_oracle_equivalence,
    "gap-squared": scenario_gap_squared,
    "awpp-forward": scenario_awpp_forward,
    "awpp-forward-complement": scenario_awpp_forward_complement,
    "awpp-backward": scenario_awpp_backward,
    "app-forward": scenario_app_forward,
    "wpp-promise": scenario_wpp_promise,
    "postsel-rescale": scenario_postsel_rescale,
    "exact-postsel-adjust": scenario_exact_postsel_adjust,
    "classical-upcoup": scenario_classical_upcoup,
    "pp-to-postsel": scenario_pp_to_postsel,
    "error-algebra": scenario_error_algebra,
}

SUITES = {
    "all": list(SCENARIOS),
    "awpp": ["awpp-forward", "awpp-forward-complement", "awpp-backward"],
    "app": ["app-forward"],
    "wpp": ["wpp-promise"],
    "theorem5": ["postsel-rescale"],
    "theorem6": ["exact-postsel-adjust"],
    "classical": ["classical-upcoup"],
    "pp": ["pp-to-postsel"],
    "algebra": ["error-algebra"],
}


def _run(name: str, seed: int, fixtures: list) -> WitnessReport:
    """One scenario's report; a ``PostselError`` it raises is its one row, ``raised``, failed."""
    try:
        return SCENARIOS[name](seed, fixtures)
    except PostselError as exc:
        raised = Condition("raised", type(exc).__name__, "==", "nothing", False)
        return WitnessReport(name, [raised])


def run_scenario(name: str, seed: int = 42) -> WitnessReport:
    if name not in SCENARIOS:
        raise BadArgument(f"unknown scenario {name!r}")
    return _run(name, seed, _pair_fixtures())


def run_suite(suite: str, seed: int = 42) -> list[WitnessReport]:
    if suite not in SUITES:
        raise BadArgument(f"unknown suite {suite!r}; known suites: {', '.join(SUITES)}")
    fixtures = _pair_fixtures()
    return [_run(name, seed, fixtures) for name in SUITES[suite]]
