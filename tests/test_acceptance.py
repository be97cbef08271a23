"""Acceptance gate: one exact check per required capability, in one home.

Where a ``postsel verify`` scenario makes a check, its criterion reads the
scenario's rows from the seed-42 ``all`` suite, built once per session by
the ``seed42_reports`` fixture: every row must pass, and the rows the claim
rests on must be there, by name and count.  Direct code stays only for
what no scenario checks: 01's generator size bounds, 03's random and
pinned pairs and gap-parity identity, 04's derived witnesses, 06's h = 0
case, mixed-conditional bounds and low-fixture rescale, 08's promise sweep,
09's point-machine witness, 10's gap-machine instances and 11's digests.
Those are rows of a local report, so every failing criterion names the
rows that failed.  Each test prints one ``[pass]``/``[FAIL]`` line; run
``pytest -s tests/test_acceptance.py`` to see them.  All comparisons are
exact: integers, dyadics and Fractions, zero tolerance.
"""

import hashlib
import random
import re
import time
from fractions import Fraction

import pytest
import sympy

from postsel import (
    WitnessReport,
    ZeroPostselection,
    build_upcoup,
    check_awpp_witness,
    check_wapp_witness,
    classify_postsel_profile,
    compile_fqp_to_exp,
    compile_pair_postsel,
    compile_pp_instance,
    default_input,
    gap,
    make_gap_machine,
    mixed_conditional,
    pair_stats,
    path_sum,
    run,
    run_suite,
    wapp_witness,
)
from postsel.cli import main
from postsel.scenarios import (
    _point_machine, _rng, _stats, _uniform_circuit, random_circuit, random_machine,
)


def _problems(report: WitnessReport, counts: dict[str, int] | None = None) -> list[str]:
    """The report's failing rows by name, then each row-name pattern (a
    regular expression) that does not match exactly ``counts[pattern]`` rows."""
    problems = [f"{report.name}:{c.cid}" for c in report.conditions if not c.passed]
    for pattern, want in (counts or {}).items():
        got = sum(1 for c in report.conditions if re.fullmatch(pattern, c.cid))
        if got != want:
            problems.append(f"{report.name}:/{pattern}/ matches {got} rows, not {want}")
    return problems


def _verdict(tag: str, problems: list[str]) -> None:
    shown = ", ".join(problems[:8]) + (f" and {len(problems) - 8} more" if problems[8:] else "")
    print(f"[FAIL] {tag}: {shown}" if problems else f"[pass] {tag}")
    assert not problems, f"{tag}: {shown}"


# -------------------------------------------------------------------
# 1. the two probability routes agree on random circuits
# -------------------------------------------------------------------


def test_acceptance_01_oracle_equivalence(seed42_reports):
    # the scenario's 100 circuits, drawn again from its generator for their sizes
    rng = _rng(42, "oracle-equivalence")
    sizes = WitnessReport("criterion-01")
    postselecting = slow = 0
    for i in range(100):
        circ, bits = random_circuit(rng, allow_mcx=(i % 3 == 2))
        sizes.check(f"circuit{i:03d}:width", circ.width, "<=", 8)
        sizes.check(f"circuit{i:03d}:gates", len(circ.gates), "<=", 24)
        sizes.check(f"circuit{i:03d}:hadamards", circ.h_count, "<=", 12)
        postselecting += circ.postselect is not None
        state = run(circ, bits)
        slow += i < 20 or state.n == 1 << state.m
    sizes.check("slow-rows", slow, "==", 52)  # 20 + 32 later states with every coefficient +-1
    # one row per event of simulator._events: P(o=1) on every circuit, P(p=1)
    # and P(o=1, p=1) on the postselecting ones; and P(o=0) = 1 - P(o=1) on
    # every circuit, the one row that pins a wire to 0; path_sum_slow on the
    # last event of the first 20 circuits and of every later state that no
    # merge left with a coefficient other than +-1
    rows = {
        r"circuit\d{3}:prob_output": 100,
        r"circuit\d{3}:prob_output0": 100,
        r"circuit\d{3}:prob_postselect": postselecting,
        r"circuit\d{3}:prob_joint": postselecting,
        r"circuit0[01]\d:slow": 20,
        r"circuit\d{3}:slow": slow,
    }
    _verdict(
        "criterion 01: oracle equivalence on 100 circuits (exact)",
        _problems(seed42_reports["oracle-equivalence"], rows) + _problems(sizes),
    )


# -------------------------------------------------------------------
# 2. squared-gap compiler hits G**2 / 2**2q exactly
# -------------------------------------------------------------------


def test_acceptance_02_gap_squared_closed_form(seed42_reports):
    rows = {
        "pinned-gap2-q2": 1, "pinned-all-accept": 1, "pinned-self-reading": 1,
        r"machine\d\d:(prob|oracle)": 100,
    }
    _verdict(
        "criterion 02: 50 random machines + pinned G=2,q=2 -> 1/4",
        _problems(seed42_reports["gap-squared"], rows),
    )


# -------------------------------------------------------------------
# 3. two-machine postselection closed forms and the gap-parity identity
# -------------------------------------------------------------------


def test_acceptance_03_pair_closed_forms():
    rng = random.Random(44)
    report = WitnessReport("criterion-03")
    made = 0
    while made < 50:
        in_w = rng.randint(0, 2)
        q = rng.randint(1, 3)
        k = rng.randint(0, 2)
        m1 = random_machine(rng, in_w, q)
        m2 = random_machine(rng, in_w, q)
        w = "".join(rng.choice("01") for _ in range(in_w))
        g1, g2 = gap(m1, w).gap, gap(m2, w).gap
        circ = compile_pair_postsel(m1, m2, k)
        if g1 == 0 and g2 == 0:
            report.check_raises(
                f"pair{made:02d}:zero-gaps-raise", ZeroPostselection, lambda: _stats(circ, w, in_w)
            )
            continue
        ref, st = pair_stats(g1, g2, q, k), _stats(circ, w, in_w)
        report.check(f"pair{made:02d}:postsel", st.p_post, "==", ref.p_post)
        report.check(f"pair{made:02d}:joint", st.p_joint, "==", ref.p_joint)
        report.check(f"pair{made:02d}:conditional", st.p_cond, "==", ref.p_cond)
        made += 1
    pinned = _stats(compile_pair_postsel(make_gap_machine(2, 2), make_gap_machine(-2, 2)))
    report.check("pinned:postsel", pinned.p_post, "==", Fraction(1, 8))
    report.check("pinned:conditional", pinned.p_cond, "==", Fraction(1, 2))
    # gap parity bookkeeping: G == 2h gives G1**2 + G2**2 == 4(h1**2 + h2**2)
    a1, a2 = sympy.symbols("a1 a2", integer=True)
    q = sympy.symbols("q", positive=True, integer=True)
    g1, g2 = 2 * a1 - 2**q, 2 * a2 - 2**q
    h1, h2 = a1 - 2 ** (q - 1), a2 - 2 ** (q - 1)
    identity = sympy.simplify(g1**2 + g2**2 - 4 * (h1**2 + h2**2))
    report.check("gap-parity-identity", identity, "==", 0)
    _verdict(
        "criterion 03: 50 random pairs + pinned 1/8 & 1/2 + G=2h identity",
        _problems(report),
    )


# -------------------------------------------------------------------
# 4. witness recovered from compiled circuits clears the exact thresholds
# -------------------------------------------------------------------


def test_acceptance_04_derived_witness_thresholds(seed42_reports):
    rng = random.Random(45)
    r1 = r2 = 3
    q = 5
    u = 2 * q + 2
    report = WitnessReport("criterion-04")
    labels, g_wit, f_wit, stats, f_table = {}, {}, {}, {}, {}
    cond_gate = 1 - Fraction(1, 1 << r1)
    for i in range(10):
        in_l = i % 2 == 0
        small = rng.choice([2, 4])
        big = rng.randrange(3 * small, 33, 2)  # big**2 >= 9 small**2 > 7 small**2
        gg1, gg2 = (big, small) if in_l else (small, big)
        circ = compile_pair_postsel(make_gap_machine(gg1, q), make_gap_machine(gg2, q))
        label = f"{i:02d}"
        st = stats[label] = _stats(circ)
        labels[label] = in_l
        f_num = f_table[label] = gg1 * gg1 + gg2 * gg2
        # inside every aFP window
        report.check(f"{label}:postsel", st.p_post, "==", Fraction(f_num, 1 << u))
        gj, mj = path_sum(circ, default_input(circ), [(circ.output, 1), (circ.postselect, 1)])
        g_wit[label] = gj << r2
        f_wit[label] = f_num * ((1 << r2) + 1) << (mj - u)
        if in_l:
            report.check(f"{label}:cond-high", st.p_cond, ">=", cond_gate)
        else:
            report.check(f"{label}:cond-low", st.p_cond, "<=", 1 - cond_gate)
    profile = classify_postsel_profile(stats, "aFP", f=f_table, q_exp=u, r2=r2)
    report.merge(profile, "profile:")
    report.merge(check_awpp_witness(g_wit, f_wit, labels, Fraction(1, 3)), "witness:")
    # 49/72 == (1 - 1/8)**2 / (1 + 1/8) >= 2/3
    bounds = {"bound-value": 1, "bound-instantiation": 1}
    _verdict(
        "criterion 04: derived witness from 10 sharp circuits, eps=1/3, 49/72>=2/3",
        _problems(seed42_reports["awpp-backward"], bounds) + _problems(report),
    )


# -------------------------------------------------------------------
# 5. error-propagation inequalities across the sharpness range
# -------------------------------------------------------------------


def test_acceptance_05_error_algebra(seed42_reports):
    names = ("inflate-upper", "deflate-lower", "square-lower", "cross-upper")
    rows = {rf"r=([2-9]|1[0-6]):{name}": 15 for name in names}
    _verdict(
        "criterion 05: exact error algebra for r = 2..16",
        _problems(seed42_reports["error-algebra"], rows),
    )


# -------------------------------------------------------------------
# 6. forcing the postselection probability to an exact power of two
# -------------------------------------------------------------------


def test_acceptance_06_exact_postselection_adjustment(seed42_reports):
    report = WitnessReport("criterion-06")
    # h = 0, below the scenario's h = 1..6 sweep
    final = compile_fqp_to_exp(_uniform_circuit(0, 1, 1), 1, 0)
    gj, mj = path_sum(final, default_input(final), [(final.postselect, 1)])
    report.check("h=0:f=1:postsel", Fraction(gj, 1 << mj), "==", 1)
    for f in range(1, 65):
        t = f.bit_length() - 1
        hi, lo = mixed_conditional(f, t, Fraction(9, 10)), mixed_conditional(f, t, Fraction(1, 10))
        report.check(f"f={f}:cond-floor", hi, ">=", Fraction(7, 10))
        report.check(f"f={f}:cond-ceiling", lo, "<=", Fraction(3, 10))
    lo = _stats(compile_fqp_to_exp(_uniform_circuit(4, 10, 1), 10, 4))
    report.check("fixture-lo:final-postsel", lo.p_post, "==", Fraction(1, 16))
    report.check("fixture-lo:final-cond", lo.p_cond, "==", Fraction(1, 4))
    report.check("fixture-lo:final-cond-ceiling", lo.p_cond, "<=", Fraction(3, 10))
    rows = {
        r"h=[1-6]:f=\d+:postsel": 126,
        r"fixture-hi:(final-postsel|final-cond|cond-floor)|fixture-lo:cond-ceiling": 4,
    }
    _verdict(
        "criterion 06: P(p=1)=2**-h for all h<=6, 0<f<=2**h; 7/10 & 3/10 bounds",
        _problems(seed42_reports["exact-postsel-adjust"], rows) + _problems(report),
    )


# -------------------------------------------------------------------
# 7. rescaling divides the postselection odds, conditional untouched
# -------------------------------------------------------------------


def test_acceptance_07_rescale_preserves_conditional(seed42_reports):
    rows = {r"circuit\d\d:(postsel|conditional)-t[1-3]": 40, r"biased-flag:m=[0-4]:a=\d+": 36}
    _verdict(
        "criterion 07: 2**-t rescale on 20 random circuits, exact",
        _problems(seed42_reports["postsel-rescale"], rows),
    )


# -------------------------------------------------------------------
# 8. promise pairs: floored postselection, two-valued conditional
# -------------------------------------------------------------------


def test_acceptance_08_promise_fixtures():
    report = WitnessReport("criterion-08")
    for q in (1, 2, 3):
        for v in range(2, (1 << q) + 1, 2):
            for in_l in (True, False):
                v1, v2 = (v, 0) if in_l else (0, v)
                st = _stats(
                    compile_pair_postsel(make_gap_machine(v1, q), make_gap_machine(v2, q))
                )
                name = f"q={q}:v={v}:{'in' if in_l else 'out'}"
                report.check(f"{name}:floor", st.p_post, ">=", Fraction(1, 1 << (2 * q)))
                report.check(f"{name}:conditional", st.p_cond, "==", int(in_l))
    _verdict(
        "criterion 08: promise pairs, P(p=1) >= 2**-2q and {0,1} conditional",
        _problems(report),
    )


# -------------------------------------------------------------------
# 9. classical unique-path coupling, exhaustively, plus its witness
# -------------------------------------------------------------------


def test_acceptance_09_unique_path_coupling(seed42_reports):
    # witness extraction at margin 1/2: exact 0/1 ratios validate
    report = WitnessReport("criterion-09")
    q = 3
    pair = (_point_machine(0, q, 5), make_gap_machine(-(1 << q), q))
    for owner, machines in (("first", pair), ("second", pair[::-1])):
        wit = wapp_witness(build_upcoup(*machines, ""), {"": 1}, q)
        ratio = {"": wit.ratio("")}
        report.merge(
            check_wapp_witness(ratio, {"": owner == "first"}, Fraction(1, 2)), f"{owner}-owner:"
        )
    # the coupling exhaustively for q <= 6; the fair-coin conditional fails both orientations
    rows = {r"q=[1-6]:(first|second)-owner": 12, r"half-(ratio|fails-in|fails-out)": 3}
    _verdict(
        "criterion 09: unique-path coupling exhaustive q<=6; eps=1/2 witness",
        _problems(seed42_reports["classical-upcoup"], rows) + _problems(report),
    )


# -------------------------------------------------------------------
# 10. majority-style instances: floor and conditional bounds, r = 2..64
# -------------------------------------------------------------------


def _pp_bounds(r):
    """pp-to-postsel's bounds at sharpness r: in_bound, out_bound and 3 rho**2 / (3 rho**2 + 1)."""
    rho = 1 - Fraction(1, 1 << r)
    in_bound = Fraction(1, 2) + Fraction(1, 22) - Fraction(12, 11) / (1 << r)
    return in_bound, Fraction(3, 1 << (2 * r)), 3 * rho**2 / (3 * rho**2 + 1)


def test_acceptance_10_majority_instance_bounds(seed42_reports):
    report = WitnessReport("criterion-10")
    cond = {}
    for in_l in (True, False):
        mg, mf = make_gap_machine(2 if in_l else 0, 1), make_gap_machine(2, 1)
        st = _stats(compile_pp_instance(mg, mf))
        name = "in" if in_l else "out"
        report.check(f"{name}:strict-floor", st.p_post, ">", Fraction(1, 1 << 6))
        report.check(f"{name}:conditional", st.p_cond, "==", Fraction(3, 4) if in_l else 0)
        cond[name] = st.p_cond
    # the scenario runs at r = 4; the conditionals clear its bounds at every r
    report.check("r=4:in-bound", _pp_bounds(4)[0], "==", Fraction(21, 44))
    report.check("r=4:out-bound", _pp_bounds(4)[1], "==", Fraction(3, 256))
    for r in range(2, 65):
        in_bound, out_bound, instantiation = _pp_bounds(r)
        report.check(f"r={r}:in:cond-high", cond["in"], ">=", in_bound)
        report.check(f"r={r}:out:cond-low", cond["out"], "<=", out_bound)
        report.check(f"r={r}:bound-instantiation", instantiation, ">=", in_bound)
    rows = {
        r"w=[01]:(postsel|conditional|floor|oracle-joint)": 8,
        r"w=1:cond-high|w=0:cond-low|bound-value-r4|bound-instantiation": 4,
    }
    _verdict(
        "criterion 10: majority instances, strict floor, 21/44 & 3/256 bounds, r = 2..64",
        _problems(seed42_reports["pp-to-postsel"], rows) + _problems(report),
    )


# -------------------------------------------------------------------
# 11. the whole verification suite is byte-deterministic and fast
# -------------------------------------------------------------------


# sha256 of `postsel verify --suite all --format machine --seed S`: a change
# that alters any row must update its digest and name the rows in CHANGES.md
SUITE_DIGESTS = {
    42: "caef6ccea14554422915c620e04830f4320922741bcfcf75f61e03e333f6cf56",
    7: "fbda02eb3a2a83a109661542d824cfbe2e701ddd611d0318c7ffa4cb20bb362b",
}


# the scenarios that read the seed; the seed is the only verify setting
_SEEDED = ("oracle-equivalence", "gap-squared", "postsel-rescale")


@pytest.mark.parametrize("seed", [42, 7])
def test_acceptance_11_suite_determinism(capsys, seed42_reports, seed):
    """One CLI run against the in-process suite: the same bytes, pinned.  Away
    from seed 42, exactly the ``_SEEDED`` scenarios print different rows."""
    reports = seed42_reports.values() if seed == 42 else run_suite("all", seed=seed)
    in_process = "".join(rep.to_machine() for rep in reports)
    argv = ["verify", "--suite", "all", "--seed", str(seed), "--format", "machine"]
    t0 = time.monotonic()
    rc = main(argv)
    out = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    held = {
        "exit-code-0": rc == 0,
        "cli-matches-run_suite": out == in_process,
        "over-100-rows": out.count("\n") > 100,
        "digest-pinned": digest == SUITE_DIGESTS[seed],
        "under-300s": elapsed < 300.0,
    }
    if seed != 42:
        for rep in reports:
            seeded = rep.name in _SEEDED
            moved = rep.to_machine() != seed42_reports[rep.name].to_machine()
            held[f"{rep.name}:{'rows-differ' if seeded else 'rows-as-at-42'}"] = moved == seeded
    with capsys.disabled():
        _verdict(
            f"criterion 11: seed-{seed} suite byte-identical in-process and from the CLI "
            f"({elapsed:.1f}s, {out.count(chr(10))} rows, sha256 {digest[:12]})",
            [name for name, ok in held.items() if not ok],
        )
