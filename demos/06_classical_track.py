"""
Classical coin machines with postselection
==========================================

The classical side mirrors the quantum one: a machine flips t fair coins
and computes a (postselect, output) bit pair.  It is written as two counting
machines over the coins: `post` accepts when the run postselects, `joint`
when it postselects with output 1, so two exact accept counts over all 2^t
outcomes give its statistics.  The unique-path coupling turns a promise —
exactly one accepting path across two machines — into a 0/1 conditional.
"""

from fractions import Fraction

from postsel import (
    CoinMachine,
    build_upcoup,
    check_wapp_witness,
    emit_less_than,
    run_ptm,
    wapp_witness,
)
from postsel.circuit import cx, mcx, x
from postsel.counting import PredicateCircuit

def below(c: int) -> PredicateCircuit:
    """Accepts when 3 coins read below c."""
    return PredicateCircuit(0, 3, 0, tuple(emit_less_than([0, 1, 2], c, 3)), 3)

# a machine on 3 coins: postselect when coins < 6, output when coins < 5
tm = CoinMachine(post=below(6), joint=below(5))
st = run_ptm(tm, "")
print("P(p=1) =", st.p_post, "  P(o=1 | p=1) =", st.p_cond)

# unique-path coupling: machine A accepts exactly path 101, machine B never
q = 3
accepts_101 = PredicateCircuit(0, q, 0, (mcx([0, 1, 2], q, [False, True, False]),), q)
never = PredicateCircuit(0, q, 0, (), q)

coupled = build_upcoup(accepts_101, never, "")
st = run_ptm(coupled, "")
print("coupled: P(p=1) =", st.p_post, "  conditional =", st.p_cond)
assert st.p_cond == Fraction(1)          # first machine owns the path

flipped = build_upcoup(never, accepts_101, "")
assert run_ptm(flipped, "").p_cond == Fraction(0)

# declared postselection counts let us extract a counting witness and check the
# strict majority margins at epsilon = 1/2
wit = wapp_witness(coupled, fp_numerators={"": 1}, fp_exponent=q)
print("witness ratio:", wit.ratio(""))
report = check_wapp_witness({"": wit.ratio("")}, {"": True}, Fraction(1, 2))
print(report.to_text())

# a fair-coin conditional of exactly 1/2 clears neither margin
fair = CoinMachine(PredicateCircuit(0, 1, 0, (x(1),), 1), PredicateCircuit(0, 1, 0, (cx(0, 1),), 1))
half = run_ptm(fair, "").p_cond
assert not check_wapp_witness({"": half}, {"": True}, Fraction(1, 2)).passed
assert not check_wapp_witness({"": half}, {"": False}, Fraction(1, 2)).passed
print("boundary conditional 1/2 rejected on both sides")
