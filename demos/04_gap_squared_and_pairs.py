"""
Encoding gaps into circuit probabilities
========================================

Two compilers turn counting-machine gaps into exact circuit statistics:

- compile_gap_squared:  P(output=1) == G^2 / 2^2q, no postselection;
- compile_pair_postsel: two gaps at once, with P(post=1) carrying the sum
  of squares and the conditional carrying their ratio.
"""

from fractions import Fraction

from postsel import (
    compile_gap_squared,
    compile_pair_postsel,
    default_input,
    expand_mcx,
    gap,
    gap_squared_prob,
    make_gap_machine,
    measure_prob,
    pair_stats,
    postselect_stats,
    run,
)

q = 3
m1 = make_gap_machine(6, q)
m2 = make_gap_machine(-2, q)
g1, g2 = gap(m1, "").gap, gap(m2, "").gap
print("gaps:", g1, g2)

# squared gap, read off a plain output qubit
circ = compile_gap_squared(m1)
flat = expand_mcx(circ)                      # the Toffoli ladders run lowers mcx to
state = run(flat, default_input(flat))
p = measure_prob(state, circ.output, 1)
print("P(o=1) =", p, "   closed form:", gap_squared_prob(g1, q))
assert p == gap_squared_prob(g1, q)

# the pair construction: postselect to divide one square by their sum
pair = compile_pair_postsel(m1, m2, k=0)
st = postselect_stats(pair, default_input(pair))
want = pair_stats(g1, g2, q, 0)               # P(p=1) and P(o=1, p=1) in closed form
print("P(p=1)        =", st.p_post, "   closed form:", want.p_post)
print("P(o=1 | p=1)  =", st.p_cond, "   closed form:", want.p_cond)
assert st == want

# the conditional is the ratio of squares — here 36 / (36 + 4)
assert st.p_cond == Fraction(g1 * g1, g1 * g1 + g2 * g2)

# padding k only shrinks the postselection probability, never the ratio
padded = compile_pair_postsel(m1, m2, k=2)
st2 = postselect_stats(padded, default_input(padded))
print("k=2 rescales P(p=1) to", st2.p_post, "; conditional stays", st2.p_cond)
assert st2.p_cond == st.p_cond
assert st2.p_post == st.p_post / 16
