"""
Adjusting postselection odds without touching the conditional
=============================================================

Three gadgets reshape P(post=1) exactly:

- gadget_biased_flag: a flag firing with any dyadic probability a/2^m;
- rescale_postsel:    multiply P(post=1) by 2^-t, conditional unchanged;
- compile_fqp_to_exp: force P(post=1) to exactly 2^-h by mixing with a
  constant branch first, at a known, bounded cost to the conditional.
"""

from fractions import Fraction

from postsel import (
    compile_fqp_to_exp,
    default_input,
    gadget_biased_flag,
    measure_prob,
    mixed_conditional,
    postselect_stats,
    rescale_postsel,
    run,
)
from postsel.scenarios import _uniform_circuit


def stats(circ):
    return postselect_stats(circ, default_input(circ))


# a flag that is 1 with probability exactly 5/8
flag = gadget_biased_flag(5, 3)
state = run(flag, default_input(flag))
print("biased flag:", measure_prob(state, flag.output, 1))

# start from a coin circuit: 4 coins, postselect on [coins < 10],
# output on [coins < 9]  ->  P(p=1) = 10/16, P(o=1 | p=1) = 9/10
base = _uniform_circuit(4, 10, 9)
st0 = stats(base)
print("base:     P(p=1) =", st0.p_post, " cond =", st0.p_cond)

# rescaling divides the odds by 2^t and leaves the conditional alone
st1 = stats(rescale_postsel(base, 2))
print("rescaled: P(p=1) =", st1.p_post, " cond =", st1.p_cond)
assert st1.p_cond == st0.p_cond

# forcing P(p=1) to a bare power of two mixes in a fair-coin branch;
# the new conditional is pulled toward 1/2 by a computable, bounded amount
forced = compile_fqp_to_exp(base, 10, 4)
st2 = stats(forced)
print("forced:   P(p=1) =", st2.p_post, " cond =", st2.p_cond)
assert st2.p_post.as_fraction() == Fraction(1, 16)
assert st2.p_cond == mixed_conditional(10, 3, st0.p_cond) == Fraction(3, 4)

# a conditional of 9/10 never lands below 7/10, and one of 1/10 never
# above 3/10, whatever the original numerator f was
for f in range(9, 16):
    assert mixed_conditional(f, 3, Fraction(9, 10)) >= Fraction(7, 10)
    assert mixed_conditional(f, 3, Fraction(1, 10)) <= Fraction(3, 10)
print("mixed-conditional bounds hold for every numerator")
