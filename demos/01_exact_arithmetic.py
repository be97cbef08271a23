"""
Exact numbers: dyadic probabilities and integer amplitude pairs
===============================================================

Every probability a Hadamard+Toffoli circuit can produce is an integer over
a power of two, g/2^m, where g is a sum of squared integer path sums.  So
the package needs one exact value type, DyadicRational, and reports an
amplitude as the integer pair (c, m), meaning c/sqrt(2)^m — no floats, and
no sqrt(2) arithmetic either.
"""

from postsel import Circuit, DyadicRational, h, measure_prob, run

# dyadic rationals normalize to an odd numerator (or exponent zero)
p = DyadicRational(12, 5)
print("12/2^5 canonicalizes to", p)            # 3/2^3
print("as a Fraction:", p.as_fraction())

# equality is value equality, at any size; sums go through Fraction
tiny = DyadicRational(1, 400)
assert tiny == DyadicRational(1 << 10, 410)
twice = tiny.as_fraction() + tiny.as_fraction()
print("1/2^400 + 1/2^400 == 1/2^399:", twice == DyadicRational(1, 399).as_fraction())

# one Hadamard: the amplitude of |0> is the pair (1, 1), i.e. 1/sqrt2
st = run(Circuit(1, (h(0),), 0), "0")
c, m = st.amplitude(0)
print(f"H|0>: amplitude of |0> = {c}/sqrt2^{m}, probability", DyadicRational(c * c, m))

# a sign: H|1> = (|0> - |1>)/sqrt2, so an H on each qubit of |q0 q1> = |10>
# (input "10": qubit 0 is 1) gives |11> the amplitude -1/sqrt2^2; the state
# keeps that sign on a plane that stays two entries long until it is read
st = run(Circuit(2, (h(0), h(1)), 0), "10")
c, m = st.amplitude(0b11)
print(f"(H x H)|10>: amplitude of |11> = {c}/sqrt2^{m}, probability", DyadicRational(c * c, m))
assert (c, m) == (-1, 2)

# interference: after H H the two paths into |1> cancel (+1 - 1 = 0) and the
# two into |0> add up (+1 + 1 = 2); squaring gives c*c/2^m exactly
st = run(Circuit(1, (h(0), h(0)), 0), "0")
for z in (0, 1):
    c, m = st.amplitude(z)
    print(f"HH|0>: amplitude of |{z}> = {c}/sqrt2^{m} -> probability", DyadicRational(c * c, m))
assert st.amplitude(1) == (0, 2)
assert measure_prob(st, 0, 0) == DyadicRational(1, 0)  # 2*2/2^2: certainty
