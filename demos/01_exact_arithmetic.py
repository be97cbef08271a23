"""
Exact numbers: Fraction probabilities and integer amplitude pairs
=================================================================

Every probability a Hadamard+Toffoli circuit can produce is an integer over
a power of two, g/2^m, where g is a sum of squared integer path sums.  So
every probability the package returns is a fractions.Fraction, its one
exact value type, and an amplitude is the integer pair (c, m), meaning
c/sqrt(2)^m: no floats, and no sqrt(2) arithmetic either.
"""

from fractions import Fraction

from postsel import Circuit, h, joint_prob, measure_prob, run

# a Fraction is kept in lowest terms, so g/2^m has an odd numerator (or m = 0)
p = Fraction(12, 1 << 5)
print("12/2^5 is", p)                          # 3/8

# equality is value equality, at any size, and sums stay exact
tiny = Fraction(1, 1 << 400)
assert tiny == Fraction(1 << 10, 1 << 410)
print("1/2^400 + 1/2^400 == 1/2^399:", tiny + tiny == Fraction(1, 1 << 399))

# one Hadamard: the amplitude of |0> is the pair (1, 1), i.e. 1/sqrt2, and
# its probability c*c/2^m is the Fraction measure_prob returns
st = run(Circuit(1, (h(0),), 0), "0")
c, m = st.amplitude(0)
print(f"H|0>: amplitude of |0> = {c}/sqrt2^{m}, probability", Fraction(c * c, 1 << m))
assert measure_prob(st, 0, 0) == Fraction(c * c, 1 << m) == Fraction(1, 2)

# a sign: H|1> = (|0> - |1>)/sqrt2, so an H on each qubit of |q0 q1> = |10>
# (input "10": qubit 0 is 1) gives |11> the amplitude -1/sqrt2^2; the state
# keeps that sign on a plane that stays two entries long until it is read
st = run(Circuit(2, (h(0), h(1)), 0), "10")
c, m = st.amplitude(0b11)
print(f"(H x H)|10>: amplitude of |11> = {c}/sqrt2^{m}, probability", Fraction(c * c, 1 << m))
assert (c, m) == (-1, 2)
assert joint_prob(st, [(0, 1), (1, 1)]) == Fraction(1, 4)

# interference: after H H the two paths into |1> cancel (+1 - 1 = 0) and the
# two into |0> add up (+1 + 1 = 2); squaring gives c*c/2^m exactly
st = run(Circuit(1, (h(0), h(0)), 0), "0")
for z in (0, 1):
    c, m = st.amplitude(z)
    print(f"HH|0>: amplitude of |{z}> = {c}/sqrt2^{m} -> probability", Fraction(c * c, 1 << m))
assert st.amplitude(1) == (0, 2)
assert measure_prob(st, 0, 0) == 1  # 2*2/2^2: certainty
