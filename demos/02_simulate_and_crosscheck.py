"""
Sparse simulation, postselection, and the path-sum oracle
=========================================================

A circuit is parsed from the plain-text format, run through the exact
sparse statevector simulator, and then cross-checked against the
path-enumeration oracle.  Both routes must agree down to the last bit.
The simulator stores only the live basis states, so a 63-qubit circuit
with three Hadamards costs no more than a 3-qubit one.
"""

from fractions import Fraction

from postsel import (
    default_input,
    joint_prob,
    measure_prob,
    parse_circuit,
    path_sum,
    postselect_stats,
    run,
    serialize_circuit,
)

TEXT = """\
qubits 3
h 0
cx 0 1
h 2
ccx 1 2 0
postselect 2
output 1
"""

circ = parse_circuit(TEXT)
print(serialize_circuit(circ).rstrip())
print()

bits = default_input(circ)                       # all zeros here
state = run(circ, bits)

# raw output distribution, before any postselection
for v in (0, 1):
    print(f"P(output={v}) =", measure_prob(state, circ.output, v))

# statistics conditioned on the postselection qubit reading 1
st = postselect_stats(circ, bits)
print("P(post=1)         =", st.p_post)
print("P(out=1, post=1)  =", st.p_joint)
print("P(out=1 | post=1) =", st.p_cond)

# the oracle sums +-1 path contributions over all Hadamard branches:
# P = g / 2^m with m = number of Hadamards
g, m = path_sum(circ, bits, [(circ.output, 1), (circ.postselect, 1)])
print(f"oracle joint      = {g}/2^{m}")
assert st.p_joint.as_fraction() == Fraction(g, 1 << m)  # exact agreement

# width 63: wires 9, 40 and 62 sit in bytes 1, 5 and 7 of each 64-bit index
WIDE = """\
qubits 63
h 9
h 40
ccx 9 !40 62
h 62
cx 62 9
ccx !9 62 40
h 9
postselect 62
output 40
"""

wide = parse_circuit(WIDE)
wbits = default_input(wide)
wstate = run(wide, wbits)
print()
print(f"width {wide.width}: {wstate.indices.size} live basis states")
pins = {"post=1": [(wide.postselect, 1)], "out=1, post=1": [(wide.output, 1), (wide.postselect, 1)]}
for name, cons in pins.items():
    p = joint_prob(wstate, cons)
    g, m = path_sum(wide, wbits, cons)
    print(f"P({name}) = {p}, oracle {g}/2^{m}")
    assert p.as_fraction() == Fraction(g, 1 << m)  # exact agreement at width 63
print("P(out=1 | post=1) =", postselect_stats(wide, wbits).p_cond)
