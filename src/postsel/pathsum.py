"""Branch-sum probability oracle, independent of the statevector simulator.

Every Hadamard in the gate list splits a computational-basis path in two:
H|b> = (|0> + (-1)**b |1>) / sqrt(2).  Enumerating one branch bit per
Hadamard therefore walks all 2**H paths; each ends in some basis state z with
sign +-1, and the amplitude of z is (sum of signs) / sqrt(2)**H.  The exact
probability of a set of (qubit, value) constraints is then

    g / 2**m   with   g = sum over constrained z of (path sum at z)**2,
               and    m = number of Hadamard gates.

``path_sum`` grows its path arrays as it goes: it starts from the single input
path and doubles the arrays at each Hadamard, so a gate after k Hadamards
costs 2**k.  The total is the sum over gates of 2**(Hadamards before the
gate), plus one sort-and-reduce over the final 2**H paths; no two paths are
merged before it.  Unlike the simulator it handles mcx macros directly (they
act classically on paths) and never builds a statevector, so it cross-checks
the simulator through an entirely different route.

``path_sum_slow`` is a deliberately naive per-path rewrite of the same
definition, kept as a second opinion for tests.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .circuit import Circuit, apply_gate_classical
from .errors import CapExceeded
from .simulator import _basis_index, _constraint_mask, _pin_mask

DEFAULT_MAX_BRANCH = 20


def path_sum(
    circuit: Circuit,
    input_bits,
    constraints,
    *,
    max_branch: int | None = None,
) -> tuple[int, int]:
    """Exact (g, m) with P(constraints) == g / 2**m and m == Hadamard count."""
    cap = DEFAULT_MAX_BRANCH if max_branch is None else max_branch
    hcount = circuit.h_count
    if hcount > cap:
        raise CapExceeded(f"{hcount} Hadamard branchings exceed oracle cap {cap}")
    z0 = _basis_index(circuit, input_bits)
    pin = _constraint_mask(circuit.width, constraints)
    if pin is None:
        return 0, hcount

    state = np.array([z0], dtype=np.int64)
    sign = np.zeros(1, dtype=bool)  # parity of accumulated -1 factors
    for g in circuit.gates:
        t = np.int64(1 << g.target)
        if g.kind == "h":
            lo = state & ~t
            sign = np.concatenate((sign, sign ^ ((state & t) != 0)))
            state = np.concatenate((lo, lo | t))
        else:
            mask, val = _pin_mask((c, int(not neg)) for c, neg in zip(g.controls, g.negated))
            state ^= ((state & mask) == val) * t

    mask, val = pin
    keep = (state & mask) == val
    z = state[keep]
    order = np.argsort(z)
    # Exact in int64: |path sum at z| <= 2**H as it adds at most 2**H signs, and
    # g == P * 2**H <= 2**H bounds every square and partial sum of squares, so
    # any H <= 62 is exact (memory caps H far lower).  Basis indices are >= 0,
    # so prepending -1 makes the first kept path start a group.
    s = 1 - 2 * sign[keep][order].astype(np.int64)
    sums = np.add.reduceat(s, np.flatnonzero(np.diff(z[order], prepend=-1)))
    return int(np.dot(sums, sums)), hcount


def path_sum_slow(circuit: Circuit, input_bits, constraints) -> tuple[int, int]:
    """Reference implementation: explicit depth-first path enumeration."""
    z0 = _basis_index(circuit, input_bits)
    pin = _constraint_mask(circuit.width, constraints)
    if pin is None:
        return 0, circuit.h_count
    mask, val = pin
    gates = circuit.gates
    amps: dict[int, int] = defaultdict(int)
    stack = [(0, z0, 1)]
    while stack:
        gi, z, s = stack.pop()
        while gi < len(gates):
            g = gates[gi]
            if g.kind == "h":
                b = (z >> g.target) & 1
                lo = z & ~(1 << g.target)
                stack.append((gi + 1, lo | (1 << g.target), -s if b else s))
                z = lo
                gi += 1
            else:
                z = apply_gate_classical(z, g)
                gi += 1
        if (z & mask) == val:
            amps[z] += s
    return sum(v * v for v in amps.values()), circuit.h_count
