"""Branch-sum probability oracle, independent of the statevector simulator.

Every Hadamard in the gate list splits a computational-basis path in two:
H|b> = (|0> + (-1)**b |1>) / sqrt(2).  Enumerating one branch bit per
Hadamard therefore walks all 2**H paths; each ends in some basis state z with
sign +-1, and the amplitude of z is (sum of signs) / sqrt(2)**H.  The exact
probability of a set of (qubit, value) constraints is then

    g / 2**m   with   g = sum over constrained z of (path sum at z)**2,
               and    m = number of Hadamard gates.

Unlike the simulator this costs 2**H regardless of width, handles mcx macros
directly (they act classically on paths) and never builds a statevector, so
it cross-checks the simulator through an entirely different route.

``path_sum`` is the vectorized oracle used everywhere; ``path_sum_slow`` is a
deliberately naive per-path rewrite of the same definition, kept as a second
opinion for tests.  Path sums stay below 2**H and squared sums below 2**2H,
so int64 vectors are exact for the default cap of 20 branch qubits.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .circuit import Circuit, apply_gate_classical
from .errors import CapExceeded
from .simulator import _basis_index

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
    constraints = [(int(q), int(v)) for q, v in constraints]
    for q, v in constraints:
        if not 0 <= q < circuit.width:
            raise ValueError(f"constraint qubit {q} outside width {circuit.width}")
        if v not in (0, 1):
            raise ValueError("constraint value must be 0 or 1")

    npaths = 1 << hcount
    state = np.full(npaths, z0, dtype=np.int64)
    sign = np.zeros(npaths, dtype=np.int8)  # parity of accumulated -1 factors
    branch = np.arange(npaths, dtype=np.int64)

    j = 0
    for g in circuit.gates:
        tbit = np.int64(1 << g.target)
        if g.kind == "h":
            out = (branch >> j) & 1
            cur = (state >> g.target) & 1
            sign ^= (cur & out).astype(np.int8)
            state = (state & ~tbit) | (out << g.target)
            j += 1
        else:
            fire = np.ones(npaths, dtype=bool)
            for c, neg in zip(g.controls, g.negated):
                fire &= ((state >> c) & 1) == (0 if neg else 1)
            state[fire] ^= tbit

    keep = np.ones(npaths, dtype=bool)
    for q, v in constraints:
        keep &= ((state >> q) & 1) == v
    z = state[keep]
    if z.size == 0:
        return 0, hcount
    s = 1 - 2 * sign[keep].astype(np.int64)
    order = np.argsort(z, kind="stable")
    z = z[order]
    s = s[order]
    starts = np.concatenate(([0], np.nonzero(np.diff(z))[0] + 1))
    sums = np.add.reduceat(s, starts)
    g_val = int(np.dot(sums, sums))
    return g_val, hcount


def path_sum_slow(circuit: Circuit, input_bits, constraints) -> tuple[int, int]:
    """Reference implementation: explicit depth-first path enumeration."""
    z0 = _basis_index(circuit, input_bits)
    constraints = [(int(q), int(v)) for q, v in constraints]
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
        if all(((z >> q) & 1) == v for q, v in constraints):
            amps[z] += s
    return sum(v * v for v in amps.values()), circuit.h_count
