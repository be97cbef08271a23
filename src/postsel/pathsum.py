"""Branch-sum probability oracle, a second route to the simulator's numbers.

Every Hadamard in the gate list splits a computational-basis path in two:
H|b> = (|0> + (-1)**b |1>) / sqrt(2).  Enumerating one branch bit per
Hadamard therefore walks all 2**H paths; each ends in some basis state z with
sign +-1, and the amplitude of z is (sum of signs) / sqrt(2)**H.  The exact
probability of a set of (qubit, value) constraints is then

    g / 2**m   with   g = sum over constrained z of (path sum at z)**2,
               and    m = number of Hadamard gates.

``path_sum`` runs all paths at once on bit-planes (see ``planes``), plus a
sign plane marking the paths with an odd number of -1 factors: each Hadamard
(``Planes.branch_signed``) branches the paths and sets sign |= (sign ^
target) << n.  A plane is tiled up to the path count only where it is read
after its last write, so memory follows the planes read after their last
growth: at worst (width + 1) * 2**H / 8 bytes, when every wire is read after
the last Hadamard.  Only at the end are the pinned planes grown and the
constrained paths transposed, once, into keys (z << 1) | sign (z over the
wires that vary, the only planes grown for it), and one sort groups the paths
that end in the same basis state; the gathered bytes take as much again as
the planes they read, plus a few 8-byte words per kept path while the keys
are built and sorted.

Gates other than H are bijections on basis states, so two paths can only
meet at an H whose target wire varies across the live paths.  When every H
finds its target plane 0 or all-ones, the 2**H paths end in distinct basis
states, each with sign +-1, and g is the popcount of the kept paths: no
transpose, no sort, and no numpy, which only the sort imports (``_keys``).

``simulator.run`` runs the same gate loop (``Planes.drive``), but once an H
on a varying wire may have made entries meet, it merges them when its entry
count reaches max(``planes._FLOOR``, twice the count after its last merge)
or the support cap, and at the end; this never merges two paths before its
final sort.  ``run`` also sees the ``expand_mcx`` ladder, where this applies
``mcx`` natively.  ``path_sum_slow``, a deliberately naive per-path rewrite
that shares no plane code (``_amplitudes``), is the independent check of both.
"""

from __future__ import annotations

from collections import defaultdict

from .circuit import Circuit, apply_gate_classical
from .errors import CapExceeded
from .planes import Planes, _basis_index, _constraint_mask

# At the cap the planes take at most (width + 1) * 2**20 / 8 bytes (8 MiB at
# width 63), when every wire is read after the last Hadamard; otherwise only
# the planes read after their last growth count.  The bytes gathered for the
# sort take as much again, and building and sorting the keys of all 2**20
# paths adds about 48 MiB.
DEFAULT_MAX_BRANCH = 20


def _branch_count(circuit: Circuit) -> int:
    """The Hadamard count; ``CapExceeded`` above ``DEFAULT_MAX_BRANCH``."""
    hcount = circuit.h_count
    if hcount > DEFAULT_MAX_BRANCH:
        raise CapExceeded(
            f"{hcount} Hadamard branchings exceed oracle cap {DEFAULT_MAX_BRANCH}"
        )
    return hcount


def path_sum(circuit: Circuit, input_bits, constraints) -> tuple[int, int]:
    """Exact (g, m) with P(constraints) == g / 2**m and m == Hadamard count.

    Raises ``CapExceeded`` above ``DEFAULT_MAX_BRANCH`` Hadamards, and
    ``BadArgument`` if an input bit contradicts a declared ancilla value.
    """
    hcount = _branch_count(circuit)
    z0 = _basis_index(circuit, input_bits)
    pin = _constraint_mask(circuit.width, constraints)
    if pin is None:
        return 0, hcount

    st = Planes(z0, circuit.width)
    meet = st.drive(circuit.gates)  # did some H find its target varying, so two paths may meet?
    keep = st.kept(*pin)
    if not meet or not keep:  # distinct end states, each with sign +-1: g counts them
        return keep.bit_count(), hcount
    # Wires constant on the kept paths, the pinned ones among them, cannot split a group.
    varying = [q for q in range(circuit.width) if not st.constant(q)]
    planes = st.grown([-1, *varying])
    rows = [planes[-1]] + [planes[q] for q in varying if planes[q] & keep not in (0, keep)]
    from . import _keys  # the sort, the only step that needs numpy
    return _keys._squared_path_sums(rows, st.n, keep), hcount


def path_sum_slow(circuit: Circuit, input_bits, constraints) -> tuple[int, int]:
    """Reference implementation: the squares of ``_amplitudes`` at the basis
    states that meet the constraints.  Raises as ``path_sum`` does."""
    hcount = _branch_count(circuit)
    z0 = _basis_index(circuit, input_bits)
    pin = _constraint_mask(circuit.width, constraints)
    if pin is None:
        return 0, hcount
    mask, val = pin
    return sum(c * c for z, c in _amplitudes(circuit, z0).items() if (z & mask) == val), hcount


def _amplitudes(circuit: Circuit, z0: int) -> dict[int, int]:
    """{z: c} with amplitude(z) == c / sqrt(2)**H at every basis state z
    where c != 0, from basis state ``z0``, by explicit depth-first path
    enumeration: the naive reference for ``path_sum`` and ``run``."""
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
        amps[z] += s
    return {z: c for z, c in amps.items() if c}
