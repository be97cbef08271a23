"""Bit-plane layout shared by the three engines: ``simulator.run``,
``pathsum.path_sum`` and ``counting.gap``.

A set of n entries (live basis states, or paths) is stored as one Python-int
bit-plane per wire: bit j of ``planes[q]`` is wire q's value in entry j
(bitslicing, Biham FSE 1997), and ``ones`` = 2**n - 1 has a bit for every
entry.  A gate XORs into its target the AND of its control planes (``ones``
for an ``x``), a set of (wire, value) constraints selects the AND of the
pinned planes, and ``branch_signed`` is a Hadamard on every entry at once.
This module is pure Python; only leaving the layout needs numpy, in ``_keys``,
which transposes the planes into one uint64 key per entry, so a circuit has
at most ``MAX_WIDTH`` = 63 qubits (qubit 63 would be an int64 index's sign bit).
"""

from __future__ import annotations

from collections.abc import Iterable

from .circuit import Circuit, Gate, _integer, _pack_bits
from .errors import CapExceeded

MAX_WIDTH = 63


def _check_width(width: int) -> None:
    if width > MAX_WIDTH:
        raise CapExceeded(f"width {width} exceeds the {MAX_WIDTH}-qubit index limit")


def _basis_index(circuit: Circuit, bits) -> int:
    """Basis state of the input bits (bit i = qubit i); enforces ``MAX_WIDTH``,
    and ValueError if a bit contradicts a declared ancilla value."""
    _check_width(circuit.width)
    z = _pack_bits(bits, circuit.width)
    for q, v in circuit.ancillas:
        if (z >> q) & 1 != v:
            raise ValueError(f"ancilla qubit {q} requires input value {v}")
    return z


def _constraint_mask(width: int, constraints) -> tuple[int, int] | None:
    """Validated (mask, value): (z & mask) == value iff all constraints hold; None if two clash."""
    pinned: dict[int, int] = {}
    for q, v in constraints:
        q, v = _integer(q, "constraint qubit"), _integer(v, "constraint value")
        if not 0 <= q < width:
            raise ValueError(f"constraint qubit {q} outside width {width}")
        if v not in (0, 1):
            raise ValueError("constraint value must be 0 or 1")
        if pinned.setdefault(q, v) != v:
            return None
    return sum(1 << q for q in pinned), sum(v << q for q, v in pinned.items())


def _kept(planes: list[int], ones: int, mask: int, val: int) -> int:
    """The entries that meet a ``_constraint_mask`` (mask, val): the AND of
    the pinned planes, each XOR ``ones`` where pinned to 0; ``ones`` if none is."""
    keep = ones
    while mask:
        bit = mask & -mask  # the lowest pinned wire's bit
        q = bit.bit_length() - 1
        keep &= planes[q] if val & bit else planes[q] ^ ones
        mask ^= bit
    return keep


def apply_gates_planes(planes: list, gates: Iterable[Gate], ones) -> None:
    """Apply reversible (non-h) gates to every entry at once, in place.  Only
    ``&`` and ``^`` are used, so a plane may be a Python int or a numpy uint64
    word array.  No operator works in place: a caller's shallow copy of the
    list keeps the planes it had."""
    for g in gates:
        if g.kind == "h":
            raise ValueError("h has no classical action")
        fire = None
        for c, neg in zip(g.controls, g.negated):
            p = planes[c] ^ ones if neg else planes[c]
            fire = p if fire is None else fire & p
        planes[g.target] = planes[g.target] ^ (ones if fire is None else fire)


def branch_planes(planes: list[int], n: int, target: int) -> None:
    """Double ``n`` entries to 2n in place.

    Entry n + j copies entry j, except that wire ``target`` reads 0 on the
    first n entries and 1 on the other n, so branching on wires t_0, t_1, ...
    in turn from one entry sets wire t_i to bit i of the entry index.
    """
    for q, p in enumerate(planes):
        planes[q] = p | p << n
    planes[target] = ((1 << n) - 1) << n


def branch_signed(planes: list[int], n: int, target: int) -> None:
    """A Hadamard on wire ``target`` of ``n`` entries: ``branch_planes``, then
    the new half of the last plane, the sign plane, is XORed with the target
    plane, since H|1> = |0> - |1>: a 1 that stays 1 turns negative."""
    flips = planes[target] << n
    branch_planes(planes, n, target)
    planes[-1] ^= flips
