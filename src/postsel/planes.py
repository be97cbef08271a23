"""Bit-plane layout shared by the three engines: ``simulator.run``,
``pathsum.path_sum`` and ``counting.gap``.

A set of n entries (live basis states, or paths) is stored as one Python-int
bit-plane per wire: bit j of ``planes[q]`` is wire q's value in entry j
(bitslicing, Biham FSE 1997), and ``ones`` = 2**n - 1 has a bit for every
entry.  A gate XORs into its target the AND of its control planes (``ones``
for an ``x``), a set of (wire, value) constraints selects the AND of the
pinned planes, and ``branch_signed`` is a Hadamard on every entry at once.
Numpy serves only to leave the layout: ``_plane_keys`` transposes the planes
into one uint64 key per entry, so a circuit has at most ``MAX_WIDTH`` = 63
qubits (qubit 63 would be an int64 index's sign bit).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .circuit import Circuit, Gate, _integer, _pack_bits
from .errors import CapExceeded

MAX_WIDTH = 63
_WORD = np.dtype("<u8")  # little-endian words, so byte k holds bits 8k..8k+7 on any host
# 8x8 bit-matrix transpose inside each uint64 word: (shift, mask) per round
_TRANSPOSE8 = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


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


def _plane_mask(plane: int, n: int) -> np.ndarray:
    """Bit j of ``plane`` as entry j of a length-n bool array."""
    packed = np.frombuffer(plane.to_bytes(-(-n // 8), "little"), np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little").view(bool)


def _transpose_bits(rows: np.ndarray) -> np.ndarray:
    """Bit-matrix transpose of r little-endian bit strings of c bytes (uint8
    ``rows``), as c x 8 x ceil(r / 8) bytes: out[k >> 3, k & 7] is the bit
    string whose bit i is bit k of rows[i].  Eight rows at a time, the bytes
    at one position form an 8x8 bit matrix in one word, transposed in place."""
    n_rows, n_bytes = rows.shape
    blocks = -(-n_rows // 8)
    tiles = np.zeros((n_bytes, 8 * blocks), np.uint8)
    tiles[:, :n_rows] = rows.T
    words = tiles.view(_WORD)
    for shift, m in _TRANSPOSE8:
        t = (words ^ (words >> np.uint64(shift))) & np.uint64(m)
        words ^= t ^ (t << np.uint64(shift))
    return words.view(np.uint8).reshape(n_bytes, blocks, 8).transpose(0, 2, 1)


def _plane_keys(planes: list[int], n: int, keep: int) -> np.ndarray:
    """One uint64 per entry j < n set in ``keep``, in order, whose bit i is bit j
    of planes[i] (at most 64 planes); only bytes where keep has an entry move."""
    n_bytes = -(-n // 8)
    kept = np.frombuffer(keep.to_bytes(n_bytes, "little"), np.uint8)
    at = np.flatnonzero(kept)
    data = bytearray()  # one copy of the planes: cheaper than joining a list of bytes
    for p in planes:
        data += p.to_bytes(n_bytes, "little")
    rows = np.frombuffer(data, np.uint8).reshape(len(planes), n_bytes)
    bits = _transpose_bits(rows if len(at) == n_bytes else rows[:, at])
    keys = np.zeros((len(at), 8, 8), np.uint8)  # (byte position, entry in byte, key byte)
    keys[:, :, : bits.shape[2]] = bits
    return keys.view(_WORD).reshape(-1)[np.unpackbits(kept[at], bitorder="little").view(bool)]


def _key_planes(keys: np.ndarray, n_planes: int) -> list[int]:
    """Inverse of ``_plane_keys``: plane i < n_planes has bit j = bit i of keys[j] >= 0."""
    bits = _transpose_bits(keys.astype(_WORD).view(np.uint8).reshape(-1, 8))
    k = bits.shape[2]
    data = bits.reshape(64, k)[:n_planes].tobytes()
    return [int.from_bytes(data[i : i + k], "little") for i in range(0, len(data), k)]
