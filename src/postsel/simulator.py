"""Exact sparse statevector simulation of {h, x, cx, ccx} circuits.

A state over n qubits after m Hadamards is stored as its live support: aligned
arrays ``indices`` (int64 basis states, bit i = qubit i) and ``coeffs`` (their
nonzero integer coefficients), with amplitude(indices[j]) == coeffs[j] /
sqrt(2)**m and every unlisted basis state at amplitude 0.  H splits each
entry in two and merges the entries that meet.  A run of X/CX/CCX gates
transposes the indices once into one bit-plane per wire it touches (bit j of
wire q's plane = bit q of indices[j]) and the changed target planes back, and
costs one AND per control and one XOR per gate on indices.size-bit planes
(the ``apply_gates_planes`` kernel path_sum shares).  Cost follows the live
support, at most min(2**n, 2**m), not 2**n (Jaques & Haener,
arXiv:2105.01533).  Unitarity gives sum(coeffs**2) == 2**m, which bounds
every coefficient by 2**(m/2): with at most ``_INT64_SAFE_H`` Hadamards
every coefficient, square and partial sum of squares fits in int64; larger
circuits use object-dtype Python ints.

``CapExceeded`` is raised when the live support outgrows
``DEFAULT_MAX_SUPPORT`` = 2**24 entries (so every circuit of width <= 24 runs)
and for circuits wider than ``MAX_WIDTH`` = 63 qubits, the int64 index limit
shared with path_sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from numbers import Integral

import numpy as np

from .circuit import Circuit, _pack_bits, apply_gates_planes
from .errors import CapExceeded, ZeroPostselection
from .exactring import DyadicRational

DEFAULT_MAX_SUPPORT = 1 << 24
MAX_WIDTH = 63  # qubit 63 would be the sign bit of an int64 basis index
_INT64_SAFE_H = 60  # sum(coeffs**2) == 2**m <= 2**60 keeps all int64 math exact
_INDEX = np.dtype("<i8")  # basis indices, little-endian so byte k holds qubits 8k..8k+7


def _basis_index(circuit: Circuit, bits) -> int:
    """Basis state of the input bits (bit i = qubit i); enforces ``MAX_WIDTH``."""
    if circuit.width > MAX_WIDTH:
        raise CapExceeded(f"width {circuit.width} exceeds the {MAX_WIDTH}-qubit index limit")
    return _pack_bits(bits, circuit.width)


def _constraint_mask(width: int, constraints) -> tuple[int, int] | None:
    """Validated (mask, value): (z & mask) == value iff all constraints hold; None if two clash."""
    pinned: dict[int, int] = {}
    for q, v in constraints:
        if not (isinstance(q, Integral) and isinstance(v, Integral)):
            raise ValueError(f"constraint ({q!r}, {v!r}) is not a pair of integers")
        if not 0 <= q < width:
            raise ValueError(f"constraint qubit {q} outside width {width}")
        if v not in (0, 1):
            raise ValueError("constraint value must be 0 or 1")
        if pinned.setdefault(int(q), int(v)) != v:
            return None
    return sum(1 << q for q in pinned), sum(v << q for q, v in pinned.items())


@dataclass
class QuantumState:
    """coeffs[j] / sqrt(2)**m at basis state indices[j] (bit i = qubit i).

    Every listed coefficient is nonzero; unlisted basis states have amplitude 0.
    """

    width: int
    indices: np.ndarray
    coeffs: np.ndarray
    m: int

    def amplitude(self, z: int) -> tuple[int, int]:
        """Exact (c, m) with amplitude(z) == c / sqrt(2)**m; c == 0 off the support."""
        hit = self.coeffs[self.indices == z]
        return (int(hit[0]) if hit.size else 0), self.m

    def norm_sq(self) -> int:
        return _dot(self.coeffs, self.coeffs)

    def canonical(self) -> "QuantumState":
        """Sort the support and divide out common factors of 2 in sqrt(2)**2 steps."""
        order = np.argsort(self.indices)
        coeffs = self.coeffs[order]
        m = self.m
        while m >= 2 and not np.any(coeffs & 1):
            coeffs >>= 1
            m -= 2
        return QuantumState(self.width, self.indices[order], coeffs, m)

    def to_dense(self) -> np.ndarray:
        """The length-2**width coefficient vector (for small widths)."""
        vec = np.zeros(1 << self.width, dtype=self.coeffs.dtype)
        vec[self.indices] = self.coeffs
        return vec

    def __eq__(self, other):
        if not isinstance(other, QuantumState):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        return (
            a.width == b.width
            and a.m == b.m
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.coeffs, b.coeffs)
        )


@dataclass(frozen=True)
class PostselStats:
    """Exact statistics of a postselecting circuit on one input."""

    p_post: DyadicRational  # P(p = 1)
    p_joint: DyadicRational  # P(o = 1, p = 1)
    p_cond: Fraction  # P(o = 1 | p = 1)


def _dot(a: np.ndarray, b: np.ndarray) -> int:
    if a.dtype == object:
        return int((a * b).sum()) if a.size else 0
    return int(np.dot(a, b))


def _hadamard(idx: np.ndarray, coeffs: np.ndarray, t: np.int64):
    """H on bit t: |z> -> |z & ~t> + (-1)**z_t |z | t>, merged, zeros dropped."""
    key = idx & ~t
    hot = np.count_nonzero(idx & t)
    if hot in (0, idx.size):  # one shared value of bit t: no two outputs meet
        signed = -coeffs if hot else coeffs
        return np.concatenate((key, key | t)), np.concatenate((coeffs, signed))
    # pair up z and z ^ t by sorting on the key z & ~t (groups of one or two)
    order = np.argsort(key)
    key = key[order]
    c = coeffs[order]
    signed = np.where((idx[order] & t) != 0, -c, c)
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    key = key[starts]
    out_idx = np.concatenate((key, key | t))
    out_c = np.concatenate((np.add.reduceat(c, starts), np.add.reduceat(signed, starts)))
    live = out_c != 0
    return out_idx[live], out_c[live]


def _apply_reversible(idx: np.ndarray, gates: list) -> None:
    """Apply x/cx/ccx gates to every index in place, on bit-planes read from
    and XORed back into byte column q >> 3 of each touched wire q."""
    cols = idx.view(np.uint8).reshape(-1, 8)
    wires = {q for g in gates for q in (g.target, *g.controls)}
    col = {k: cols[:, k].copy() for k in {q >> 3 for q in wires}}  # strided access is slow
    planes = [0] * MAX_WIDTH
    for q in wires:
        packed = np.packbits(col[q >> 3] & (1 << (q & 7)), bitorder="little")
        planes[q] = int.from_bytes(packed.tobytes(), "little")
    old = planes.copy()
    apply_gates_planes(planes, gates, (1 << idx.size) - 1)
    for q in wires:
        if flips := planes[q] ^ old[q]:  # only targets can change
            packed = np.frombuffer(flips.to_bytes(-(-idx.size // 8), "little"), np.uint8)
            bits = np.unpackbits(packed, count=idx.size, bitorder="little")
            col[q >> 3] ^= bits * np.uint8(1 << (q & 7))  # not <<: uint8 shifts are slow
    for k, c in col.items():
        cols[:, k] = c


def run(circuit: Circuit, input_bits) -> QuantumState:
    """Exactly simulate an mcx-free circuit on the given basis-state input.

    Raises if the circuit still contains mcx macros (expand first), if the
    circuit is wider than ``MAX_WIDTH`` or its live support outgrows
    ``DEFAULT_MAX_SUPPORT`` entries (``CapExceeded``), or if an input bit
    contradicts a declared ancilla value.
    """
    z0 = _basis_index(circuit, input_bits)
    for q, v in circuit.ancillas:
        if (z0 >> q) & 1 != v:
            raise ValueError(f"ancilla qubit {q} requires input value {v}")
    if any(g.kind == "mcx" for g in circuit.gates):
        raise ValueError("circuit contains unexpanded mcx gates; run expand_mcx first")

    dtype = np.int64 if circuit.h_count <= _INT64_SAFE_H else object
    idx = np.array([z0], dtype=np.int64)
    coeffs = np.ones(1, dtype=dtype)
    m = 0
    for is_h, gates in groupby(circuit.gates, key=lambda g: g.kind == "h"):
        if not is_h:
            idx = idx.astype(_INDEX, copy=False)  # a copy only on big-endian hosts
            _apply_reversible(idx, list(gates))
            continue
        for g in gates:
            idx, coeffs = _hadamard(idx, coeffs, np.int64(1 << g.target))
            m += 1
            if idx.size > DEFAULT_MAX_SUPPORT:
                raise CapExceeded(
                    f"live support {idx.size} exceeds cap {DEFAULT_MAX_SUPPORT} at h {g.target}"
                )
    return QuantumState(circuit.width, idx, coeffs, m)


def _masked_square_sum(state: QuantumState, constraints) -> int:
    pin = _constraint_mask(state.width, constraints)
    if pin is None:
        return 0
    mask, val = pin
    c = state.coeffs[(state.indices & mask) == val]
    return _dot(c, c)


def measure_prob(state: QuantumState, qubit: int, value: int) -> DyadicRational:
    """Exact probability that measuring ``qubit`` yields ``value``."""
    return DyadicRational(_masked_square_sum(state, [(qubit, value)]), state.m)


def joint_prob(state: QuantumState, constraints) -> DyadicRational:
    """Exact probability that every (qubit, value) constraint holds at once."""
    return DyadicRational(_masked_square_sum(state, constraints), state.m)


def postselect_stats(circuit: Circuit, input_bits) -> PostselStats:
    """Run the circuit and return exact (P(p=1), P(o=1,p=1), P(o=1|p=1)).

    The conditional is never rounded: it is returned as an exact Fraction.
    Raises ZeroPostselection when P(p=1) == 0.
    """
    if circuit.postselect is None:
        raise ValueError("circuit declares no postselect qubit")
    state = run(circuit, input_bits)
    p_post = measure_prob(state, circuit.postselect, 1)
    if p_post.is_zero():
        raise ZeroPostselection("P(postselect=1) is exactly zero")
    p_joint = joint_prob(state, [(circuit.output, 1), (circuit.postselect, 1)])
    p_cond = p_joint.as_fraction() / p_post.as_fraction()
    return PostselStats(p_post, p_joint, p_cond)


def ancillas_restored(circuit: Circuit, state: QuantumState) -> bool:
    """True when every declared ancilla is back at its declared value in every
    basis state carrying nonzero amplitude."""
    mask, val = _constraint_mask(circuit.width, circuit.ancillas)
    return bool(np.all((state.indices & mask) == val))
