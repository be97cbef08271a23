"""Bit-plane layout shared by the three engines: ``simulator.run``,
``pathsum.path_sum`` and ``counting.gap``.

A set of n entries (live basis states, or paths) is stored as one Python-int
bit-plane per wire: bit j of ``planes[q]`` is wire q's value in entry j
(bitslicing, Biham FSE 1997), and ``Planes.ones`` = 2**n - 1 has a bit for
every entry.  A gate XORs into its target the AND of its control planes (``ones``
for an ``x``), a set of (wire, value) constraints selects the AND of the
pinned planes, and ``Planes.branch_signed`` is a Hadamard on every entry at
once.  ``Planes`` grows a plane to n entries only where it is read, and
``Planes.drive`` is the one gate loop of ``run`` and ``path_sum``; the state
``run`` returns keeps its ``Planes``, and a constraint ANDs the planes it
pins at their own sizes, leaving them as they were.  This module is pure
Python; only leaving the layout needs numpy, in ``_keys``, which transposes
the planes into one uint64 key per entry, so a circuit has at most
``MAX_WIDTH`` = 63 qubits (qubit 63 would be an int64 index's sign bit).
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, groupby
from operator import attrgetter

from .circuit import Circuit, Gate, _integer, _pack_bits
from .errors import BadArgument, CapExceeded

MAX_WIDTH = 63
# ``drive`` merges no earlier than at this many entries: a merge's numpy calls
# cost about as much on 10 entries as on 1000 (2**10-2**12 measured best).
_FLOOR = 1 << 10
_QUBITS = attrgetter("qubits")


def _check_width(width: int) -> None:
    if width > MAX_WIDTH:
        raise CapExceeded(f"width {width} exceeds the {MAX_WIDTH}-qubit index limit")


def _basis_index(circuit: Circuit, bits) -> int:
    """Basis state of the input bits (bit i = qubit i); enforces ``MAX_WIDTH``,
    and ``BadArgument`` if a bit contradicts a declared ancilla value."""
    _check_width(circuit.width)
    z = _pack_bits(bits, circuit.width)
    for q, v in circuit.ancillas:
        if (z >> q) & 1 != v:
            raise BadArgument(f"ancilla qubit {q} requires input value {v}")
    return z


def _constraint_mask(width: int, constraints) -> tuple[int, int] | None:
    """Validated (mask, value): (z & mask) == value iff all constraints hold; None if two clash."""
    pinned: dict[int, int] = {}
    for q, v in constraints:
        q, v = _integer(q, "constraint qubit"), _integer(v, "constraint value")
        if not 0 <= q < width:
            raise BadArgument(f"constraint qubit {q} outside width {width}")
        if v not in (0, 1):
            raise BadArgument("constraint value must be 0 or 1")
        if pinned.setdefault(q, v) != v:
            return None
    return sum(1 << q for q in pinned), sum(v << q for q, v in pinned.items())


def apply_gates_planes(planes: list, gates: Iterable[Gate], ones) -> None:
    """Apply reversible (non-h) gates to every entry at once, in place.  Only
    ``&`` and ``^`` are used, so a plane may be a Python int or a numpy uint64
    word array.  No operator works in place: a caller's shallow copy of the
    list keeps the planes it had."""
    for g in gates:
        if g.kind == "h":
            raise BadArgument("h has no classical action")
        fire = None
        for c, neg in zip(g.controls, g.negated):
            p = planes[c] ^ ones if neg else planes[c]
            fire = p if fire is None else fire & p
        planes[g.target] = planes[g.target] ^ (ones if fire is None else fire)


def _wires(gates: list[Gate]) -> set[int]:
    """Every wire that ``gates`` read, with no tuple of their length (see ``Planes.drive``)."""
    return set(chain.from_iterable(map(_QUBITS, gates)))


def _tiled(p: int, size: int, n: int) -> int:
    """Plane ``p`` of ``size`` entries tiled to n = size * 2**k entries: each
    doubling copies entry j to entry size + j, as a branch does."""
    while size < n:
        p |= p << size
        size <<= 1
    return p


class Planes:
    """n entries on bit-planes: one plane per wire, then the sign plane.

    Plane q holds ``sizes[q]`` entries, the count at its last write, and
    stands for its bits repeated up to n: every branch since then copied all
    entries.  ``grown`` tiles it up to n where a gate, a merge or the caller
    reads it (``kept`` tiles only its AND), so memory follows the planes read
    after their last growth (at worst (width + 1) * n / 8 bytes), not every
    wire.  Only this class reads ``sizes``.  A branch doubles ``ones`` = 2**n - 1 in place.
    """

    __slots__ = ("planes", "sizes", "n", "ones")

    def __init__(self, z0: int, width: int):
        """The one entry ``z0`` (bit q = wire q), with a clear sign plane."""
        self.planes = [(z0 >> q) & 1 for q in range(width)] + [0]
        self.sizes = [1] * (width + 1)
        self.n = self.ones = 1

    def grown(self, wires: Iterable[int]) -> list[int]:
        """The planes, once each of ``wires`` (-1 is the sign plane) is tiled
        up to n entries in place."""
        planes, sizes, n = self.planes, self.sizes, self.n
        for q in wires:
            if sizes[q] < n:
                planes[q], sizes[q] = _tiled(planes[q], sizes[q], n), n
        return planes

    def constant(self, q: int) -> bool:
        """Does wire q read the same on every entry?  (Tiling keeps that.)"""
        return self.planes[q] in (0, (1 << self.sizes[q]) - 1)

    def kept(self, mask: int, val: int) -> int:
        """The entries that meet a ``_constraint_mask`` (mask, val), ``ones`` if
        no wire is pinned: the pinned planes ANDed in order of size, each at its
        own (``keep ^ (keep & p)`` clears a plane pinned to 0), and only the
        result tiled to n, as tiling commutes with AND; the planes stay as they are."""
        pinned = sorted((self.sizes[q], q) for q in range(mask.bit_length()) if mask >> q & 1)
        size = pinned[0][0] if pinned else self.n  # after a merge n need not be a power of 2
        keep = (1 << size) - 1
        for s, q in pinned:
            keep, size = _tiled(keep, size, s), s
            keep = keep & self.planes[q] if val >> q & 1 else keep ^ (keep & self.planes[q])
        return _tiled(keep, size, self.n)

    def branch_signed(self, target: int) -> None:
        """A Hadamard on wire ``target``: entry n + j copies entry j, except
        that ``target`` reads 0 on the first n entries and 1 on the other n
        (so branching on wires t_0, t_1, ... from 0 sets wire t_i to bit i of
        the entry index), and the new half of the sign plane is XORed with
        the target plane, since H|1> = |0> - |1>.  Only the target plane is
        written, and the sign plane when the target is 1 on some entry."""
        planes, sizes, n = self.planes, self.sizes, self.n
        if planes[target]:
            self.grown((target, -1))
            s = planes[-1]
            planes[-1], sizes[-1] = s | (s ^ planes[target]) << n, n << 1
        high = self.ones << n
        planes[target], sizes[target] = high, n << 1
        self.n, self.ones = n << 1, self.ones | high

    def drive(self, gates: Iterable[Gate], merge=None, cap: int | None = None) -> bool:
        """Run ``gates`` on every entry; True iff some H found its target
        varying, so that two entries may meet.

        A run of reversible gates grows the planes it reads and is then
        ``apply_gates_planes``.  Every H is ``branch_signed``.  With ``merge``
        given, once an H on a varying wire has left entries that may meet,
        every plane is grown and ``merge(planes, n)`` returns the planes and
        count that replace them, the entries at one basis state summed: when
        n reaches max(``_FLOOR``, twice the count after the last merge), when
        n passes ``cap``, and after the last gate, so the entries end
        distinct.  ``CapExceeded`` is raised once an H leaves more than
        ``cap`` entries after that merge.  So at most ``cap`` entries are
        left after every H, and before a merge the planes hold at most
        2 * max(``_FLOOR``, ``cap``).
        """
        meet = pending = False
        due = _FLOOR
        for is_h, run in groupby(gates, key=lambda g: g.kind == "h"):
            if not is_h:
                # A list: tuples of every run length would fill the
                # interpreter's per-length tuple free lists, which then pin
                # allocator arenas (about 2 MB of peak RSS over a verify run).
                run = list(run)
                apply_gates_planes(self.grown(_wires(run)), run, self.ones)
                continue
            for g in run:
                varies = not self.constant(g.target)
                self.branch_signed(g.target)
                meet = meet or varies
                pending = merge is not None and (pending or varies)
                if pending and (self.n >= due or cap is not None and self.n > cap):
                    self._merged(merge)
                    pending, due = False, max(_FLOOR, 2 * self.n)
                if cap is not None and self.n > cap:
                    raise CapExceeded(f"live support {self.n} exceeds cap {cap} at h {g.target}")
        if pending:
            self._merged(merge)
        return meet

    def _merged(self, merge) -> None:
        """Replace every plane by ``merge``'s, on every entry."""
        self.planes, self.n = merge(self.grown(range(len(self.planes))), self.n)
        self.sizes = [self.n] * len(self.planes)
        self.ones = (1 << self.n) - 1  # a merge leaves any n, not a power of 2
