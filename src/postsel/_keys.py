"""The numpy half of the engines, and the one module that imports numpy:
``simulator`` and ``pathsum`` import it at a merge, at the non-popcount half
of ``joint_prob``, at ``path_sum``'s final sort and when a caller reads a
state's ``coeffs``, ``indices`` or ``short``.  Here entries leave the
bit-plane layout (see ``planes``) as uint64 keys, and merge by sorting them.
"""

from __future__ import annotations

import numpy as np

_INT64_SAFE_H = 60
_WORD = np.dtype("<u8")  # little-endian words, so byte k holds bits 8k..8k+7 on any host
_INDEX = np.dtype("<i8")  # basis indices, little-endian so byte k holds qubits 8k..8k+7
# 8x8 bit-matrix transpose inside each uint64 word: (shift, mask) per round
_TRANSPOSE8 = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _ones(h_count: int) -> np.ndarray:
    """The short coefficients of a state before its first merge: one 1."""
    # sum(coeffs**2) == 2**m <= 2**60 keeps all int64 math exact; Python ints above
    return np.ones(1, np.int64 if h_count <= _INT64_SAFE_H else object)


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


def _write_out(coeffs: np.ndarray, sign: int, n: int) -> np.ndarray:
    """The n coefficients: entry j's is coeffs[j % coeffs.size], negated where
    ``sign`` has bit j (a branch copies entry j to entry n + j).  ``coeffs``
    itself when there is nothing to write; otherwise a new array, so that
    ``coeffs`` is never changed."""
    if coeffs.size < n or sign:
        coeffs = np.tile(coeffs, n // coeffs.size)
    if sign:
        np.negative(coeffs, out=coeffs, where=_plane_mask(sign, n))
    return coeffs


def _consolidate(short, planes: list[int], n: int, h_count: int):
    """``run``'s n entries with the entries at one basis state summed and zeros
    dropped, as (short, planes) under a cleared sign plane.  ``short`` is None
    before the first consolidation, when every c_j is +-1."""
    coeffs = _write_out(_ones(h_count) if short is None else short, planes[-1], n)
    keys = _plane_keys(planes[:-1], n, (1 << n) - 1)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    # Exact in int64 for h_count <= _INT64_SAFE_H: each short coefficient is
    # a nonzero integer, so |c| <= c**2, and their squares sum to 2**m0 after
    # the last consolidation, m0 Hadamards in (or 1 == 2**0).  The k Hadamards
    # since then each doubled the entries, so every partial sum is at most
    # sum(|c_j|) <= 2**k * 2**m0 <= 2**h_count.
    c = np.add.reduceat(coeffs[order], starts)
    live = c != 0
    return c[live], _key_planes(keys[starts][live], len(planes) - 1) + [0]


def _weighed_count(short: np.ndarray, keep: int, n: int) -> int:
    """sum(c_j**2) over the entries j in ``keep``: a square ignores its sign, so
    the kept count per residue j % size, weighed by short[j % size]**2.  Each
    count is at most n // size, so every partial sum is at most 2**m, and
    int64 coefficients mean m <= 60: every partial sum fits in int64."""
    counts = np.count_nonzero(_plane_mask(keep, n).reshape(-1, short.size), axis=0)
    return int(np.dot(short * short, counts))


def _squared_path_sums(rows: list[int], n: int, keep: int) -> int:
    """``path_sum``'s g from its kept paths' sign plane and varying wires, ``rows``."""
    keys = np.sort(_plane_keys(rows, n, keep))
    # Exact in int64: |path sum at z| <= 2**H as it adds at most 2**H signs, and
    # g == P * 2**H <= 2**H bounds every square and partial sum of squares, so
    # any H <= 62 is exact (memory caps H far lower).
    z = keys >> np.uint64(1)
    starts = np.flatnonzero(np.concatenate(([True], z[1:] != z[:-1])))
    sums = np.add.reduceat(1 - 2 * (keys & np.uint64(1)).astype(np.int64), starts)
    return int(np.dot(sums, sums))
