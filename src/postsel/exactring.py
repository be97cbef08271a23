"""The exact dyadic value n / 2**k of a Hadamard+Toffoli event probability.

An event probability of such a circuit is a path sum squared over 2**m (a
GapP-style count), so one integer pair carries it exactly.  ``DyadicRational``
stores that pair in canonical form and prints as the literal string
``"n/2^k"`` (9/16 prints as ``9/2^4``).  It carries no arithmetic: every
comparison and every conditional probability goes through ``as_fraction``
and ``fractions.Fraction``.  Amplitudes never need a number type of their
own; the simulator reports one as the integer pair (c, m), meaning
c / sqrt(2)**m.  No value here ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Integral

from ._value import _Value
from .errors import BadArgument


def _reduce_dyadic(n: int, k: int) -> tuple[int, int]:
    """Lower (n, k) to the canonical representative of n / 2**k."""
    if not all(isinstance(v, Integral) and not isinstance(v, bool) for v in (n, k)):
        raise BadArgument(f"DyadicRational({n!r}, {k!r}) needs two integers")
    if k < 0:
        raise BadArgument("denominator exponent must be >= 0")
    if n == 0:
        return 0, 0
    n, k = int(n), int(k)  # numpy integers count, but have no bit_length
    shift = min((n & -n).bit_length() - 1, k)  # n's trailing zero bits, at most k
    return n >> shift, k - shift


class DyadicRational(_Value):
    """Exact n / 2**k, stored canonically (n odd, or n == 0 with k == 0)."""

    def __init__(self, n: int, k: int):
        self._set(*_reduce_dyadic(n, k))

    def as_fraction(self) -> Fraction:
        return Fraction(self.n, 1 << self.k)

    def __str__(self) -> str:
        return f"{self.n}/2^{self.k}"

    def is_zero(self) -> bool:
        return self.n == 0
