"""The exact dyadic value n / 2**k of a Hadamard+Toffoli event probability.

An event probability of such a circuit is a path sum squared over 2**m (a
GapP-style count), so one integer pair carries it exactly.  ``DyadicRational``
stores that pair in canonical form and prints as the literal string
``"n/2^k"`` (9/16 prints as ``9/2^4``).  It carries no arithmetic: ``==``
compares canonical pairs, and every order and every conditional probability
goes through ``as_fraction`` and ``fractions.Fraction``.  Amplitudes never need a number type of their
own; the simulator reports one as the integer pair (c, m), meaning
c / sqrt(2)**m.  No value here ever touches a float: n and k are read by
``circuit._integer`` and ``circuit._exponent``, the package's one integer rule.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import _Value
from .circuit import _exponent, _integer


def _reduce_dyadic(n: int, k: int) -> tuple[int, int]:
    """Lower (n, k) to the canonical representative of n / 2**k."""
    n, k = _integer(n, "numerator"), _exponent(k, "denominator exponent")
    if n == 0:
        return 0, 0
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
