"""Pass/fail reporting for exact verification conditions.

A report is an ordered list of conditions, each carrying both sides of an
exact comparison rendered as text: ``circuit._frac`` reads each side as a
Fraction, never a float.  Every row is ``lhs op rhs`` with ``op`` one of
``== <= >= < >`` (``check``) or ``in`` (``within``), whose rhs is an
interval such as ``[1/2,1)``: a square bracket is a closed bound, a round
one an open bound.
The witness checks below build all of their rows that way.  Reports
serialize two ways: a human-readable block, and a line-oriented machine
form that is byte-deterministic for fixed inputs so repeated runs can be
diffed directly.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from fractions import Fraction

from ._value import _Value
from .circuit import _exponent, _frac
from .errors import BadArgument

_OPS = {
    "==": operator.eq,
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
}


def _entry(table: Mapping | None, key, role: str):
    """``table[key]``, or a ``BadArgument`` that names the missing table or entry."""
    if table is None:
        raise BadArgument(f"{role} not given")
    if key not in table:
        raise BadArgument(f"{role} has no entry for {key!r}")
    return table[key]


class Condition(_Value):
    def __init__(self, cid: str, lhs: str, op: str, rhs: str, passed: bool):
        self._set(cid, lhs, op, rhs, passed)


class WitnessReport(_Value):
    """A report is mutable, unhashable and compared by value."""

    __hash__ = None
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    def __init__(self, name: str, conditions: list[Condition] | None = None):
        if " " in name:
            raise BadArgument("report names must not contain spaces")
        self._set(name, [] if conditions is None else conditions)

    def add(self, condition: Condition) -> None:
        for part in (condition.cid, condition.lhs, condition.op, condition.rhs):
            if " " in part:
                raise BadArgument(f"condition fields must not contain spaces: {part!r}")
        self.conditions.append(condition)

    def check(self, cid: str, lhs, op: str, rhs) -> bool:
        """Add the exact comparison ``lhs op rhs`` (op one of == <= >= < >),
        both sides rendered as Fractions; returns whether it held."""
        if op not in _OPS:
            raise BadArgument(f"unknown comparison {op!r}; expected one of {' '.join(_OPS)}")
        a, b = _frac(lhs), _frac(rhs)
        ok = _OPS[op](a, b)
        self.add(Condition(cid, str(a), op, str(b), ok))
        return ok

    def within(self, cid: str, x, lo, hi, brackets: str = "[]") -> bool:
        """Add the exact interval test ``x in [lo,hi]``; a ``(`` or ``)`` in
        ``brackets`` makes that bound strict.  Returns whether it held."""
        if len(brackets) != 2 or brackets[0] not in "[(" or brackets[1] not in "])":
            raise BadArgument(f"brackets must be one of [] [) (] (), got {brackets!r}")
        x, lo, hi = _frac(x), _frac(lo), _frac(hi)
        ok = (lo < x if brackets[0] == "(" else lo <= x) and (
            x < hi if brackets[1] == ")" else x <= hi
        )
        self.add(Condition(cid, str(x), "in", f"{brackets[0]}{lo},{hi}{brackets[1]}", ok))
        return ok

    def check_raises(self, cid: str, exc_type: type[BaseException], fn) -> None:
        """Add a condition that passes when ``fn()`` raises ``exc_type``."""
        try:
            fn()
        except exc_type:
            outcome = "raised"
        else:
            outcome = "not-raised"
        self.add(Condition(cid, exc_type.__name__, "==", outcome, outcome == "raised"))

    def merge(self, sub: "WitnessReport", prefix: str = "") -> None:
        """Append every condition of ``sub``, each id prefixed with ``prefix``."""
        for c in sub.conditions:
            self.add(Condition(prefix + c.cid, c.lhs, c.op, c.rhs, c.passed))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def to_text(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        lines = [f"{self.name}: {verdict} ({len(self.conditions)} conditions)"]
        for c in self.conditions:
            mark = "ok " if c.passed else "BAD"
            lines.append(f"  [{mark}] {c.cid}: {c.lhs} {c.op} {c.rhs}")
        return "\n".join(lines) + "\n"

    def to_machine(self) -> str:
        lines = []
        for c in self.conditions:
            result = "pass" if c.passed else "fail"
            lines.append(
                f"scenario={self.name} condition={c.cid} "
                f"lhs={c.lhs} op={c.op} rhs={c.rhs} result={result}"
            )
        return "\n".join(lines) + "\n"


def check_awpp_witness(
    g_of: Mapping[str, int],
    f_of: Mapping[str, int],
    labels: Mapping[str, bool],
    eps: Fraction,
) -> WitnessReport:
    """Check the two-sided acceptance-ratio thresholds of a gap/normalizer
    witness pair.

    For every instance w, with ratio g(w)/f(w) and an exact 0 < eps < 1/2:

        in the language:  1 - eps <= ratio <= 1
        outside:          0 <= ratio <= eps

    f(w) must be strictly positive everywhere; that is itself a reported
    condition.  A label with no g or f entry raises ``BadArgument``.
    """
    eps = _frac(eps)
    if not 0 < eps < Fraction(1, 2):
        raise BadArgument("threshold width must satisfy 0 < eps < 1/2")
    report = WitnessReport("awpp-witness")
    for w in sorted(labels):
        f_w = _entry(f_of, w, "f_of")
        if not report.check(f"w={w}:normalizer-positive", f_w, ">", 0):
            continue
        ratio = _frac(_entry(g_of, w, "g_of")) / _frac(f_w)
        if labels[w]:
            report.within(f"w={w}:in-range", ratio, 1 - eps, 1)
        else:
            report.within(f"w={w}:out-range", ratio, 0, eps)
    return report


def check_wapp_witness(
    ratio_of: Mapping[str, Fraction],
    labels: Mapping[str, bool],
    epsilon: Fraction,
) -> WitnessReport:
    """Check the strict majority-margin thresholds on conditional acceptance
    ratios:

        in the language:  (1 + epsilon) / 2 < ratio <= 1
        outside:          0 <= ratio < (1 - epsilon) / 2

    A label with no ratio entry raises ``BadArgument``.
    """
    epsilon = _frac(epsilon)
    if not 0 < epsilon < 1:
        raise BadArgument("need 0 < epsilon < 1")
    report = WitnessReport("wapp-witness")
    for w in sorted(labels):
        ratio = _entry(ratio_of, w, "ratio_of")
        if labels[w]:
            report.within(f"w={w}:in-range", ratio, (1 + epsilon) / 2, 1, "(]")
        else:
            report.within(f"w={w}:out-range", ratio, 0, (1 - epsilon) / 2, "[)")
    return report


PROFILE_KINDS = ("post", "FP", "size", "aFP", "asize")


def classify_postsel_profile(
    stats_by_instance: Mapping,
    profile: str,
    *,
    f: Mapping | None = None,
    q_exp: int | None = None,
    r2: int | None = None,
) -> WitnessReport:
    """Check that postselection probabilities fit a declared restriction.

    ``stats_by_instance`` maps each instance string to its stats (anything
    with a ``p_post`` attribute, or a bare exact probability).  ``f`` maps
    each instance (or, for the size profiles, each length) to its
    numerator.  Profiles:

    - ``post``:   P(p=1) > 0
    - ``FP``:     P(p=1) == f(w) / 2**q_exp exactly (f = 1: exactly 2**-q_exp)
    - ``size``:   P(p=1) == f(|w|) / 2**q_exp (depends only on length)
    - ``aFP``:    P(p=1) within (1 +- 2**-r2) * f(w) / 2**q_exp
    - ``asize``:  same window with f a function of |w| alone

    A profile that reads ``f`` raises ``BadArgument`` when ``f`` is not given or
    has no entry for an instance (or its length).
    """
    if profile not in PROFILE_KINDS:
        raise BadArgument(f"unknown profile {profile!r}")
    report = WitnessReport(f"postsel-profile-{profile}")
    for w in sorted(stats_by_instance):
        p = stats_by_instance[w]
        pf = getattr(p, "p_post", p)
        cid = f"w={w}"
        if profile == "post":
            report.check(f"{cid}:positive", pf, ">", 0)
            continue
        key = len(w) if profile.endswith("size") else w
        target = _frac(_entry(f, key, "f")) / (1 << _exponent(q_exp, "q_exp"))
        if profile in ("FP", "size"):
            report.check(f"{cid}:equals", pf, "==", target)
        else:  # aFP, asize
            eps = Fraction(1, 1 << _exponent(r2, "r2"))
            report.within(f"{cid}:window", pf, (1 - eps) * target, (1 + eps) * target)
    return report
