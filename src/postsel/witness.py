"""Pass/fail reporting for exact verification conditions.

A report is an ordered list of conditions, each carrying both sides of an
exact comparison rendered as text (Fractions, dyadics or integers — never
floats).  Reports serialize two ways: a human-readable block, and a
line-oriented machine form that is byte-deterministic for fixed inputs so
repeated runs can be diffed directly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from numbers import Rational
from typing import Callable, Mapping

from .circuit import _integer

_OPS = {
    "==": operator.eq,
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
}


def _frac(v) -> Fraction:
    """An exact value (a ``Rational`` or anything with ``as_fraction``) as a Fraction."""
    if hasattr(v, "as_fraction"):
        return v.as_fraction()
    if not isinstance(v, Rational):
        raise ValueError(f"expected an exact rational value, got {v!r}")
    return Fraction(v)


@dataclass(frozen=True)
class Condition:
    cid: str
    lhs: str
    op: str
    rhs: str
    passed: bool


@dataclass
class WitnessReport:
    name: str
    conditions: list[Condition] = field(default_factory=list)

    def __post_init__(self):
        if " " in self.name:
            raise ValueError("report names must not contain spaces")

    def add(self, condition: Condition) -> None:
        for part in (condition.cid, condition.lhs, condition.op, condition.rhs):
            if " " in part:
                raise ValueError(f"condition fields must not contain spaces: {part!r}")
        self.conditions.append(condition)

    def check(self, cid: str, lhs, op: str, rhs) -> bool:
        """Add the exact comparison ``lhs op rhs`` (op one of == <= >= < >),
        both sides rendered as Fractions; returns whether it held."""
        if op not in _OPS:
            raise ValueError(f"unknown comparison {op!r}; expected one of {' '.join(_OPS)}")
        a, b = _frac(lhs), _frac(rhs)
        ok = _OPS[op](a, b)
        self.add(Condition(cid, str(a), op, str(b), ok))
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
            self.add(replace(c, cid=prefix + c.cid))

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


def _lookup(table, key):
    if isinstance(table, Mapping):
        return table[key]
    if callable(table):
        return table(key)
    return table  # a bare constant


def check_awpp_witness(
    g_of,
    f_of,
    labels: Mapping[str, bool],
    r: int | Fraction,
) -> WitnessReport:
    """Check the two-sided acceptance-ratio thresholds of a gap/normalizer
    witness pair.

    For every instance w, with ratio g(w)/f(w) and eps = 2**-r (or an
    explicit Fraction):

        in the language:  1 - eps <= ratio <= 1
        outside:          0 <= ratio <= eps

    f(w) must be strictly positive everywhere; that is itself a reported
    condition.
    """
    eps = r if isinstance(r, Fraction) else Fraction(1, 1 << _integer(r, "r"))
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("threshold width must satisfy 0 < eps < 1/2")
    report = WitnessReport("awpp-witness")
    for w in sorted(labels):
        f_val = _lookup(f_of, w)
        g_val = _lookup(g_of, w)
        if not report.check(f"w={w}:normalizer-positive", f_val, ">", 0):
            continue
        ratio = _frac(g_val) / _frac(f_val)
        if labels[w]:
            ok = 1 - eps <= ratio <= 1
            report.add(
                Condition(f"w={w}:in-range", str(ratio), "in", f"[{1 - eps},1]", ok)
            )
        else:
            ok = 0 <= ratio <= eps
            report.add(
                Condition(f"w={w}:out-range", str(ratio), "in", f"[0,{eps}]", ok)
            )
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
    """
    epsilon = _frac(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("need 0 < epsilon < 1")
    report = WitnessReport("wapp-witness")
    hi_gate = (1 + epsilon) / 2
    lo_gate = (1 - epsilon) / 2
    for w in sorted(labels):
        ratio = _frac(ratio_of[w])
        if labels[w]:
            ok = hi_gate < ratio <= 1
            report.add(
                Condition(f"w={w}:in-range", str(ratio), "in", f"({hi_gate},1]", ok)
            )
        else:
            ok = 0 <= ratio < lo_gate
            report.add(
                Condition(f"w={w}:out-range", str(ratio), "in", f"[0,{lo_gate})", ok)
            )
    return report


PROFILE_KINDS = ("post", "FP", "size", "aFP", "asize", "exp", "leexp")


def classify_postsel_profile(
    stats_by_instance: Mapping,
    profile: str,
    *,
    f=None,
    q_exp: int | None = None,
    u: int | Callable[[int], int] | None = None,
    r2: int | None = None,
) -> WitnessReport:
    """Check that postselection probabilities fit a declared restriction.

    ``stats_by_instance`` maps each instance string to its stats (anything
    with a ``p_post`` attribute, or a bare exact probability).  Profiles:

    - ``post``:   P(p=1) > 0
    - ``FP``:     P(p=1) == f(w) / 2**q_exp exactly
    - ``size``:   P(p=1) == f(|w|) / 2**q_exp (depends only on length)
    - ``aFP``:    P(p=1) within (1 +- 2**-r2) * f(w) / 2**q_exp
    - ``asize``:  same window with f a function of |w| alone
    - ``exp``:    P(p=1) == 2**-u exactly
    - ``leexp``:  P(p=1) >= 2**-u
    """
    if profile not in PROFILE_KINDS:
        raise ValueError(f"unknown profile {profile!r}")
    report = WitnessReport(f"postsel-profile-{profile}")
    for w in sorted(stats_by_instance):
        p = stats_by_instance[w]
        pf = _frac(getattr(p, "p_post", p))
        cid = f"w={w}"
        if profile == "post":
            report.check(f"{cid}:positive", pf, ">", 0)
            continue
        if profile in ("exp", "leexp"):
            target = Fraction(1, 1 << _integer(u(len(w)) if callable(u) else u, "u"))
        else:
            key = len(w) if profile.endswith("size") else w
            target = _frac(_lookup(f, key)) / (1 << _integer(q_exp, "q_exp"))
        if profile == "leexp":
            report.check(f"{cid}:at-least", pf, ">=", target)
        elif profile in ("FP", "size", "exp"):
            report.check(f"{cid}:equals", pf, "==", target)
        else:  # aFP, asize
            eps = Fraction(1, 1 << _integer(r2, "r2"))
            lo = (1 - eps) * target
            hi = (1 + eps) * target
            ok = lo <= pf <= hi
            report.add(Condition(f"{cid}:window", str(pf), "in", f"[{lo},{hi}]", ok))
    return report
