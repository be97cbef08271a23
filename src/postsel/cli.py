"""Command-line interface.

Subcommands:

- ``simulate``: exact statistics of a circuit file on an input assignment,
  optionally cross-checked against the branch-enumeration oracle.
- ``compile``: build one of the machine-to-circuit constructions from
  machine files and write the circuit in the text format.  It serves every
  instance: the instance bits open ``simulate``'s and ``oracle``'s ``--input``.
  Only ``fqp2exp`` reads ``compile --input``, the instance it forces.
- ``oracle``: branch-enumeration probability of a constraint set.
- ``verify``: run verification suites and report pass/fail conditions.

Exit codes: 0 success, 1 a verification or cross-check failed, 2 bad input:
a ``PostselError`` (syntax errors, inconsistent parameters, an unknown suite, a
simulated or forced instance on which nothing is postselected; not one raised in a
``verify`` scenario, which fails its ``raised`` row) or a file that cannot be
read.  Any other exception is a bug and ends in a traceback.
The argument parser is built once per process, on the first ``main`` call,
not at import; only a process that calls ``main`` more than once reuses it.

Importing this module loads the circuit reader and the two engines that
``simulate`` and ``oracle`` run (``simulator`` and ``pathsum``, but not
numpy); ``compile`` imports ``counting`` and ``constructions`` when it runs,
and ``verify`` imports ``scenarios``.  numpy is loaded only when an engine
first merges entries that meet (see ``_keys``).  No command loads
``dataclasses``, ``inspect`` or ``typing`` (see ``_value``).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .circuit import _lines, default_input, parse_circuit, serialize_circuit
from .errors import BadArgument, CircuitSyntaxError, PostselError
from .pathsum import path_sum
from .planes import _check_width
from .simulator import PostselStats, _events, joint_prob, run


def _read(path: str) -> str:
    """A text file's contents; a non-ASCII byte is a syntax error on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # the bad byte's line, with line breaks as the statement reader sees them
        line_no = len(_lines(data[: exc.start].decode("ascii")))
        raise CircuitSyntaxError(
            f"non-ASCII byte 0x{data[exc.start]:02x}; files are 7-bit ASCII", line_no
        ) from exc


def _dyadic(p: Fraction) -> str:
    """``p``, whose denominator is a power of two, as the text ``n/2^k`` in lowest terms."""
    return f"{p.numerator}/2^{p.denominator.bit_length() - 1}"


def _input_bits(circ, given):
    _check_width(circ.width)  # before default_input builds a width-long string
    return given if given is not None else default_input(circ)


def _cmd_simulate(args) -> int:
    circ = parse_circuit(_read(args.circuit))
    bits = _input_bits(circ, args.input)
    state = run(circ, bits)
    events = _events(circ)  # read by the simulator and by the oracle alike
    probs = {key: joint_prob(state, cons) for key, cons in events.items()}
    rows = [(key, _dyadic(p)) for key, p in probs.items()]
    if circ.postselect is not None:
        st = PostselStats(probs["prob_postselect"], probs["prob_joint"])
        rows.append(("conditional", str(st.p_cond)))
    status = 0
    if args.oracle:
        matched = True
        for key, cons in events.items():
            g, m = path_sum(circ, bits, cons)
            matched = matched and Fraction(g, 1 << m) == probs[key]
        rows.append(("oracle", "match" if matched else "mismatch"))
        if not matched:
            status = 1
    if args.report == "machine-readable":
        for key, val in rows:
            print(f"{key}={val}")
    else:
        names = {
            "prob_output": "P(output=1)",
            "prob_postselect": "P(postselect=1)",
            "prob_joint": "P(output=1, postselect=1)",
            "conditional": "P(output=1 | postselect=1)",
            "oracle": "oracle cross-check",
        }
        for key, val in rows:
            print(f"{names[key]} = {val}")
    return status


# the options each construction reads besides --machine1
_COMPILE_READS = {
    "gapsq": set(),
    "pp": {"machine2"},
    "pair": {"machine2", "k"},
    "rescale": {"machine2", "k", "t"},
    "fqp2exp": {"machine2", "k", "h", "input"},
}


def _cmd_compile(args) -> int:
    from .constructions import (
        _instance_input,
        compile_fqp_to_exp,
        compile_gap_squared,
        compile_pair_postsel,
        compile_pp_instance,
        pair_stats,
        rescale_postsel,
    )
    from .counting import gap, parse_machine

    kind = args.construction
    given = {opt for opt in set().union(*_COMPILE_READS.values()) if getattr(args, opt) is not None}
    unread = sorted(given - _COMPILE_READS[kind])
    if unread:
        raise BadArgument(f"construction {kind!r} does not read --{', --'.join(unread)}")
    if "machine2" in _COMPILE_READS[kind] and args.machine2 is None:
        raise BadArgument(f"construction {kind!r} needs --machine2")
    m1 = parse_machine(_read(args.machine1))
    m2 = parse_machine(_read(args.machine2)) if args.machine2 else None
    if kind == "gapsq":
        circ = compile_gap_squared(m1)
    elif kind == "pp":
        circ = compile_pp_instance(m1, m2)
    else:
        k = 0 if args.k is None else args.k
        circ = compile_pair_postsel(m1, m2, k)
        if kind == "rescale":
            circ = rescale_postsel(circ, 1 if args.t is None else args.t)
        elif kind == "fqp2exp":
            # the closed form; mix_with_constant checks it against one simulation
            w = args.input or ""
            p = pair_stats(gap(m1, w).gap, gap(m2, w).gap, m1.path_width, k).p_post
            p_exp = p.denominator.bit_length() - 1
            h_exp = p_exp if args.h is None else args.h
            _check_width(circ.width + h_exp + 3)  # the mixed circuit's, before f ~ 2**h is built
            if h_exp < p_exp:
                raise BadArgument(
                    f"need h >= 0 and P(p=1) * 2**h an integer, got P(p=1) = {_dyadic(p)}, "
                    f"h = {h_exp}"
                )
            bits = _instance_input(circ, w, m1.input_width)
            circ = compile_fqp_to_exp(circ, p.numerator << (h_exp - p_exp), h_exp, bits)
    with open(args.output, "w", encoding="ascii") as fh:
        fh.write(serialize_circuit(circ))
    print(
        f"wrote {args.output}: width={circ.width} gates={len(circ.gates)} "
        f"h={circ.h_count}"
    )
    return 0


def _cmd_oracle(args) -> int:
    circ = parse_circuit(_read(args.circuit))
    bits = _input_bits(circ, args.input)
    g, m = path_sum(circ, bits, args.constrain or _events(circ)["prob_output"])
    print(f"g={g}")
    print(f"m={m}")
    print(f"prob={_dyadic(Fraction(g, 1 << m))}")
    return 0


def _cmd_verify(args) -> int:
    from .scenarios import run_suite

    reports = run_suite(args.suite, args.seed)
    chunks = []
    for rep in reports:
        chunks.append(rep.to_machine() if args.format == "machine" else rep.to_text())
    sys.stdout.write("".join(chunks))
    if args.format == "text":
        good = sum(1 for rep in reports if rep.passed)
        print(f"scenarios passed: {good}/{len(reports)}")
    return 0 if all(rep.passed for rep in reports) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postsel",
        description="Exact laboratory for postselected circuits and counting gaps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="exact statistics of a circuit file")
    s.add_argument("--circuit", required=True, help="circuit file")
    s.add_argument("--input", help="input bits, instance first (default: ancilla values, else 0)")
    s.add_argument(
        "--oracle", action="store_true", help="cross-check against branch enumeration"
    )
    s.add_argument(
        "--report", choices=["text", "machine-readable"], default="text"
    )
    s.set_defaults(func=_cmd_simulate)

    c = sub.add_parser("compile", help="build a construction from machine files")
    c.add_argument(
        "--construction",
        required=True,
        choices=["gapsq", "pair", "fqp2exp", "rescale", "pp"],
    )
    c.add_argument("--machine1", required=True, help="machine file")
    c.add_argument("--machine2", help="second machine file (all but gapsq)")
    c.add_argument("--input", help="instance whose P(p=1) is forced (fqp2exp; default: empty)")
    c.add_argument("--k", type=int, help="padding pairs, default 0 (pair/fqp2exp/rescale)")
    c.add_argument("--t", type=int, help="rescale exponent, default 1 (rescale)")
    c.add_argument("--h", type=int, help="make P(p=1) exactly 2**-h (fqp2exp; default: its own h)")
    c.add_argument("-o", "--output", required=True, help="circuit file to write")
    c.set_defaults(func=_cmd_compile)

    o = sub.add_parser("oracle", help="branch-enumeration probability")
    o.add_argument("--circuit", required=True)
    o.add_argument("--input")
    o.add_argument(
        "--constrain",
        nargs=2,
        type=int,
        action="append",
        metavar=("Q", "V"),
        help="require qubit Q to equal V (repeatable; default: output 1)",
    )
    o.set_defaults(func=_cmd_oracle)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", default="all", help="suite to run (default: all)")
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--format", choices=["text", "machine"], default="text")
    v.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PostselError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
