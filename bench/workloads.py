"""Seeded inputs, items and exact checks for the three benchmark workloads.

Every workload is built from a seed by its constructor (which writes any
circuit or machine files into a work directory) and then run as passes; a
pass runs every item once and returns how many were attempted, how many
failed and how long each timed call took.  An item fails when it raises,
when a CLI call exits non-zero, or when an exact check does not hold.  Program functions are always reached through
their module (``cli.main``, ``counting.gap``), so the span tracer's wrappers
see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from postsel import circuit, cli, counting, scenarios
from postsel.errors import MachineContractError


class CallTimer:
    """Calls into the program through it are timed one by one, in order."""

    def __init__(self):
        self.seconds: list[float] = []

    def __call__(self, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds.append(perf_counter() - t0)


@dataclass
class Pass:
    """One pass: items attempted and failed, and the seconds of each timed call."""

    attempted: int
    failed: int
    call_s: list[float]

    @property
    def seconds(self) -> float:
        return sum(self.call_s)


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _guarded(item_fn, item, call: CallTimer) -> bool:
    """Run one item; an exception counts as a failed item, with its traceback."""
    try:
        return bool(item_fn(item, call))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def _run_items(item_fn, items) -> Pass:
    call = CallTimer()
    failed = sum(not _guarded(item_fn, item, call) for item in items)
    return Pass(len(items), failed, call.seconds)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("ascii"))
        h.update(b"\0")
    return h.hexdigest()


# --- verify-all ---------------------------------------------------------------


def count_verify_failures(code: int, text: str, names: list[str]) -> int:
    """Scenarios (items) that fail the gate: exit code 0 and every row passes.

    A scenario with no row fails; output that is not a machine row, or a
    non-zero exit code with no failing row, fails every scenario.
    """
    rows: dict[str, list[bool]] = {name: [] for name in names}
    for line in text.splitlines():
        fields = dict(f.split("=", 1) for f in line.split(" ") if "=" in f)
        name, result = fields.get("scenario"), fields.get("result")
        if name not in rows or result not in ("pass", "fail"):
            return len(names)
        rows[name].append(result == "pass")
    failed = sum(1 for r in rows.values() if not r or not all(r))
    if code != 0 and failed == 0:
        return len(names)
    return failed


class VerifyAll:
    """``postsel verify --suite all --format machine --seed S``, in-process.

    One item is one scenario.  The seed only changes the randomized
    scenarios; the two heavy ones (``pp-to-postsel`` and
    ``exact-postsel-adjust``) are fixed.
    """

    name = "verify-all"

    def __init__(self, seed: int, workdir: Path):  # writes no files
        self.argv = ["verify", "--suite", "all", "--format", "machine", "--seed", str(seed)]
        self.names = list(scenarios.SUITES["all"])
        self.input_digest = _digest(self.argv)
        self.stdout_sha256: str | None = None
        self.rows = 0

    def run_pass(self) -> Pass:
        """One ``cli.main`` call, timed as a whole: its scenarios run inside it."""
        call = CallTimer()
        try:
            code, text = call(_call_cli, self.argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return Pass(len(self.names), len(self.names), call.seconds)
        failed = count_verify_failures(code, text, self.names)
        sha = hashlib.sha256(text.encode("ascii")).hexdigest()
        if self.stdout_sha256 is None:
            self.stdout_sha256, self.rows = sha, len(text.splitlines())
        elif sha != self.stdout_sha256:
            # the machine output must be byte-identical for a fixed seed
            failed = len(self.names)
        return Pass(len(self.names), failed, call.seconds)

    def sizes(self) -> dict:
        return {
            "scenarios": len(self.names),
            "rows": self.rows,
            "stdout_sha256": self.stdout_sha256,
            "seeded": "randomized scenarios only; pp-to-postsel and exact-postsel-adjust are fixed",
        }


# --- oracle-dense -------------------------------------------------------------


def dense_circuit(rng: random.Random, hq: int, n_anc: int) -> circuit.Circuit:
    """A Hadamard on each of ``hq`` data qubits, then a random x/cx/ccx/mcx network.

    The ``n_anc`` declared ancillas are never touched by the network;
    ``expand_mcx`` borrows them for the 3-control ``mcx`` gates.  The
    Hadamard layer makes 2**hq basis states live and the classical network
    only permutes them, so a quarter or more of the dense vector is nonzero.
    """
    width = hq + n_anc
    data = range(hq)
    gates = [circuit.h(q) for q in data]
    n_ctls = [0, 1, 2, 3] * hq  # 4*hq network gates: the same mix on every seed
    rng.shuffle(n_ctls)
    for n_ctl in n_ctls:
        qs = rng.sample(data, n_ctl + 1)
        gates.append(circuit.mcx(qs[:-1], qs[-1], [rng.random() < 0.3 for _ in qs[:-1]]))
    out, post = rng.sample(data, 2)
    ancillas = tuple((q, rng.randint(0, 1)) for q in range(hq, width))
    return circuit.Circuit(width, tuple(gates), out, post, ancillas)


def _fraction(text: str) -> Fraction:
    """Exact value of a ``n/2^k`` dyadic as printed by the CLI."""
    n, k = text.split("/2^")
    return Fraction(int(n), 1 << int(k))


def _keyed(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


@dataclass(frozen=True)
class DenseItem:
    path: Path
    circuit: circuit.Circuit


def run_dense_item(item: DenseItem, call: CallTimer) -> bool:
    """simulate + oracle on one file; prob_joint must equal the oracle prob."""
    text = item.path.read_text(encoding="ascii")
    if call(circuit.serialize_circuit, call(circuit.parse_circuit, text)) != text:
        return False
    path, out, post = str(item.path), str(item.circuit.output), str(item.circuit.postselect)
    code_s, sim = call(_call_cli, ["simulate", "--circuit", path, "--report", "machine-readable"])
    code_o, orc = call(
        _call_cli, ["oracle", "--circuit", path, "--constrain", out, "1", "--constrain", post, "1"]
    )
    if code_s != 0 or code_o != 0:
        return False
    return _fraction(_keyed(sim)["prob_joint"]) == _fraction(_keyed(orc)["prob"])


class OracleDense:
    """Seeded dense-support circuit files through the ``simulate``/``oracle`` CLI."""

    name = "oracle-dense"
    # (Hadamards, ancillas) per circuit: widths 17-20 with 16-19 Hadamards.
    # Sizes are fixed so every seed asks for the same amount of work.
    SHAPES = ((16, 1), (16, 2), (17, 1), (17, 2), (18, 1), (18, 2), (19, 1), (19, 1))

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"{seed}:oracle-dense")
        workdir.mkdir(parents=True, exist_ok=True)
        self.items = []
        texts = []
        for i, (hq, n_anc) in enumerate(self.SHAPES):
            circ = dense_circuit(rng, hq, n_anc)
            text = circuit.serialize_circuit(circ)
            path = workdir / f"dense{i:02d}.circ"
            path.write_text(text, encoding="ascii")
            self.items.append(DenseItem(path, circ))
            texts.append(text)
        self.input_digest = _digest(texts)

    def run_pass(self) -> Pass:
        return _run_items(run_dense_item, self.items)

    def sizes(self) -> dict:
        circs = [item.circuit for item in self.items]
        return {
            "widths": [c.width for c in circs],
            "hadamards": [c.h_count for c in circs],
            "gates": [len(c.gates) for c in circs],
            "expanded_gates": [len(circuit.expand_mcx(c).gates) for c in circs],
            "oracle_paths": sum(1 << c.h_count for c in circs),
            "dense_amplitudes": sum(1 << c.width for c in circs),
        }


# --- gap-count ----------------------------------------------------------------


def gap_machine(
    rng: random.Random, n_in: int, q: int, n_anc: int, dirty: bool
) -> counting.PredicateCircuit:
    """Random predicate machine over ``n_in`` instance and ``q`` path bits.

    Each scratch bit is computed from the data bits, three accept terms XOR
    into the accept flag over data and scratch, and the scratch is then
    uncomputed.  A dirty machine also flips scratch bit 0 on one path
    pattern near the end of the enumeration order, so the contract breaks
    only after almost every path is evaluated.
    """
    data = n_in + q
    scratch = range(data, data + n_anc)
    accept = data + n_anc

    def term(pool, n_ctl, target):
        ctls = rng.sample(pool, n_ctl)
        return circuit.mcx(ctls, target, [rng.random() < 0.5 for _ in ctls])

    compute = [term(range(data), 3, s) for s in scratch]
    accepts = [term(range(accept), n_ctl, accept) for n_ctl in (1, 2, 3)]
    gates = compute + accepts + compute[::-1]
    if dirty:
        path = range(n_in, data)
        negs = [i < 3 and rng.random() < 0.5 for i in range(q)]
        gates.append(circuit.mcx(path, data, negs))
    return counting.PredicateCircuit(n_in, q, n_anc, tuple(gates), accept)


@dataclass(frozen=True)
class GapItem:
    path: Path
    machine: counting.PredicateCircuit
    w: str
    c: int  # scale factor for scale_gap; 0 marks a dirty machine

    @property
    def dirty(self) -> bool:
        return self.c == 0


def run_gap_item(item: GapItem, call: CallTimer) -> bool:
    """gap(m, w) plus its exact identities; a dirty machine must raise."""
    m = call(counting.parse_machine, item.path.read_text(encoding="ascii"))
    if m != item.machine or call(counting.parse_machine, call(counting.serialize_machine, m)) != m:
        return False
    if item.dirty:
        try:
            call(counting.gap, m, item.w)
        except MachineContractError:
            return True
        return False
    g = call(counting.gap, m, item.w)
    q = m.path_width
    complement = call(counting.complement_machine, m)
    scaled = call(counting.scale_gap, m, item.c)
    made = call(counting.make_gap_machine, g.gap, q)
    tab = call(counting.tabulated_count_machine, {item.w: g.accepts}, m.input_width, q)
    return (
        g.accepts + g.rejects == 1 << q
        and call(counting.gap, complement, item.w).gap == -g.gap
        and call(counting.gap, scaled, item.w).gap == item.c * g.gap
        and call(counting.gap, made, "").gap == g.gap
        and call(counting.gap, tab, item.w).accepts == g.accepts
    )


def gap_paths(item: GapItem) -> int:
    """Paths the item asks ``gap`` to enumerate (a dirty one: at most)."""
    q = item.machine.path_width
    if item.dirty:
        return 1 << q
    extra = (item.c - 1).bit_length()
    return 4 * (1 << q) + (1 << (q + extra))


class GapCount:
    """Seeded predicate machine files through ``counting.gap`` and its identities."""

    name = "gap-count"
    # (path bits, instance bits, scratch bits, scale factor c or 0 for a
    # dirty machine).  Sizes are fixed so every seed asks for the same work.
    SHAPES = (
        (12, 0, 1, 3), (13, 1, 2, 2), (14, 2, 1, 3), (15, 3, 1, 2),
        (13, 2, 2, 0), (16, 1, 1, 0),
    )

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"{seed}:gap-count")
        workdir.mkdir(parents=True, exist_ok=True)
        self.items = []
        texts = []
        for i, (q, n_in, n_anc, c) in enumerate(self.SHAPES):
            m = gap_machine(rng, n_in, q, n_anc, dirty=c == 0)
            w = "".join(rng.choice("01") for _ in range(n_in))
            text = counting.serialize_machine(m)
            path = workdir / f"machine{i:02d}.txt"
            path.write_text(text, encoding="ascii")
            self.items.append(GapItem(path, m, w, c))
            texts += [text, w]
        self.input_digest = _digest(texts)

    def run_pass(self) -> Pass:
        return _run_items(run_gap_item, self.items)

    def sizes(self) -> dict:
        return {
            "path_bits": [item.machine.path_width for item in self.items],
            "instance_widths": [item.machine.input_width for item in self.items],
            "gates": [len(item.machine.gates) for item in self.items],
            "dirty": sum(item.dirty for item in self.items),
            "paths": sum(gap_paths(item) for item in self.items),
        }


WORKLOADS = {wl.name: wl for wl in (VerifyAll, OracleDense, GapCount)}
