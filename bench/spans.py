"""Spans around postsel's public functions, recorded from outside the package.

``Tracer`` replaces each traced function with a wrapper wherever a postsel
module bound it at import (``postsel.scenarios.run``, ``postsel.cli.path_sum``
and so on, plus the values of ``postsel.scenarios.SCENARIOS``), records one
span per call and puts the originals back on exit.  A span has a name
(``<module>.<function>``), a start, an end, the index of its parent span and
the problem sizes of the call.  Sizes are taken outside the span's own
interval but inside the interval its parent sees as covered, so sizing cost
shows only as tracing overhead, never as any layer's self time.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
``.s`` metrics are self time (a span's duration minus the time its child
spans cover) summed over a layer's spans; ``scenarios.<name>.s`` is the
whole duration of that scenario.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from postsel import scenarios

SCENARIO_NAMES = (
    "oracle-equivalence",
    "gap-squared",
    "awpp-forward",
    "awpp-forward-complement",
    "awpp-backward",
    "app-forward",
    "wpp-promise",
    "postsel-rescale",
    "exact-postsel-adjust",
    "classical-upcoup",
    "pp-to-postsel",
    "error-algebra",
)


def _run_pre(circuit, *args, **kwargs):
    return {"width": circuit.width, "gates": len(circuit.gates)}


def _run_post(state):
    return {"live": int(np.count_nonzero(state.coeffs))}


def _path_sum_pre(circuit, *args, **kwargs):
    return {"paths": 1 << circuit.h_count}


def _gap_pre(machine, *args, **kwargs):
    return {"paths": 1 << machine.path_width}


def _expand_post(circuit):
    return {"gates_out": len(circuit.gates)}


COMPILERS = (
    "compile_gap_squared",
    "compile_pair_postsel",
    "compile_pp_instance",
    "compile_fqp_to_exp",
    "mix_with_constant",
    "rescale_postsel",
)

# module -> {function: (size before the call, size of the result)}
TRACED = {
    "simulator": {
        "run": (_run_pre, _run_post),
        "measure_prob": (None, None),
        "joint_prob": (None, None),
    },
    "pathsum": {"path_sum": (_path_sum_pre, None)},
    "counting": {"gap": (_gap_pre, None), "parse_machine": (None, None)},
    "circuit": {
        "parse_circuit": (None, None),
        "expand_mcx": (None, _expand_post),
        "serialize_circuit": (None, None),
    },
    "constructions": {name: (None, None) for name in COMPILERS},
    "classical": {name: (None, None) for name in ("run_ptm", "build_upcoup", "wapp_witness")},
    "witness": {
        name: (None, None)
        for name in ("check_awpp_witness", "check_wapp_witness", "classify_postsel_profile")
    },
    "cli": {"main": (None, None)},
}

# (name, unit, better) of every per-layer metric ``layer_metrics`` reports
LAYER_METRICS = (
    ("simulator.run.s", "s", "lower"),
    ("simulator.run.calls", "count", "lower"),
    ("simulator.run.width_max", "qubits", "lower"),
    ("simulator.run.amp_gate_updates", "count", "lower"),
    ("simulator.run.live_amps", "count", "lower"),
    ("simulator.run.live_frac", "frac", "higher"),
    ("simulator.measure.s", "s", "lower"),
    ("pathsum.path_sum.s", "s", "lower"),
    ("pathsum.path_sum.calls", "count", "lower"),
    ("pathsum.path_sum.paths", "count", "lower"),
    ("pathsum.path_sum.paths_per_s", "1/s", "higher"),
    ("counting.gap.s", "s", "lower"),
    ("counting.gap.calls", "count", "lower"),
    ("counting.gap.paths", "count", "lower"),
    ("counting.gap.paths_per_s", "1/s", "higher"),
    ("counting.parse_machine.s", "s", "lower"),
    ("circuit.parse_circuit.s", "s", "lower"),
    ("circuit.expand_mcx.s", "s", "lower"),
    ("circuit.expand_mcx.gates_out", "count", "lower"),
    ("circuit.serialize_circuit.s", "s", "lower"),
    ("constructions.compile.s", "s", "lower"),
    ("constructions.compile.calls", "count", "lower"),
    ("classical.s", "s", "lower"),
    ("witness.s", "s", "lower"),
    *((f"scenarios.{name}.s", "s", "lower") for name in SCENARIO_NAMES),
    ("cli.main.s", "s", "lower"),
)


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    cover_start: float = 0.0  # start, less the time spent sizing the arguments
    cover_end: float = 0.0  # end, plus the time spent sizing the result
    sizes: dict = field(default_factory=dict)


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, pre, post):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cover_start = perf_counter()
            span = Span(name, stack[-1] if stack else -1)
            if pre is not None:
                span.sizes = pre(*args, **kwargs)
            stack.append(len(spans))
            spans.append(span)
            span.cover_start = cover_start
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                span.cover_end = span.end
            if post is not None:
                span.sizes.update(post(result))
                span.cover_end = perf_counter()
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "postsel"]
        for mod_name, funcs in TRACED.items():
            mod = sys.modules[f"postsel.{mod_name}"]
            for fn_name, (pre, post) in funcs.items():
                orig = getattr(mod, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, pre, post)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, attr, val))
                            setattr(m, attr, wrapper)
        for name, fn in list(scenarios.SCENARIOS.items()):
            self._undo.append((scenarios.SCENARIOS, name, fn))
            scenarios.SCENARIOS[name] = self._wrap(f"scenarios.{name}", fn, None, None)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, val in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = val
            else:
                setattr(owner, key, val)
        self._undo.clear()


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics (names as in ``LAYER_METRICS``) of one traced pass."""
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            covered[sp.parent] += sp.cover_end - sp.cover_start
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sp, cov in zip(spans, covered):
        self_s[sp.name] += (sp.end - sp.start) - cov
        total_s[sp.name] += sp.end - sp.start
        calls[sp.name] += 1

    def sized(name: str, key: str) -> list[int]:
        return [sp.sizes[key] for sp in spans if sp.name == name and key in sp.sizes]

    def rate(count: int, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    def self_of(module: str, names) -> float:
        return sum(self_s[f"{module}.{n}"] for n in names)

    widths = sized("simulator.run", "width")
    returned = [sp.sizes for sp in spans if sp.name == "simulator.run" and "live" in sp.sizes]
    dense = sum(1 << s["width"] for s in returned)
    live = sum(s["live"] for s in returned)
    ps_paths = sum(sized("pathsum.path_sum", "paths"))
    gap_paths = sum(sized("counting.gap", "paths"))
    m = {
        "simulator.run.s": self_s["simulator.run"],
        "simulator.run.calls": calls["simulator.run"],
        "simulator.run.width_max": max(widths, default=0),
        "simulator.run.amp_gate_updates": sum(
            g << w for w, g in zip(widths, sized("simulator.run", "gates"))
        ),
        "simulator.run.live_amps": live,
        "simulator.run.live_frac": live / dense if dense else 0.0,
        "simulator.measure.s": self_of("simulator", ("measure_prob", "joint_prob")),
        "pathsum.path_sum.s": self_s["pathsum.path_sum"],
        "pathsum.path_sum.calls": calls["pathsum.path_sum"],
        "pathsum.path_sum.paths": ps_paths,
        "pathsum.path_sum.paths_per_s": rate(ps_paths, self_s["pathsum.path_sum"]),
        "counting.gap.s": self_s["counting.gap"],
        "counting.gap.calls": calls["counting.gap"],
        "counting.gap.paths": gap_paths,
        "counting.gap.paths_per_s": rate(gap_paths, self_s["counting.gap"]),
        "counting.parse_machine.s": self_s["counting.parse_machine"],
        "circuit.parse_circuit.s": self_s["circuit.parse_circuit"],
        "circuit.expand_mcx.s": self_s["circuit.expand_mcx"],
        "circuit.expand_mcx.gates_out": sum(sized("circuit.expand_mcx", "gates_out")),
        "circuit.serialize_circuit.s": self_s["circuit.serialize_circuit"],
        "constructions.compile.s": self_of("constructions", COMPILERS),
        "constructions.compile.calls": sum(calls[f"constructions.{n}"] for n in COMPILERS),
        "classical.s": self_of("classical", TRACED["classical"]),
        "witness.s": self_of("witness", TRACED["witness"]),
        "cli.main.s": self_s["cli.main"],
    }
    for name in SCENARIO_NAMES:
        m[f"scenarios.{name}.s"] = total_s[f"scenarios.{name}"]
    return m
