"""The package's public surface, and what importing it loads."""

import ast
import builtins
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import postsel

# modules that only compile and verify need
_NOT_FOR_SIMULATE = ("scenarios", "constructions", "counting", "classical", "witness")

# standard-library modules no postsel module imports; site may load typing
_UNUSED = ("dataclasses", "inspect", "typing")

_PROBE = f"""
import json, os, sys
import postsel
after_package = sorted(m for m in sys.modules if m == "numpy" or m.startswith("postsel."))
try:
    postsel.nope
    missing = None
except AttributeError as exc:
    missing = str(exc)
listed = set(postsel.__all__) <= set(dir(postsel))
import postsel.cli
after_cli = sorted(m for m in sys.modules if m.startswith("postsel."))
unused = [[m for m in {_UNUSED!r} if m in sys.modules]]
for name in sorted(os.listdir(postsel.__path__[0])):
    if name.endswith(".py") and name != "_keys.py":
        __import__("postsel." + name[:-3])
unused.append([m for m in {_UNUSED!r} if m in sys.modules])
print(json.dumps([after_package, missing, listed, after_cli, unused]))
"""


def test_every_exported_name_resolves_once():
    assert len(postsel.__all__) == len(set(postsel.__all__))
    missing = [name for name in postsel.__all__ if not hasattr(postsel, name)]
    assert missing == []


def test_no_module_raises_a_builtin_exception():
    """A deliberate refusal is a PostselError (``BadArgument`` where a ValueError
    fits), so the CLI can let any builtin exception, a bug, end in a traceback.
    The one builtin raised is ``__getattr__``'s AttributeError, which PEP 562 asks for."""
    names = {n for n, obj in vars(builtins).items() if isinstance(obj, type)
             and issubclass(obj, BaseException)}
    raised = []
    for path in sorted(Path(postsel.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(exc, ast.Name) and exc.id in names:
                raised.append((path.name, exc.id, node.lineno))
    assert [r[:2] for r in raised] == [("__init__.py", "AttributeError")], raised


def _bool_tests(node, func: str = "") -> list[str]:
    """The enclosing function ('' at module level) of each ``isinstance(..., bool)``
    call under ``node``, a bool among a tuple of types too."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _bool_tests(child, child.name)
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance" and len(child.args) == 2
                and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(child.args[1]))):
            found.append(func)
        found += _bool_tests(child, func)
    return found


def test_one_function_holds_the_integer_rule():
    """``circuit._integer`` is the one integer rule: no other module imports
    ``numbers.Integral``, and no other function asks ``isinstance(..., bool)``."""
    integral, bools = [], []
    for path in sorted(Path(postsel.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module == "numbers"
                    and "Integral" in {a.name for a in node.names}) or (
                    isinstance(node, ast.Attribute) and node.attr == "Integral"
                    and isinstance(node.value, ast.Name) and node.value.id == "numbers"):
                integral.append((path.name, node.lineno))
        bools += [(path.name, func) for func in _bool_tests(tree)]
    assert [name for name, _ in integral] == ["circuit.py"], integral
    assert bools == [("circuit.py", "_integer")], bools


def _pair():
    """A compiled gap pair with P(p=1) = 1/4: a circuit for the mixing gadgets."""
    m1, m2 = postsel.make_gap_machine(2, 1), postsel.make_gap_machine(0, 1)
    return postsel.compile_pair_postsel(m1, m2, 0)


def _coins():
    """A one-coin machine that postselects and outputs 1 on half its paths."""
    half = postsel.tabulated_count_machine({"": 1}, 0, 1)
    return postsel.CoinMachine(half, half)


# each public argument that is compared or shifted: a call that passes it the given
# value, the role its message names, and whether it is an exponent (and so also >= 0)
_INTEGER_ARGUMENTS = {
    "make_gap_machine-v": (lambda v: postsel.make_gap_machine(v, 2), "gap", False),
    "gadget_biased_flag-a": (lambda a: postsel.gadget_biased_flag(a, 2), "a", False),
    "gadget_biased_flag-m": (lambda m: postsel.gadget_biased_flag(1, m), "m", True),
    "emit_less_than-constant": (lambda c: postsel.emit_less_than([0, 1], c, 2), "constant", False),
    "tabulated-input_width": (
        lambda n: postsel.tabulated_count_machine({"": 1}, n, 2), "input_width", True
    ),
    "tabulated-path_width": (
        lambda q: postsel.tabulated_count_machine({"": 1}, 0, q), "path_width", True
    ),
    "tabulated-count": (lambda c: postsel.tabulated_count_machine({"": c}, 0, 2), "count", False),
    "eval_machine-x_val": (
        lambda x: postsel.eval_machine(postsel.make_gap_machine(2, 2), "", x), "path index", False
    ),
    "mixed_conditional-f": (lambda f: postsel.mixed_conditional(f, 1, Fraction(1, 2)), "f", False),
    "mix_with_constant-f": (lambda f: postsel.mix_with_constant(_pair(), f, 2), "f", False),
    "mix_with_constant-h": (lambda h: postsel.mix_with_constant(_pair(), 1, h), "h", True),
    "compile_fqp_to_exp-f": (lambda f: postsel.compile_fqp_to_exp(_pair(), f, 2), "f", False),
    "compile_fqp_to_exp-h": (lambda h: postsel.compile_fqp_to_exp(_pair(), 1, h), "h", True),
    "DyadicRational-n": (lambda n: postsel.DyadicRational(n, 2), "numerator", False),
    "DyadicRational-k": (lambda k: postsel.DyadicRational(1, k), "denominator exponent", True),
    # an integer only: a negative exponent keeps wapp_witness's own range message
    "wapp_witness-fp_exponent": (lambda s: postsel.wapp_witness(_coins(), {"": 1}, s),
                                 "fp_exponent", False),
    "pair_stats-q": (lambda q: postsel.pair_stats(1, 1, q, 0), "q", True),
    "pair_stats-k": (lambda k: postsel.pair_stats(1, 1, 0, k), "k", True),
    "gap_squared_prob-q": (lambda q: postsel.gap_squared_prob(1, q), "q", True),
    # gaps may be negative: an integer only
    "gap_squared_prob-g_val": (lambda g: postsel.gap_squared_prob(g, 2), "gap", False),
    "pair_stats-g1": (lambda g: postsel.pair_stats(g, 1, 1, 0), "gap", False),
    "pair_stats-g2": (lambda g: postsel.pair_stats(1, g, 1, 0), "gap", False),
    "verify_error_algebra-r": (postsel.verify_error_algebra, "r", False),
    "PredicateCircuit-input_width": (
        lambda n: postsel.PredicateCircuit(n, 1, 0, (), 2), "input_width", True
    ),
    "PredicateCircuit-path_width": (
        lambda n: postsel.PredicateCircuit(0, n, 0, (), 2), "path_width", True
    ),
    "PredicateCircuit-ancilla_count": (
        lambda n: postsel.PredicateCircuit(0, 1, n, (), 1), "ancilla_count", True
    ),
}


@pytest.mark.parametrize(
    "name, value",
    [(name, value) for name, (_, _, exponent) in _INTEGER_ARGUMENTS.items()
     for value in ((1.5, True, -1) if exponent else (1.5, True))],
)
def test_integer_arguments_refuse_other_values(name, value):
    """A float or a bool is ``BadArgument`` naming the argument, never a raw TypeError
    from a shift; an exponent below 0 is too, before any ``1 << value`` is built."""
    call, role, _ = _INTEGER_ARGUMENTS[name]
    want = "must be >= 0, got -1" if value == -1 else f"must be an integer, got {value}"
    with pytest.raises(postsel.BadArgument) as exc:
        call(value)
    assert str(exc.value) == f"{role} {want}"


def test_compile_fqp_to_exp_reads_a_numpy_f_as_its_int():
    """A numpy integer f builds the circuit the equal int does: ``f.bit_length()``
    is called on the int that ``_integer`` returns."""
    assert postsel.compile_fqp_to_exp(_pair(), np.int64(1), 2) == postsel.compile_fqp_to_exp(
        _pair(), 1, 2
    )


def _fresh(probe: str, *flags: str) -> str:
    """stdout of ``probe`` run in a new interpreter that imports this checkout."""
    src = str(Path(postsel.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", f"import sys; sys.path.insert(0, {src!r})\n{probe}"],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def test_import_loads_only_what_a_command_uses():
    """Without site (-S), which may load typing itself: ``import postsel``
    loads no submodule, ``import postsel.cli`` only what simulate needs, and
    neither it nor every module but ``_keys`` (numpy's) loads ``_UNUSED``."""
    after_package, missing, listed, after_cli, unused = json.loads(_fresh(_PROBE, "-S"))
    assert after_package == []  # neither numpy nor any submodule
    assert missing == "module 'postsel' has no attribute 'nope'"
    assert listed
    assert "postsel.simulator" in after_cli and "postsel.pathsum" in after_cli
    assert [m for m in after_cli if m.split(".")[1] in _NOT_FOR_SIMULATE] == []
    assert unused == [[], []]  # after import postsel.cli, then after every module


# An H layer on fresh wires, then an x/cx/ccx/mcx network: no H meets a
# varying wire, so nothing merges (the shape of the oracle-dense circuits).
_LAYER = """\
qubits 6
h 0
h 1
h 2
h 3
ccx 0 !1 2
mcx 0 1 !2 3
cx 3 0
x 1
output 2
postselect 3
ancilla 4 0
ancilla 5 1
"""
# the second h meets wire 0 varying: run merges
_MERGE = "qubits 1\nh 0\nh 0\noutput 0\n"
# the pair machines of the console checks in tests/test_cli.py
_M1 = "machine 1 2 0\nccx 1 2 3\nx 3\nccx !0 1 3\naccept 3\n"
_M2 = "machine 1 2 1\nccx 0 1 3\ncx 3 4\nccx 2 3 4\nccx 0 1 3\naccept 4\n"


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["simulate", "--circuit", "{layer}", "--oracle"], False),
        (["oracle", "--circuit", "{layer}"], False),
        (["compile", "--construction", "pair", "--machine1", "{m1}", "--machine2", "{m2}",
          "--k", "1", "-o", "{out}"], False),
        (["simulate", "--circuit", "{merge}", "--oracle"], True),
    ],
    ids=["simulate-oracle", "oracle", "compile-pair", "simulate-merging"],
)
def test_a_command_loads_numpy_only_when_it_merges(tmp_path, argv, loads_numpy):
    """In a fresh interpreter, a command whose engines never leave the
    bit-plane layout exits 0 with numpy unloaded; one that merges loads it."""
    files = {"layer": _LAYER, "merge": _MERGE, "m1": _M1, "m2": _M2}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = {name: str(tmp_path / name) for name in [*files, "out"]}
    argv = [arg.format(**paths) for arg in argv]
    out = _fresh(
        "import contextlib, io, json\n"
        "from postsel import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps([code, 'numpy' in sys.modules]))\n"
    )
    assert json.loads(out) == [0, loads_numpy]


# an H layer on fresh wires, then a classical gate: simulate --oracle never merges
_NOMERGE = "qubits 3\nh 0\nh 1\nccx 0 1 2\noutput 2\n"
# Console commands, run in this order in one interpreter, each with the
# top-level modules that must not be among those loaded since before
# ``import postsel.cli``.  verify merges, so it loads numpy, and numpy 2
# imports inspect itself; the classical track never merges a state.
_FOOTPRINT = [
    (["simulate", "--circuit", "{nomerge}", "--oracle"], {"numpy"}),
    (["compile", "--construction", "pair", "--machine1", "{m1}", "--machine2", "{m2}",
      "--k", "1", "-o", "{out}"], {"numpy", "dataclasses", "inspect"}),
    (["verify", "--suite", "classical", "--format", "machine"], {"numpy"}),
    (["verify", "--suite", "awpp", "--format", "machine"], {"dataclasses"}),
]


def test_console_commands_load_only_what_they_run(tmp_path):
    """With site on, as the installed script runs: site may load typing
    itself, so only the modules loaded after the snapshot count."""
    files = {"nomerge": _NOMERGE, "m1": _M1, "m2": _M2}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = {name: str(tmp_path / name) for name in [*files, "out"]}
    argvs = [[arg.format(**paths) for arg in argv] for argv, _ in _FOOTPRINT]
    out = _fresh(
        "before = set(sys.modules)\n"
        "import contextlib, io, json\n"
        "from postsel import cli\n"
        "steps = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "    steps.append([code, sorted(loaded)])\n"
        "print(json.dumps(steps))\n"
    )
    for (argv, barred), (code, loaded) in zip(_FOOTPRINT, json.loads(out), strict=True):
        assert code == 0, argv
        assert barred.isdisjoint(loaded), (argv, sorted(barred & set(loaded)))
