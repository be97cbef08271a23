"""
The verification suite end to end
=================================

Every named scenario bundles one equivalence into a report of exact
conditions.  This demo runs a few directly, shows the majority-vote
instance compiler, and finishes with the whole deterministic suite.
"""

import io
from contextlib import redirect_stdout

from postsel import (
    SCENARIOS,
    compile_pp_instance,
    default_input,
    make_gap_machine,
    postselect_stats,
    run_scenario,
    run_suite,
    verify_error_algebra,
)
from postsel.cli import main

# the exact error-propagation inequalities, at sharpness r=3
print(verify_error_algebra(3).to_text())
print()

# majority-vote style instances: a (gap, normalizer) pair becomes a
# postselected circuit whose conditional lands on the right side of 1/2
for label, g_val in (("in", 2), ("out", 0)):
    mg = make_gap_machine(g_val, 1)
    mf = make_gap_machine(2, 1)
    circ = compile_pp_instance(mg, mf)
    st = postselect_stats(circ, default_input(circ))
    print(f"{label}: P(p=1) = {st.p_post}  conditional = {st.p_cond}")
print()

# one scenario by name...
print(run_scenario("gap-squared", seed=42).to_text().splitlines()[0])

# ...and the full registry, twice, byte-identical
print("scenarios registered:", ", ".join(SCENARIOS))
reports = run_suite("all", seed=42)
print("suite:", sum(r.passed for r in reports), "of", len(reports), "passed")

buf1, buf2 = io.StringIO(), io.StringIO()
with redirect_stdout(buf1):
    main(["verify", "--suite", "all", "--seed", "42", "--format", "machine"])
with redirect_stdout(buf2):
    main(["verify", "--suite", "all", "--seed", "42", "--format", "machine"])
assert buf1.getvalue() == buf2.getvalue()
print("machine-format reports byte-identical across runs")
