"""The benchmark's copies of library constants.

``perfbench/workloads.py`` and ``perfbench/tracing.py`` repeat a few
library constants in the checks they make on the runs they time: the cycle
tolerance, the hunt's verification run and ``detect_cycle``'s default
k_max.  They are read here with ``ast``, without importing the benchmark,
so a change to one side alone fails here instead of leaving the benchmark
to check its runs against stale values.
"""

import ast
from pathlib import Path

import pytest

from gdcycles import analysis, construct

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bench_constant(file, name):
    """The literal a perfbench file assigns to ``name`` at module level."""
    for node in ast.parse((BENCH / file).read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{file} assigns no {name}")


# (perfbench file, its constant, the library value it copies)
COPIES = [
    ("workloads.py", "CYCLE_TOL", analysis.CYCLE_TOL),
    ("tracing.py", "CLOSE_TOL", analysis.CYCLE_TOL),
    ("workloads.py", "HUNT_ITERS", construct.HUNT_ITERS),
    ("workloads.py", "HUNT_K_MAX", construct.HUNT_K_MAX),
    ("workloads.py", "CLASSIFY_K_MAX", analysis.DEFAULT_K_MAX),
    ("tracing.py", "CLOSE_K_MAX", analysis.DEFAULT_K_MAX),
]


@pytest.mark.parametrize("file,name,want", COPIES, ids=[f"{f}-{n}" for f, n, _ in COPIES])
def test_benchmark_copies_equal_library_constants(file, name, want):
    assert bench_constant(file, name) == want
