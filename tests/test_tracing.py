"""The benchmark's stage-by-stage run, ``benchmarks/tracing.py``, imports
library names and calls the stages one by one: a library change that breaks
a name or a call it relies on fails here, not only in a benchmark run."""

import pytest

from _instances import benchmark_module

# the benchmark's solver tolerance and outsider seed
TOL = 1e-8
OUTSIDER_SEED = 7


@pytest.mark.parametrize("workload", ["many-paths", "many-classes"])
def test_stages_pass_plain_and_traced(tmp_path, workload):
    tracing = benchmark_module("tracing")
    tracer = tracing.Tracer()
    for inst in benchmark_module("instances").write_workload(workload, 1, tmp_path):
        # a roster makes the traced run time the per-user queries too
        roster = tracing.Roster.read(inst.roster) if inst.roster is not None else None
        plain = tracing.run_stages(inst, f"{inst.name}/plain", None, TOL, OUTSIDER_SEED, None)
        traced = tracing.run_stages(inst, inst.name, roster, TOL, OUTSIDER_SEED, tracer)
        assert plain.passed and traced.passed, inst.name
