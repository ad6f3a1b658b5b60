"""perfbench's in-process requests still run against the library.

The benchmark reads the library's values directly: ``BlochEffect(alpha,
rot @ A.avec)`` for its rotated variants, ``np.array_equal(obs.g1.avec,
wt.gvec)`` and ``reference.joint_observable_error`` over the outcomes'
``(alpha, avec)``.  A change to those values' types that the benchmark
cannot read would make every such request fail, so one round of each
workload is served here and every request that is not a known fault must
pass its own checks.
"""

import pytest
import run

import qcoex


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_decide_and_witness_requests_pass_their_checks(workload):
    bench = run.Bench(qcoex, workload, 1, None)
    batch = run.build_round(bench.stream, bench.coexistent_by_program)
    errors = []
    for kind, handler in (("decide", bench.decide), ("witness", bench.witness)):
        cases = [case for case in batch[kind] if not case.fault]
        assert cases
        for case in cases:
            _, error, _ = handler(case)
            if error is not None:
                errors.append(f"{kind} on {case.family}: {error}")
    assert errors == []
