"""The traced run's counts repeat exactly for the same seed.

Run from the repository root with ``python3 -m pytest perfbench``.
``chain-reach`` and ``spectrum`` run at reduced sizes here; the counts are
produced by the same code at any size.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import artifact.spin_chain  # noqa: E402
import artifact.yang_baxter  # noqa: E402
from tracer import Tracer, counts  # noqa: E402
from workloads import ChainReach, Spectrum, VerifyDefaults  # noqa: E402

SEED = 20260417
CASES = {
    "verify-defaults": (lambda out: VerifyDefaults(out),
                        ("yang_baxter.build_r.calls",
                         "yang_baxter.fit_crossing_shift.evals_per_fit",
                         "tensor_core.Operator.constructions",
                         "reporting.checks")),
    "chain-reach": (lambda out: ChainReach(out, sizes=((2, 3), (3, 2))),
                    ("tensor_core.Operator.matmul.calls",
                     "tensor_core.Operator.matmul.gflop",
                     "spin_chain.build_transfer.calls")),
    "spectrum": (lambda out: Spectrum(out, sizes=((2, 4), (3, 3))),
                 ("tensor_core.embed_at.calls",)),
}


def traced_counts(make, out_dir: Path) -> dict:
    workload = make(out_dir)
    workload.prepare([SEED])
    tracer = Tracer()
    tracer.install()
    try:
        result = workload.run(SEED)
    finally:
        tracer.uninstall()
    assert workload.check(SEED, result) == []
    return counts(tracer.op_metrics())


@pytest.mark.parametrize("name", sorted(CASES))
def test_two_traced_runs_give_the_same_counts(name, tmp_path):
    make, nonzero = CASES[name]
    first = traced_counts(make, tmp_path)
    second = traced_counts(make, tmp_path)
    assert first == second
    for metric in nonzero:
        assert first[metric] > 0, metric


def test_uninstall_restores_every_binding():
    originals = (artifact.spin_chain.build_r, artifact.yang_baxter.build_r,
                 artifact.spin_chain.Operator.__matmul__)
    tracer = Tracer()
    tracer.install()
    assert artifact.spin_chain.build_r is artifact.yang_baxter.build_r
    assert artifact.spin_chain.build_r is not originals[0]
    tracer.uninstall()
    assert (artifact.spin_chain.build_r, artifact.yang_baxter.build_r,
            artifact.spin_chain.Operator.__matmul__) == originals
