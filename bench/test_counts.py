"""The traced run's counts must repeat exactly across processes with
different hash seeds; any that does not is named with its spread.

    python3 -m pytest bench/test_counts.py
"""

import json
import os
import time

import pytest

import jobs
import run

COUNT_SUFFIXES = ("_calls", "_rows", "_share", "_tests")
EXACT = ("scalars.witness_max_bits", "report.cert_bytes")


def counted(workload: str, hash_seed: str) -> dict:
    with open(run.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    runner = run.Runner(golden, time.monotonic() + 600, env=env)
    try:
        outcomes = [runner.run(job, "counts")
                    for job in jobs.job_source(workload, run.DEFAULT_SEED)(0)]
    finally:
        runner.close()
    errors = [f"{o['job'].name}: {o['error']}" for o in outcomes if o.get("error")]
    assert not errors, errors
    return {k: v for k, v in run.count_metrics(outcomes).items()
            if k.endswith(COUNT_SUFFIXES) or k in EXACT}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_counts_repeat_across_hash_seeds(workload):
    first, second = counted(workload, "1"), counted(workload, "2")
    assert first.keys() == second.keys()
    spreads = {k: f"{first[k]} vs {second[k]} "
                  f"({abs(first[k] - second[k]) / max(abs(first[k]), 1e-12):.2%})"
               for k in first if first[k] != second[k]}
    assert not spreads, f"counts that do not repeat on {workload}: {spreads}"
