"""The committed engine-speedup documents agree with the current code.

``BENCH_fastpath.json`` and ``BENCH_trace.json`` record each headline
workload's modeled cycles.  Their writers
(``benchmarks/test_fastpath_speedup.py`` and
``benchmarks/test_trace_speedup.py``) run the ``small`` workloads
compiled with CARAT guard optimizations and *without* allocation
tracking, under the ``mpx`` guard mechanism.  Modeled cycles are
deterministic, so the reference engine reproduces each recorded figure
exactly; a document that disagrees describes code that no longer
exists.

(``perfbench/anchors.json`` pins the same workloads with tracking on,
so its ``hpc-warm`` figures are higher by the tracking cost wherever a
workload allocates.)
"""

import json
from pathlib import Path

import pytest

from repro.carat.pipeline import CompileOptions
from repro.workloads import get_workload
from tests.support import run_carat

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ["BENCH_fastpath.json", "BENCH_trace.json"]
WORKLOADS = ["hpccg", "cg", "ep"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_recorded_cycles_match_the_code(workload):
    documents = {
        name: json.loads((ROOT / name).read_text()) for name in DOCUMENTS
    }
    assert {doc["scale"] for doc in documents.values()} == {"small"}
    result = run_carat(
        get_workload(workload, "small").source,
        options=CompileOptions(tracking=False),
        guard_mechanism="mpx",
        name=workload,
    )
    recorded = {
        name: doc["workloads"][workload]["cycles"]
        for name, doc in documents.items()
    }
    assert recorded == {name: result.cycles for name in DOCUMENTS}
