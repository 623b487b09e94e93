"""Codegen volume: the block tier compiles each op template once.

Every constant and slot key a block-tier op needs reaches it through the
template's namespace, so the generated source text depends only on the
op's shape.  ``fastexec`` keeps one process-wide code object per text;
these tests count the ``compile()`` calls the block tier makes, with an
emptied cache, to pin that a cold run only pays for templates no earlier
run produced and that the whole suite's vocabulary stays small.
"""

import pytest

from repro.carat.pipeline import compile_carat
from repro.machine import fastexec
from repro.machine.session import CaratSession, RunConfig
from repro.workloads import all_workloads, get_workload


@pytest.fixture
def block_compiles(monkeypatch):
    """The source texts the block tier compiles from here on, starting
    from an empty template cache."""
    sources = []

    def counting_compile(source, *args, **kwargs):
        sources.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(fastexec, "_TEMPLATES", {})
    monkeypatch.setattr(fastexec, "compile", counting_compile, raising=False)
    return sources


def _cold_run(name):
    workload = get_workload(name, "tiny")
    config = RunConfig(engine="trace", name=workload.name)
    return CaratSession(config).run(workload.source)


def test_second_cold_run_recompiles_no_template(block_compiles):
    first_run = _cold_run("hpccg")
    first = list(block_compiles)
    second_run = _cold_run("cg")
    second = block_compiles[len(first):]
    assert first_run.exit_code == 0 and second_run.exit_code == 0
    assert first, "the first cold run compiles the templates it uses"
    assert not set(second) & set(first)
    assert len(set(block_compiles)) == len(block_compiles)


def test_suite_template_vocabulary_is_small(block_compiles):
    ops = 0
    for workload in all_workloads("tiny"):
        binary = compile_carat(workload.source, module_name=workload.name)
        code, _ = fastexec.compile_module(binary.module)
        ops += sum(len(block) for block in code.ops_by_block.values())
    assert ops > 1000  # thousands of ops ...
    assert len(block_compiles) < 100  # ... from a few dozen compiles
