"""The names perfbench reaches into risjam by: a refactor that drops one breaks traced runs."""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

import risjam
from risjam.channel import build_channel_set
from risjam.harness import optimized_config

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer = _load_tracer()


@pytest.mark.parametrize("module, attribute, span", tracer.TARGETS, ids=lambda v: str(v))
def test_tracer_target_resolves(module, attribute, span):
    owner = importlib.import_module(module)
    *cls, name = attribute.split(".")
    if cls:
        owner = getattr(owner, cls[0])
        assert name in vars(owner)  # the tracer replaces the class's own method
    assert callable(getattr(owner, name))


def test_kernel_backend_is_recorded():
    assert risjam.kernel_backend() == "numpy"


# Traced benchmark jobs check these budgets: N oracle calls for a DFT job,
# N + 2 for an iterative one.
@pytest.mark.parametrize("algorithm, extra", [("dft", 0), ("iterative", 2)])
def test_traced_oracle_budget(table_scenario, algorithm, extra):
    sc = replace(table_scenario, ris_rows=4, ris_cols=4)
    ch = build_channel_set(sc)
    tr = tracer.Tracer()
    tr.install()
    try:
        optimized_config(sc, ch, algorithm, seed=1)
    finally:
        tr.uninstall()
    layers = tracer.summarize(tr.spans)
    spans = sum(layers.get(k, (0,))[0] for k in ("optimize.oracle.flip", "optimize.oracle.full"))
    assert spans == tr.oracle_calls() == 16 + extra
