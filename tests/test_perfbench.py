"""The benchmark's layer tracer times the program from outside by
wrapping entry points by name (``perfbench/layers.py``), so renaming
one of them breaks every traced run.  These tests pin the names, and
that a traced classify estimate books its hardware spans."""

import importlib
import importlib.util
import os

import numpy as np
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(REPO, "perfbench", "layers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(layers):
    targets = [target for group in layers.SPANS.values()
               for target in group]
    targets.append(("repro.hw.backends.packed_common", "PlaneGroupCache",
                    "planes_for"))
    for module_name, owner_name, attribute in targets:
        module = importlib.import_module(module_name)
        owner = (module if owner_name is None
                 else getattr(module, owner_name))
        assert callable(getattr(owner, attribute)), \
            f"{module_name}.{owner_name or ''}.{attribute}"


def test_traced_classify_estimate_books_hardware_spans(layers):
    from repro.serve.__main__ import build_classifier_engine

    engine = build_classifier_engine()
    inputs = np.random.default_rng(0).integers(0, 64, (1, 12))
    _, records = engine.run_recorded(
        lambda: engine.logits_for(inputs, np.ones((1, 12), dtype=bool)))
    untraced = engine.estimate_many([records])
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        traced = engine.estimate_many([records])
    finally:
        tracer.uninstall()
    assert traced == untraced
    jobs = len(records) * records[0].queries.shape[1]
    assert tracer.field("core.estimate", "calls") == 1
    assert tracer.field("hw.workload.jobs", "num") == jobs
    assert tracer.field("hw.kernel", "calls") == 1
    assert tracer.field("hw.kernel", "num") == jobs
    assert tracer.field("hw.tile.pruning", "calls") == 1
    assert tracer.field("hw.tile.baseline", "calls") == 1
    assert tracer.field("hw.energy", "calls") == 2
