"""Batched-vs-solo equivalence: a request served in a coalesced batch
must be *bit-identical* — logits, predictions, pruning masks, and
hardware estimates — to the same request served alone through the same
serving stack (batch size 1)."""

import numpy as np
import pytest

from repro.core import PrunedInferenceEngine
from repro.models import (ClassifierConfig, LMConfig,
                          TransformerClassifier, TransformerLM)
from repro.serve import BatchPolicy, ServingEngine, pad_width

MAX_SEQ = 24


def make_classifier_engine(seed=0, head="cls"):
    model = TransformerClassifier(ClassifierConfig(
        vocab_size=50, max_seq_len=MAX_SEQ, dim=32, num_heads=2,
        num_layers=2, num_classes=3, seed=seed, head=head))
    controller = model.make_controller()
    # thresholds at 0 prune roughly half of the (zero-centred) scores,
    # so the equivalence test exercises real pruning decisions
    controller.set_threshold_values(np.zeros(2))
    return PrunedInferenceEngine(model, controller)


def make_lm_engine(seed=0, vocab_size=40):
    model = TransformerLM(LMConfig(
        vocab_size=vocab_size, max_seq_len=32, dim=32, num_heads=2,
        num_layers=2, seed=seed))
    controller = model.make_controller()
    controller.set_threshold_values(np.zeros(2))
    return PrunedInferenceEngine(model, controller)


def make_serving(engine, max_batch_size, **policy_kwargs):
    clock = [0.0]
    policy = dict(max_batch_size=max_batch_size, max_wait=0.0)
    policy.update(policy_kwargs)
    return ServingEngine(
        engine, BatchPolicy(**policy),
        estimate_hardware=True, clock=lambda: clock[0])


def serve_classify(engine, requests, max_batch_size, **policy_kwargs):
    serving = make_serving(engine, max_batch_size, **policy_kwargs)
    ids = [serving.submit(r) for r in requests]
    serving.drain()
    return [serving.finish(i) for i in ids], serving


def serve_streams(engine, prompts, max_new_tokens, max_batch_size):
    serving = make_serving(engine, max_batch_size)
    ids = [serving.open_stream(p, max_new_tokens) for p in prompts]
    serving.drain()
    return [serving.finish(i) for i in ids], serving


def assert_records_identical(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.layer_index == b.layer_index
        assert a.threshold == b.threshold
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.pruned_mask, b.pruned_mask)
        np.testing.assert_array_equal(a.queries, b.queries)
        np.testing.assert_array_equal(a.keys, b.keys)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_classify_batched_vs_solo_bit_identical(seed):
    engine = make_classifier_engine(seed)
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, MAX_SEQ + 1, size=10)
    requests = [rng.integers(0, 50, size=int(n)) for n in lengths]

    batched, _ = serve_classify(engine, requests, max_batch_size=4)
    solo, _ = serve_classify(engine, requests, max_batch_size=1)

    for got, expected in zip(batched, solo):
        np.testing.assert_array_equal(got.logits, expected.logits)
        assert got.prediction == expected.prediction
        assert_records_identical(got.records, expected.records)
        # dataclass equality is exact float equality field by field
        assert got.hardware == expected.hardware


def test_classify_result_independent_of_batch_composition():
    engine = make_classifier_engine(0)
    rng = np.random.default_rng(7)
    probe = rng.integers(0, 50, size=9)
    reference = None
    for trial in range(3):
        # surround the probe request with different neighbours each time
        others = [rng.integers(0, 50, size=int(n))
                  for n in rng.integers(1, MAX_SEQ + 1, size=5)]
        serving = make_serving(engine, max_batch_size=6)
        ids = [serving.submit(r) for r in others[:trial + 1]]
        probe_id = serving.submit(probe)
        ids += [serving.submit(r) for r in others[trial + 1:]]
        serving.drain()
        result = serving.finish(probe_id)
        if reference is None:
            reference = result
        else:
            np.testing.assert_array_equal(result.logits, reference.logits)
            assert result.hardware == reference.hardware
            assert_records_identical(result.records, reference.records)


def test_span_head_batched_vs_solo():
    engine = make_classifier_engine(3, head="span")
    rng = np.random.default_rng(3)
    requests = [rng.integers(0, 50, size=int(n))
                for n in rng.integers(2, MAX_SEQ + 1, size=6)]
    batched, _ = serve_classify(engine, requests, max_batch_size=3)
    solo, _ = serve_classify(engine, requests, max_batch_size=1)
    for got, expected, request in zip(batched, solo, requests):
        assert got.logits.shape == (len(request),)
        np.testing.assert_array_equal(got.logits, expected.logits)
        assert got.prediction == expected.prediction


@pytest.mark.parametrize("seed", [0, 1])
def test_lm_streams_batched_vs_solo_bit_identical(seed):
    engine = make_lm_engine(seed)
    rng = np.random.default_rng(seed)
    prompts = [rng.integers(1, 40, size=int(n))
               for n in rng.integers(1, 9, size=5)]

    batched, _ = serve_streams(engine, prompts, 6, max_batch_size=4)
    solo, _ = serve_streams(engine, prompts, 6, max_batch_size=1)

    for got, expected in zip(batched, solo):
        np.testing.assert_array_equal(got.tokens, expected.tokens)
        np.testing.assert_array_equal(got.logits, expected.logits)
        assert_records_identical(got.records, expected.records)
        assert got.hardware == expected.hardware


def test_lm_stream_invariant_to_decode_batch_size():
    """One stream decoded alone and as the last row of batches of 2..9
    streams (9 spills into a second decode tile) gets identical tokens,
    logits, records and hardware estimate.  The vocabulary of 50 is not
    a multiple of 4: there, one flat (B, D) GEMM gives a row different
    bits at small B than at B >= 4."""
    engine = make_lm_engine(3, vocab_size=50)
    rng = np.random.default_rng(33)
    target = rng.integers(0, 50, size=5)
    (solo,), _ = serve_streams(engine, [target], 6, max_batch_size=1)
    for size in range(2, 10):
        others = [rng.integers(0, 50, size=int(n))
                  for n in rng.integers(1, 9, size=size - 1)]
        results, _ = serve_streams(engine, others + [target], 6,
                                   max_batch_size=size)
        got = results[-1]
        assert got.batch_sizes == [size] * len(got.batch_sizes)
        np.testing.assert_array_equal(got.tokens, solo.tokens)
        np.testing.assert_array_equal(got.logits, solo.logits)
        assert_records_identical(got.records, solo.records)
        assert got.hardware == solo.hardware


def test_classify_mixed_widths_bit_identical():
    """A drain whose requests span pad widths 16 and 24 coalesces per
    width, and every request stays bit-identical to a solo run:
    logits, predictions, records and hardware estimates."""
    engine = make_classifier_engine(1)
    rng = np.random.default_rng(13)
    requests = [rng.integers(0, 50, size=int(n))
                for n in (3, 20, 16, 17, 9, 24, 1, 12)]
    batched, serving = serve_classify(engine, requests, 4)
    solo, _ = serve_classify(engine, requests, 1)
    # widths 16 (five requests: 4 + 1) and 24 (three requests)
    assert serving.stats.batches == 3
    assert serving.stats.max_batch_size == 4
    for got, expected in zip(batched, solo):
        np.testing.assert_array_equal(got.logits, expected.logits)
        assert got.prediction == expected.prediction
        assert_records_identical(got.records, expected.records)
        assert got.hardware == expected.hardware


@pytest.mark.parametrize("policy_kwargs",
                         [{"max_wait": 0.0}, {"max_wait": 1.0}])
def test_classify_bucketed_and_custom_pad_still_bit_identical(
        policy_kwargs):
    """Random lengths land on both rungs of the pad-width ladder: the
    16-wide bucket and the custom top width 24 (the model's capacity,
    not a multiple of 16).  The width depends on the request alone, so
    equivalence to solo runs must survive any coalescing policy."""
    engine = make_classifier_engine(1)
    rng = np.random.default_rng(13)
    requests = [rng.integers(0, 50, size=int(n))
                for n in rng.integers(1, MAX_SEQ + 1, size=9)]
    assert {pad_width(len(r), MAX_SEQ) for r in requests} == {16, MAX_SEQ}
    batched, _ = serve_classify(engine, requests, 4, **policy_kwargs)
    solo, _ = serve_classify(engine, requests, 1, **policy_kwargs)
    for got, expected in zip(batched, solo):
        np.testing.assert_array_equal(got.logits, expected.logits)
        assert_records_identical(got.records, expected.records)
        assert got.hardware == expected.hardware


def test_lm_streams_narrow_prefill_pad_bit_identical():
    """Fresh streams prefill at their own prompt's pad width: prompts
    of 5 and 20 tokens on a 32-position LM admitted in one step make
    one prefill forward at width 16 and one at width 32 (narrowest
    first), while decode buffers span the full capacity — and every
    stream stays bit-identical to a solo run."""
    engine = make_lm_engine(2)
    rng = np.random.default_rng(21)
    prompts = [rng.integers(1, 40, size=n) for n in (5, 20, 3, 17)]
    widths = []
    prefill = engine.model.prefill

    def recording_prefill(tokens, lengths):
        widths.append(tokens.shape[1])
        return prefill(tokens, lengths)

    engine.model.prefill = recording_prefill
    try:
        serving = make_serving(engine, 4)
        ids = [serving.open_stream(p, 5) for p in prompts]
        serving.step()
        assert widths == [16, 32]          # one step, one call per width
        assert serving.stats.admitted == 4
        serving.drain()
        batched = [serving.finish(i) for i in ids]
    finally:
        del engine.model.prefill
    solo, _ = serve_streams(engine, prompts, 5, 1)
    for got, expected in zip(batched, solo):
        np.testing.assert_array_equal(got.tokens, expected.tokens)
        np.testing.assert_array_equal(got.logits, expected.logits)
        assert_records_identical(got.records, expected.records)
        assert got.hardware == expected.hardware


def test_traffic_totals_aggregate_per_request():
    engine = make_classifier_engine(0)
    rng = np.random.default_rng(11)
    requests = [rng.integers(0, 50, size=int(n))
                for n in rng.integers(1, MAX_SEQ + 1, size=8)]
    results, serving = serve_classify(engine, requests, max_batch_size=4)
    totals = serving.stats.hardware
    assert totals.requests == len(requests)
    assert np.isclose(totals.runtime_ns,
                      sum(r.hardware.runtime_ns for r in results))
    assert np.isclose(totals.baseline_runtime_ns,
                      sum(r.hardware.baseline_runtime_ns for r in results))
    assert np.isclose(totals.energy_pj,
                      sum(r.hardware.energy_pj for r in results))
    assert totals.speedup_vs_baseline > 1.0
    # widths 16 (six requests: 4 + 2) and 24 (two requests)
    assert serving.stats.batches == 3
    assert serving.stats.mean_batch_size == 8 / 3


@pytest.mark.parametrize("threshold", [0.0, 0.3, -0.3, 5e4],
                         ids=["zero", "+0.3", "-0.3", "past-int32"])
def test_classify_estimates_bypass_pack_cache(threshold):
    """Classify keys never recur, so hardware estimates of classify
    traffic leave the engine's pack cache untouched (no entries, no
    lookups) — and still equal solo estimates and the numpy-ref
    oracle, at zero, small and huge learned thresholds (the last puts
    the integer-domain threshold past 2^30, where the kernel's scan
    leaves int32 for float64).  Generate streams keep using the cache
    at finalize."""
    import dataclasses

    from repro.hw import AE_LEOPARD
    from repro.hw.workload import jobs_from_records

    engine = make_classifier_engine(0)
    engine.controller.set_threshold_values(np.full(2, threshold))
    rng = np.random.default_rng(13)
    requests = [rng.integers(0, 50, size=int(n))
                for n in rng.integers(1, MAX_SEQ + 1, size=9)]
    batched, serving = serve_classify(engine, requests, max_batch_size=4)
    solo, _ = serve_classify(engine, requests, max_batch_size=1)
    assert serving._pack_cache.stats() == {
        "hits": 0, "extended": 0, "misses": 0, "entries": 0}
    oracle = dataclasses.replace(AE_LEOPARD, kernel_backend="numpy-ref")
    for got, expected in zip(batched, solo):
        assert got.hardware == expected.hardware
        reference = engine.estimate_from_records(got.records, oracle)
        assert dataclasses.replace(
            got.hardware, kernel_backend="numpy-ref") == reference
    peak = max(abs(job.threshold) for got in batched
               for job in jobs_from_records(got.records))
    assert (peak >= 2 ** 30) == (threshold == 5e4)

    # the fused kernel is the one that reads the cache, whatever
    # backend the environment selects
    streams = ServingEngine(
        make_lm_engine(0), BatchPolicy(max_batch_size=2, max_wait=0.0),
        estimate_hardware=True,
        hw_config=dataclasses.replace(AE_LEOPARD,
                                      kernel_backend="numpy-packed"))
    streams.open_stream(rng.integers(0, 40, size=5), 3)
    streams.drain()
    stats = streams._pack_cache.stats()
    assert stats["misses"] > 0 and stats["entries"] > 0
