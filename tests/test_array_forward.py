"""The in-place array forward against the formulas it replaced.

Serving runs the tape-free forward on work buffers: kernels write in
place, the HARD gate is one pass over the scores, decode attention
reads only a live KV prefix, and the classifier serves off the tape.
Each of these must leave every bit as it was.  The reference formulas
are written out here as the allocate-per-step versions they replace."""

import numpy as np
import pytest

from repro.models import ClassifierConfig, TransformerClassifier
from repro.models.attention import (NEG_INF, AttentionBase, InferState,
                                    PrunedSelfAttention, ScoreMask)
from repro.models.controller import ThresholdController
from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F


def reference_layer_norm(x, gain, bias, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return centered * inv * gain + bias


def reference_gelu(x):
    t = np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t)


def reference_softmax(x):
    exp = np.exp(x - x.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("shape", [(8, 128), (1, 8, 128), (3, 19, 32),
                                   (2, 5, 1, 7), (6, 50, 77)])
def test_array_kernels_match_reference_in_place_or_not(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) * 3.0
    gain = rng.standard_normal(shape[-1])
    bias = rng.standard_normal(shape[-1])
    for kernel, expected in (
            (lambda a, out: F.layer_norm_array(a, gain, bias, out=out),
             reference_layer_norm(x, gain, bias)),
            (lambda a, out: F.gelu_array(a, out=out,
                                         work=np.empty_like(a)),
             reference_gelu(x)),
            (lambda a, out: F.softmax_array(a, out=out),
             reference_softmax(x))):
        np.testing.assert_array_equal(kernel(x.copy(), None), expected)
        np.testing.assert_array_equal(kernel(x.copy(), np.empty(shape)),
                                      expected)
        inplace = x.copy()
        assert kernel(inplace, inplace) is inplace
        np.testing.assert_array_equal(inplace, expected)
    np.testing.assert_array_equal(
        F.softmax_array(x, row_max=x.max(axis=-1, keepdims=True)),
        reference_softmax(x))
    # the Tensor ops share the kernels' arithmetic
    np.testing.assert_array_equal(
        F.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data,
        reference_layer_norm(x, gain, bias))
    np.testing.assert_array_equal(F.gelu(Tensor(x)).data,
                                  reference_gelu(x))
    np.testing.assert_array_equal(F.softmax(Tensor(x)).data,
                                  reference_softmax(x))


def reference_gate(scores, valid, threshold, heuristic=None):
    """The two-pass HARD gate: (pruned mask, softmax input, stat_pruned,
    stat_valid)."""
    valid4 = None if valid is None else valid[:, None]
    masked = scores if valid4 is None else np.where(valid4, scores,
                                                    -np.inf)
    row_max = masked.max(axis=-1, keepdims=True)
    if heuristic is None:
        pruned = scores < threshold
    elif heuristic[0] == "relative":
        pruned = scores < (row_max - heuristic[1])
    else:
        order = np.argsort(np.argsort(-masked, axis=-1), axis=-1)
        pruned = order >= min(int(heuristic[1]), scores.shape[-1])
    if valid4 is not None:
        pruned &= valid4
    pruned &= masked != row_max
    keep = ~pruned if valid4 is None else (~pruned & valid4)
    count = (int(valid4.sum()) * scores.shape[1] if valid4 is not None
             else scores.size)
    return (pruned, np.where(keep, scores, NEG_INF), int(pruned.sum()),
            count)


def gate_cases():
    rng = np.random.default_rng(11)
    batch, heads, rows, cols = 3, 2, 5, 9
    scores = rng.standard_normal((batch, heads, rows, cols))
    # ties at the row max: two positions share it in some rows
    scores[0, 0, 1, 3] = scores[0, 0, 1, 6] = 4.0
    scores[1, 1, 2, :] = 0.5                  # a row of equal scores
    valid = rng.random((batch, rows, cols)) < 0.7
    valid[0, 2] = False                       # fully masked rows
    valid[2, 4] = False
    valid[1, 2, 4] = True
    for threshold in (0.0, 0.3, -np.inf, np.inf):
        for use_mask in (True, False):
            yield scores, (valid if use_mask else None), threshold, None
    for heuristic in (("relative", 0.8), ("topk", 3), ("topk", 20)):
        yield scores, valid, 0.0, heuristic


@pytest.mark.parametrize("case", list(range(11)))
def test_one_pass_gate_matches_two_pass_reference(case):
    scores, valid, threshold, heuristic = list(gate_cases())[case]
    controller = ThresholdController(1).hard()
    controller.set_threshold_values(np.array([threshold]))
    gate = AttentionBase(0)
    gate.controller = controller
    gate.heuristic = heuristic
    gate.record_scores = gate.record_qk = True
    queries = np.random.default_rng(case).standard_normal(
        scores.shape[:3] + (4,))
    keys = np.random.default_rng(case + 1).standard_normal(
        scores.shape[:2] + (scores.shape[3], 4))

    pruned, gated, stat_pruned, stat_valid = reference_gate(
        scores, valid, threshold, heuristic)
    work = scores.copy()
    mask = None if valid is None else ScoreMask(valid)
    drop, row_max = gate.gate_scores(work, mask, queries, keys, 0.25)
    np.testing.assert_array_equal(work, gated)
    np.testing.assert_array_equal(row_max,
                                  gated.max(axis=-1, keepdims=True))
    np.testing.assert_array_equal(np.broadcast_to(drop, scores.shape),
                                  gated == NEG_INF)
    assert (gate.stat_pruned, gate.stat_valid) == (stat_pruned, stat_valid)
    assert type(gate.stat_pruned) is int
    [record] = gate.records
    np.testing.assert_array_equal(record.scores, scores)
    np.testing.assert_array_equal(record.pruned_mask, pruned)
    np.testing.assert_array_equal(record.queries, queries * 0.25)
    np.testing.assert_array_equal(record.keys, keys)
    assert record.threshold == float(threshold)
    if valid is None:
        assert record.valid is None
    else:
        np.testing.assert_array_equal(record.valid, valid)
    # the softmax over the gated scores, with the gate's row max
    np.testing.assert_array_equal(
        F.softmax_array(work, out=work, row_max=row_max),
        reference_softmax(gated))


def test_off_gate_masks_without_statistics():
    scores, valid, _, _ = next(gate_cases())
    gate = AttentionBase(0)
    gate.controller = ThresholdController(1).off()
    work = scores.copy()
    drop, row_max = gate.gate_scores(work, ScoreMask(valid))
    assert row_max is None
    np.testing.assert_array_equal(work, np.where(valid[:, None], scores,
                                                 NEG_INF))
    np.testing.assert_array_equal(drop, ~valid[:, None])
    assert (gate.stat_pruned, gate.stat_valid) == (0, 0)


@pytest.mark.parametrize("mode", ["hard", "off"])
def test_live_prefix_decode_core_matches_full_capacity(mode):
    """Decode attention over the first W rows of the KV buffers, W a
    multiple of 16 holding every history, gives the full-capacity
    core's bits: outputs, written K/V rows, advanced lengths, records
    (on the live prefix) and statistics."""
    capacity, heads, dim = 64, 2, 128
    attention = PrunedSelfAttention(dim, heads, 0,
                                    np.random.default_rng(0))
    attention.controller = getattr(ThresholdController(1), mode)()
    attention.record_scores = attention.record_qk = True
    rng = np.random.default_rng(5)
    for trial in range(24):
        width = 16 * (trial % 4 + 1)
        batch = int(rng.integers(1, 9))
        lengths = rng.integers(0, width, size=batch)
        x = np.zeros((1, 8, dim))
        x[0, :batch] = rng.standard_normal((batch, dim))
        kv = {}
        for name in ("k", "v"):
            kv[name] = np.zeros((batch, heads, capacity, dim // heads))
            for i, n in enumerate(lengths):
                kv[name][i, :, :n] = rng.standard_normal(
                    (heads, n, dim // heads))
        results = []
        for live in (width, capacity):
            cache = {"k": kv["k"].copy(), "v": kv["v"].copy(),
                     "lengths": lengths}
            valid = np.arange(live)[None, None, :] <= lengths[:, None, None]
            state = InferState(ScoreMask(valid), lengths=lengths,
                               width=live)
            attention.clear_records()
            attention.clear_stats()
            out = attention.infer(x, state, cache).copy()
            results.append((out, cache, attention.records,
                            (attention.stat_pruned, attention.stat_valid)))
        (out, cache, records, stats), (full, full_cache, full_records,
                                       full_stats) = results
        np.testing.assert_array_equal(out, full, err_msg=f"W={width}")
        for name in ("k", "v", "lengths"):
            np.testing.assert_array_equal(cache[name], full_cache[name])
        assert stats == full_stats
        for record, full_record in zip(records, full_records):
            for field in ("scores", "pruned_mask", "keys"):
                got, expected = (getattr(r, field)
                                 for r in (record, full_record))
                if got is None:
                    assert expected is None
                    continue
                np.testing.assert_array_equal(
                    got, expected[:, :, :, :width] if field != "keys"
                    else expected[:, :, :width])
            np.testing.assert_array_equal(record.queries,
                                          full_record.queries)


def make_classifier(head, vocab, mode, seed=4):
    model = TransformerClassifier(ClassifierConfig(
        vocab_size=vocab, max_seq_len=24, dim=32, num_heads=2,
        num_layers=2, num_classes=3, seed=seed, head=head,
        input_dim=None if vocab else 6))
    controller = model.make_controller()
    controller.set_threshold_values(np.array([0.0, 0.1]))
    getattr(controller, mode)()
    model.eval()
    return model


def autograd_logits(model, inputs, mask):
    """The Tensor forward (grad on: the tape path), then the gate's
    statistics and records it produced."""
    logits = model.logits(inputs, mask).data
    modules = model.attention_modules()
    return (logits, [(m.stat_pruned, m.stat_valid) for m in modules],
            [r for m in modules for r in m.records])


@pytest.mark.parametrize("mode", ["hard", "off"])
@pytest.mark.parametrize("head", ["cls", "span"])
@pytest.mark.parametrize("vocab", [50, None])
@pytest.mark.parametrize("masked", [True, False])
def test_classifier_serving_forward_matches_autograd(mode, head, vocab,
                                                     masked):
    model = make_classifier(head, vocab, mode)
    rng = np.random.default_rng(9)
    batch, seq = 4, 20
    if vocab:
        inputs = rng.integers(0, vocab, size=(batch, seq))
    else:
        inputs = rng.standard_normal((batch, seq, 6))
    mask = None
    if masked:
        mask = np.zeros((batch, seq), dtype=bool)
        for i, n in enumerate(rng.integers(3, seq + 1, size=batch)):
            mask[i, :n] = True
    for module in model.attention_modules():
        module.record_scores = module.record_qk = True

    runs = []
    for grad in (True, False):
        for module in model.attention_modules():
            module.clear_records()
            module.clear_stats()
        if grad:
            runs.append(autograd_logits(model, inputs, mask))
        else:
            with no_grad():
                runs.append(autograd_logits(model, inputs, mask))
    (expected, expected_stats, expected_records), (got, stats, records) \
        = runs
    np.testing.assert_array_equal(got, expected)
    assert stats == expected_stats
    assert len(records) == len(expected_records)
    for record, reference in zip(records, expected_records):
        for field in ("scores", "pruned_mask", "valid", "queries",
                      "keys"):
            got_field, expected_field = (getattr(r, field)
                                         for r in (record, reference))
            if expected_field is None:
                assert got_field is None
            else:
                np.testing.assert_array_equal(got_field, expected_field)
