"""KV-cache incremental decode vs full recompute.

The cached decode path (one query row against the stored history) must
reproduce the full-recompute logits step for step, for both cache
protocols: the append protocol used by ``TransformerLM.generate`` (the
autograd forward) and the scatter protocol used by coalesced serving
(the tape-free ``prefill``/``decode_step``)."""

import numpy as np
import pytest

from repro.models import LMConfig, TransformerLM
from repro.models.lm import DECODE_TILE
from repro.tensor import no_grad

VOCAB = 30


def make_lm(seed=0, mode="hard"):
    model = TransformerLM(LMConfig(
        vocab_size=VOCAB, max_seq_len=32, dim=32, num_heads=2,
        num_layers=2, seed=seed))
    controller = model.make_controller()
    controller.set_threshold_values(np.zeros(2))
    getattr(controller, mode)()
    model.eval()
    return model


def full_recompute_generate(model, prompt, max_new_tokens):
    """Reference decode: re-run the whole sequence every step."""
    tokens = np.asarray(prompt, dtype=np.int64)
    step_logits = []
    with no_grad():
        for _ in range(max_new_tokens):
            last = model.logits(tokens).data[:, -1]
            step_logits.append(last.copy())
            tokens = np.concatenate(
                [tokens, last.argmax(axis=-1)[:, None]], axis=1)
            if tokens.shape[1] >= model.config.max_seq_len:
                break
    return tokens, step_logits


@pytest.mark.parametrize("mode", ["off", "hard"])
@pytest.mark.parametrize("prompt_len", [1, 3, 7, 12])
def test_generate_matches_full_recompute(mode, prompt_len):
    model = make_lm(seed=prompt_len, mode=mode)
    rng = np.random.default_rng(prompt_len)
    prompt = rng.integers(1, VOCAB, size=(2, prompt_len))
    cached = model.generate(prompt, max_new_tokens=8)
    expected, _ = full_recompute_generate(model, prompt, 8)
    np.testing.assert_array_equal(cached, expected)


@pytest.mark.parametrize("prompt_len", [1, 4, 9])
def test_scatter_decode_logits_match_full_recompute(prompt_len):
    """prefill + decode_step (the serving path) against recompute,
    checking the logits at every step, not just the argmax."""
    model = make_lm(seed=prompt_len)
    rng = np.random.default_rng(100 + prompt_len)
    prompt = rng.integers(1, VOCAB, size=(1, prompt_len))
    capacity = model.config.max_seq_len

    padded = np.zeros((1, capacity), dtype=np.int64)
    padded[0, :prompt_len] = prompt[0]
    logits, prefill_caches = model.prefill(
        padded, np.array([prompt_len]))
    heads = model.config.num_heads
    head_dim = model.config.dim // heads
    caches = []
    for cache in prefill_caches:
        buf_k = np.zeros((1, heads, capacity, head_dim))
        buf_v = np.zeros_like(buf_k)
        buf_k[0, :, :prompt_len] = cache["k"][0, :, :prompt_len]
        buf_v[0, :, :prompt_len] = cache["v"][0, :, :prompt_len]
        caches.append({"k": buf_k, "v": buf_v,
                       "lengths": np.array([prompt_len])})

    tokens = prompt.copy()
    _, reference = full_recompute_generate(model, prompt, 8)
    for step, expected in enumerate(reference):
        np.testing.assert_allclose(logits, expected[0:1],
                                   rtol=1e-9, atol=1e-9,
                                   err_msg=f"step {step}")
        next_token = logits.argmax(axis=-1)
        assert next_token[0] == expected[0].argmax()
        tokens = np.concatenate([tokens, next_token[:, None]], axis=1)
        if step + 1 == len(reference):
            break
        logits = model.decode_step(next_token, caches)


def test_scatter_protocol_matches_append_protocol():
    """Both cache protocols decode the same stream identically."""
    model = make_lm(seed=5)
    rng = np.random.default_rng(5)
    prompt = rng.integers(1, VOCAB, size=(1, 6))
    via_append = model.generate(prompt, max_new_tokens=10)

    capacity = model.config.max_seq_len
    padded = np.zeros((1, capacity), dtype=np.int64)
    padded[0, :6] = prompt[0]
    logits, prefill_caches = model.prefill(padded, np.array([6]))
    heads = model.config.num_heads
    head_dim = model.config.dim // heads
    caches = []
    for cache in prefill_caches:
        buf_k = np.zeros((1, heads, capacity, head_dim))
        buf_v = np.zeros_like(buf_k)
        buf_k[0, :, :6] = cache["k"][0, :, :6]
        buf_v[0, :, :6] = cache["v"][0, :, :6]
        caches.append({"k": buf_k, "v": buf_v, "lengths": np.array([6])})
    tokens = [int(t) for t in prompt[0]]
    for _ in range(10):
        next_token = int(logits[0].argmax())
        tokens.append(next_token)
        if len(tokens) >= via_append.shape[1]:
            break
        logits = model.decode_step(np.array([next_token]), caches)
    np.testing.assert_array_equal(np.array(tokens), via_append[0])


def test_scatter_capacity_exhaustion_raises():
    """A stream with no free KV row fails the step with ValueError
    before any buffer or length changes: a small buffer, a buffer
    holding all ``max_seq_len`` positions (where the position lookup
    once raised IndexError first), and a per-stream budget."""
    model = make_lm(seed=0)
    heads = model.config.num_heads
    head_dim = model.config.dim // heads
    full = model.config.max_seq_len
    for capacity, lengths, capacities, match in (
            (4, [4], None, "kv_cache buffer capacity exhausted"),
            (full, [full], None, "kv_cache buffer capacity exhausted"),
            (full, [3, 5], [8, 5], "row 1 exhausted its per-stream")):
        rng = np.random.default_rng(capacity)
        caches = [{"k": rng.standard_normal((len(lengths), heads,
                                             capacity, head_dim)),
                   "v": rng.standard_normal((len(lengths), heads,
                                             capacity, head_dim)),
                   "lengths": np.array(lengths)}
                  for _ in model.blocks]
        if capacities is not None:
            for cache in caches:
                cache["capacities"] = np.array(capacities)
        before = [{key: value.copy() for key, value in cache.items()}
                  for cache in caches]
        with pytest.raises(ValueError, match=match):
            model.decode_step(np.ones(len(lengths), dtype=np.int64),
                              caches)
        for cache, saved in zip(caches, before):
            for key in saved:
                np.testing.assert_array_equal(cache[key], saved[key])


@pytest.mark.parametrize("mode", ["off", "hard"])
def test_prefill_at_full_width_equals_autograd_logits(mode):
    """The tape-free serving forward and the autograd forward run the
    same kernels: at full width (every length S) prefill's logits equal
    ``logits()`` bit for bit, and so do the pruning statistics."""
    model = make_lm(seed=7, mode=mode)
    tokens = np.random.default_rng(7).integers(0, VOCAB, size=(3, 19))
    served, caches = model.prefill(tokens)
    served_stats = [(a.stat_pruned, a.stat_valid)
                    for a in model.attention_modules()]
    for attention in model.attention_modules():
        attention.clear_stats()
    with no_grad():
        full = model.logits(tokens).data
    np.testing.assert_array_equal(served, full[:, -1])
    assert served_stats == [(a.stat_pruned, a.stat_valid)
                            for a in model.attention_modules()]
    assert all(isinstance(c["k"], np.ndarray) for c in caches)


def test_serving_forward_rejects_soft_mode():
    """SOFT pruning is a training objective: the tape-free serving
    forward refuses it instead of serving unpruned scores."""
    model = make_lm(seed=1, mode="soft")
    with pytest.raises(ValueError, match="SOFT"):
        model.prefill(np.ones((1, 4), dtype=np.int64))


@pytest.mark.parametrize("inner", [32, 64, 128, 256])
def test_decode_tile_gemm_rows_are_batch_invariant(inner):
    """decode_step's premise: a row of a stacked (tiles, DECODE_TILE, K)
    @ (K, N) GEMM has the same bits at every tile position and whatever
    its neighbours hold, on the model's projection widths and small
    heads.  A BLAS that breaks this fails here before it breaks
    batched-vs-solo serving."""
    rng = np.random.default_rng(inner)
    for out in (3, 30, 50, 64, 128, 256):
        weight = rng.standard_normal((inner, out))
        row = rng.standard_normal(inner)
        expected = None
        for tiles in (1, 2):
            for position in range(tiles * DECODE_TILE):
                x = rng.standard_normal((tiles * DECODE_TILE, inner))
                x[position] = row
                got = (x.reshape(tiles, DECODE_TILE, inner) @ weight
                       ).reshape(-1, out)[position]
                if expected is None:
                    expected = got
                np.testing.assert_array_equal(
                    got, expected, err_msg=f"N={out} row {position}")
