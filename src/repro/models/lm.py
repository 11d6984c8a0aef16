"""Causal transformer LM (GPT-2 stand-in) with a KV-cache decode path.

Two forwards share one set of kernels: the autograd Tensor forward
(``logits``, training, evaluation, ``generate``) and the tape-free array
forward behind the serving primitives ``prefill`` and ``decode_step``.
The array forward writes each op into a few work buffers per call
(``InferState``), and decode attention reads only the live prefix of
the KV buffers; both leave every bit as the Tensor forward has it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.soft_threshold import SoftThresholdConfig, SurrogateL0Config
from ..nn import Embedding, LayerNorm, Linear, Module, Parameter
from ..tensor import Tensor, no_grad
from ..tensor import functional as F
from .attention import InferState, ScoreMask
from .controller import ThresholdController
from .transformer import TransformerBlock

# Rows per decode GEMM item (see ``TransformerLM.decode_step``).  Fixed,
# not a knob: changing it changes every decode GEMM's shape.
DECODE_TILE = 8
# Decode attention reads the KV buffers' live prefix rounded up to a
# multiple of this (see ``TransformerLM.decode_step``).  Fixed, not a
# knob: a prefix that is not a multiple of 16 moves the last bits.
LIVE_STEP = 16


@dataclass(frozen=True)
class LMConfig:
    vocab_size: int
    max_seq_len: int
    dim: int
    num_heads: int
    num_layers: int
    seed: int = 0
    ffn_mult: int = 2


class TransformerLM(Module):
    metric_name = "perplexity"

    def __init__(self, config: LMConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.embed = Embedding(config.vocab_size, config.dim, rng)
        self.pos = Parameter(
            rng.standard_normal((config.max_seq_len, config.dim)) * 0.02)
        self.blocks = [TransformerBlock(config.dim, config.num_heads,
                                        config.ffn_mult, i, rng)
                       for i in range(config.num_layers)]
        self.ln_out = LayerNorm(config.dim)
        self.head = Linear(config.dim, config.vocab_size, rng)
        self._controller: ThresholdController | None = None

    def attention_modules(self):
        return [block.attention for block in self.blocks]

    def make_controller(self, l0_config: SurrogateL0Config | None = None,
                        soft_config: SoftThresholdConfig | None = None
                        ) -> ThresholdController:
        controller = ThresholdController(len(self.blocks), l0_config,
                                         soft_config)
        for module in self.attention_modules():
            module.controller = controller
        self._controller = controller
        return controller

    def logits(self, tokens: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens)
        batch, seq = tokens.shape
        causal = np.tril(np.ones((seq, seq), dtype=bool))
        valid = np.broadcast_to(causal, (batch, seq, seq))
        x = self.embed(tokens) + self.pos[:seq]
        for block in self.blocks:
            x = block(x, valid)
        return self.head(self.ln_out(x))

    def loss(self, batch) -> Tensor:
        tokens = np.asarray(batch.inputs)
        logits = self.logits(tokens[:, :-1])
        return F.cross_entropy(logits, tokens[:, 1:])

    def metrics(self, batch) -> tuple[float, int]:
        """Returns (total negative log likelihood, token count)."""
        tokens = np.asarray(batch.inputs)
        with no_grad():
            logits = self.logits(tokens[:, :-1])
            nll = F.cross_entropy(logits, tokens[:, 1:])
        count = tokens[:, 1:].size
        return float(nll.data) * count, count

    @staticmethod
    def finish_metric(total: float, count: int) -> float:
        return float(np.exp(total / max(count, 1)))

    # -- batched serving primitives -------------------------------------
    # Both run tape-free on plain arrays (``TransformerBlock.infer``):
    # serving needs no autograd, and the per-op Tensor wrappers cost
    # more than the arithmetic at decode shapes.
    def prefill(self, tokens: np.ndarray,
                lengths: np.ndarray | None = None
                ) -> tuple[np.ndarray, list[dict]]:
        """Run padded prompts once, filling per-block KV caches.

        ``tokens``: (B, S) prompts left-aligned to a shared width;
        ``lengths``: (B,) true prompt sizes (default: all S).  Returns
        (next-token logits (B, V) taken at each prompt's own last
        position, caches) where each cache holds "k"/"v" arrays of
        shape (B, H, S, Dh) — positions past a stream's length hold
        padding garbage and must be sliced off before reuse.

        Every projection is one (S, K) @ (K, N) GEMM per prompt, so a
        prompt's results depend only on its own tokens and ``S``; at
        full width they equal ``logits()`` bit for bit.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        batch, seq = tokens.shape
        if lengths is None:
            lengths = np.full(batch, seq, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        causal = np.tril(np.ones((seq, seq), dtype=bool))
        present = np.arange(seq)[None, :] < lengths[:, None]
        valid = (causal[None] & present[:, None, :] & present[:, :, None])
        state = InferState(ScoreMask(valid))
        caches: list[dict] = [{} for _ in self.blocks]
        x = self.embed.weight.data[tokens]
        x += self.pos.data[:seq]
        for block, cache in zip(self.blocks, caches):
            block.infer(x, state, cache)
        logits = self.head.infer(self.ln_out.infer(x, out=x))
        return logits[np.arange(batch), lengths - 1], caches

    def decode_step(self, tokens: np.ndarray,
                    caches: list[dict]) -> np.ndarray:
        """One coalesced decode step over concurrent streams.

        ``tokens``: (B,) the latest token of each stream; ``caches``:
        per-block scatter-protocol dicts ("k"/"v" float buffers
        (B, H, cap, Dh), "lengths" (B,) history sizes and optionally
        "capacities" (B,) per-stream row budgets — see
        ``PrunedSelfAttention.infer``).  Buffers are updated in place
        and lengths advanced.  Returns next-token logits (B, V).

        Streams of different ages batch together: every row attends
        over its own left-aligned history, masked past its length.
        Attention reads only the buffers' live prefix: the smallest
        multiple of ``LIVE_STEP`` that holds the longest history with
        this step's row, capped at the buffer width.  Its bits equal
        the full-width core's; an unrounded prefix's would not.
        The B rows are zero-padded to whole tiles of ``DECODE_TILE``
        and every projection and the head run as a stack of
        (DECODE_TILE, K) @ (K, N) GEMMs, so no GEMM's shape depends on
        how many streams share the step: a row's logits are bit-
        identical to serving its stream alone.  (One (B, K) GEMM would
        not be: BLAS hands M = 1 to GEMV and may block small M
        differently, which moves the last bits with B.)

        Raises ValueError, before touching any buffer, when a stream
        has no free KV row: its history fills the buffer (or the
        model's ``max_seq_len`` positions), or it reached its own
        "capacities" budget.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        lengths = np.asarray(caches[0]["lengths"])
        width = caches[0]["k"].shape[2]
        capacity = min(width, self.config.max_seq_len)
        if int(lengths.max()) >= capacity:
            raise ValueError("kv_cache buffer capacity exhausted "
                             f"({capacity} slots)")
        capacities = caches[0].get("capacities")
        if capacities is not None:
            # per-stream (request-derived) capacities: a stream may
            # never outgrow the K/V budget its own request implies,
            # regardless of how much shared buffer is left
            capacities = np.asarray(capacities)
            over = lengths >= capacities
            if over.any():
                row = int(np.argmax(over))
                raise ValueError(
                    f"stream in row {row} exhausted its per-stream KV "
                    f"capacity ({int(capacities[row])} rows)")
        batch = len(tokens)
        tiles = -(-batch // DECODE_TILE)
        x = np.zeros((tiles, DECODE_TILE, self.config.dim))
        x.reshape(-1, self.config.dim)[:batch] = (
            self.embed.weight.data[tokens] + self.pos.data[lengths])
        live = min(width, -(-(int(lengths.max()) + 1) // LIVE_STEP)
                   * LIVE_STEP)
        valid = np.arange(live)[None, None, :] <= lengths[:, None, None]
        state = InferState(ScoreMask(valid), lengths=lengths, width=live)
        for block, cache in zip(self.blocks, caches):
            block.infer(x, state, cache)
        logits = self.head.infer(self.ln_out.infer(x, out=x))
        return logits.reshape(tiles * DECODE_TILE, -1)[:batch]

    # -- decode ---------------------------------------------------------
    def generate(self, prompt: np.ndarray, max_new_tokens: int,
                 greedy: bool = True,
                 rng: np.random.Generator | None = None) -> np.ndarray:
        """Autoregressive decode with per-layer KV caches: each step
        computes exactly one new query row per sequence (S_q = 1)
        against the cached key/value history — the deployment access
        pattern the accelerator sees."""
        tokens = np.asarray(prompt, dtype=np.int64)
        caches = [{} for _ in self.blocks]
        with no_grad():
            # prefill: run the prompt once, filling the caches
            x = self.embed(tokens) + self.pos[:tokens.shape[1]]
            batch, seq = tokens.shape
            causal = np.broadcast_to(
                np.tril(np.ones((seq, seq), dtype=bool)),
                (batch, seq, seq))
            for block, cache in zip(self.blocks, caches):
                x = block(x, causal, kv_cache=cache)
            last = self.head(self.ln_out(x))[:, -1]
            for step in range(max_new_tokens):
                if greedy or rng is None:
                    next_token = last.data.argmax(axis=-1)
                else:
                    probs = F.softmax(last).data
                    next_token = np.array(
                        [rng.choice(len(p), p=p) for p in probs])
                tokens = np.concatenate(
                    [tokens, next_token[:, None]], axis=1)
                if (step + 1 >= max_new_tokens
                        or tokens.shape[1] >= self.config.max_seq_len):
                    break   # no further sample needed: skip the forward
                position = tokens.shape[1] - 1
                x = self.embed(tokens[:, -1:]) + self.pos[position:position + 1]
                for block, cache in zip(self.blocks, caches):
                    x = block(x, None, kv_cache=cache)
                last = self.head(self.ln_out(x))[:, -1]
        return tokens
