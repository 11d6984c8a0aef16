"""Transformer encoder classifier (BERT/ViT/ALBERT stand-ins).

``TransformerClassifier.logits`` has two forwards, as the LM does: the
autograd Tensor forward (training, SOFT-mode evaluation) and, with
grad off in HARD or OFF mode, the tape-free array forward
(``TransformerBlock.infer``) that serving runs.  Both give the same
bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.pruning import PruningMode
from ..core.soft_threshold import SoftThresholdConfig, SurrogateL0Config
from ..nn import Embedding, LayerNorm, Linear, Module, Parameter
from ..tensor import Tensor, grad_enabled
from ..tensor import functional as F
from .attention import InferState, PrunedSelfAttention, ScoreMask
from .controller import ThresholdController


@dataclass(frozen=True)
class ClassifierConfig:
    vocab_size: int | None          # None => continuous patch inputs
    max_seq_len: int
    dim: int
    num_heads: int
    num_layers: int
    num_classes: int
    seed: int = 0
    ffn_mult: int = 2
    input_dim: int | None = None    # patch feature size (vocab_size None)
    head: str = "cls"               # "cls" (pooled) or "span" (per-token)


class TransformerBlock(Module):
    def __init__(self, dim: int, num_heads: int, ffn_mult: int,
                 layer_index: int, rng: np.random.Generator):
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attention = PrunedSelfAttention(dim, num_heads, layer_index, rng)
        self.ln2 = LayerNorm(dim)
        self.ffn1 = Linear(dim, dim * ffn_mult, rng)
        self.ffn2 = Linear(dim * ffn_mult, dim, rng)

    def forward(self, x: Tensor, valid: np.ndarray | None = None,
                kv_cache: dict | None = None) -> Tensor:
        x = x + self.attention(self.ln1(x), valid, kv_cache)
        return x + self.ffn2(F.gelu(self.ffn1(self.ln2(x))))

    def infer(self, x: np.ndarray, state: InferState,
              cache: dict | None = None) -> np.ndarray:
        """Tape-free ``forward`` on plain arrays, adding both residual
        branches into ``x`` in place (the serving path; see
        ``PrunedSelfAttention.infer`` for ``state`` and the cache
        protocols)."""
        normed = self.ln1.infer(x, out=state.buffer("normed", x.shape))
        x += self.attention.infer(normed, state, cache)
        self.ln2.infer(x, out=normed)
        wide = x.shape[:-1] + self.ffn1.bias.data.shape
        hidden = self.ffn1.infer(normed, out=state.buffer("wide", wide))
        F.gelu_array(hidden, out=hidden,
                     work=state.buffer("wide_work", wide))
        x += self.ffn2.infer(hidden, out=state.buffer("out", x.shape))
        return x


class TransformerClassifier(Module):
    """Encoder over tokens (or patches) with a classification head.

    ``head="cls"`` mean-pools valid positions; ``head="span"`` emits one
    logit per token position (SQuAD-style answer-start prediction).
    """

    metric_name = "accuracy"

    def __init__(self, config: ClassifierConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        if config.vocab_size is not None:
            self.embed = Embedding(config.vocab_size, config.dim, rng)
        else:
            if config.input_dim is None:
                raise ValueError("patch models need input_dim")
            self.embed = Linear(config.input_dim, config.dim, rng)
        self.pos = Parameter(
            rng.standard_normal((config.max_seq_len, config.dim)) * 0.02)
        self.blocks = [TransformerBlock(config.dim, config.num_heads,
                                        config.ffn_mult, i, rng)
                       for i in range(config.num_layers)]
        self.ln_out = LayerNorm(config.dim)
        out_dim = 1 if config.head == "span" else config.num_classes
        self.head = Linear(config.dim, out_dim, rng)
        self._controller: ThresholdController | None = None

    # -- pruning plumbing ----------------------------------------------
    def attention_modules(self) -> list[PrunedSelfAttention]:
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

    # -- forward --------------------------------------------------------
    def encode(self, inputs: np.ndarray,
               mask: np.ndarray | None = None) -> Tensor:
        inputs = np.asarray(inputs)
        seq = inputs.shape[1]
        if self.config.vocab_size is None:
            x = self.embed(Tensor(inputs)) + self.pos[:seq]
        else:
            x = self.embed(inputs) + self.pos[:seq]
        valid = None
        if mask is not None:
            valid = (mask[:, None, :] & mask[:, :, None])
        for block in self.blocks:
            x = block(x, valid)
        return self.ln_out(x)

    def logits(self, inputs: np.ndarray,
               mask: np.ndarray | None = None) -> Tensor:
        controller = self._controller
        if not grad_enabled() and (controller is None or
                                   controller.mode is not PruningMode.SOFT):
            return Tensor(self.infer(inputs, mask))
        x = self.encode(inputs, mask)
        if self.config.head == "span":
            out = self.head(x)                      # (B, S, 1)
            return out.reshape(out.shape[0], out.shape[1])
        if mask is not None:
            pooled = (x * self._pool_weights(mask)).sum(axis=1,
                                                        keepdims=True)
        else:
            pooled = x.mean(axis=1, keepdims=True)
        # the head runs on (B, 1, D): stacked matmuls use the same
        # per-item kernel at every batch size, so a request's logits do
        # not depend on how many others were coalesced alongside it
        out = self.head(pooled)
        return out.reshape(out.shape[0], out.shape[-1])

    @staticmethod
    def _pool_weights(mask: np.ndarray) -> np.ndarray:
        return mask[:, :, None] / mask.sum(axis=1, keepdims=True)[:, :, None]

    def infer(self, inputs: np.ndarray,
              mask: np.ndarray | None = None) -> np.ndarray:
        """``logits`` on the tape-free array forward (HARD or OFF
        mode): the same operations on plain arrays, so the same bits,
        statistics and records.  Every projection stays one GEMM per
        item and the head one (1, D) @ (D, C) GEMM per item, as in
        ``logits``."""
        inputs = np.asarray(inputs)
        batch, seq = inputs.shape[:2]
        if self.config.vocab_size is None:
            x = self.embed.infer(inputs)
        else:
            x = self.embed.weight.data[inputs]
        x += self.pos.data[:seq]
        state = InferState(None if mask is None else ScoreMask(
            mask[:, None, :] & mask[:, :, None]))
        for block in self.blocks:
            block.infer(x, state)
        x = self.ln_out.infer(x, out=x)
        if self.config.head == "span":
            return self.head.infer(x).reshape(batch, seq)
        if mask is not None:
            x *= self._pool_weights(mask)
            pooled = x.sum(axis=1, keepdims=True)
        else:
            pooled = x.sum(axis=1, keepdims=True) * (1.0 / seq)
        return self.head.infer(pooled).reshape(batch, -1)

    # -- task interface -------------------------------------------------
    def loss(self, batch) -> Tensor:
        return F.cross_entropy(self.logits(batch.inputs, batch.mask),
                               batch.labels)

    def metrics(self, batch) -> tuple[int, int]:
        from ..tensor import no_grad
        with no_grad():
            logits = self.logits(batch.inputs, batch.mask)
        predictions = logits.data.argmax(axis=-1)
        correct = int((predictions == batch.labels).sum())
        return correct, len(batch.labels)
