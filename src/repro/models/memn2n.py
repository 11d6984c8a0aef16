"""End-to-end memory network (MemN2N) for bAbI-style QA.

Each hop attends from the controller state over the story's memory
slots; those attention scores go through the same gated softmax as the
transformer heads, so the paper's runtime pruning applies per hop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.soft_threshold import SoftThresholdConfig, SurrogateL0Config
from ..nn import Embedding, Linear, Module
from ..tensor import Tensor, no_grad
from ..tensor import functional as F
from .attention import AttentionBase
from .controller import ThresholdController


@dataclass(frozen=True)
class MemN2NConfig:
    vocab_size: int
    num_slots: int
    sentence_len: int
    dim: int
    num_hops: int
    num_classes: int
    seed: int = 0


class MemoryHop(AttentionBase):
    """One hop: scores = u · m_i / sqrt(d), pruned softmax, read out."""

    def __init__(self, dim: int, layer_index: int):
        super().__init__(layer_index)
        self.dim = dim

    def forward(self, u: Tensor, memory: Tensor, output: Tensor,
                valid: np.ndarray | None = None) -> Tensor:
        # u: (B, D); memory/output: (B, M, D)
        scale = 1.0 / np.sqrt(self.dim)
        q = u.reshape(u.shape[0], 1, u.shape[1])
        scores = (q @ memory.swapaxes(-1, -2)) * scale     # (B, 1, M)
        scores4 = scores.reshape(scores.shape[0], 1, 1, scores.shape[2])
        valid3 = None if valid is None else valid[:, None, :]
        probs = self.gated_softmax(
            scores4, valid3,
            queries=q.data[:, None], keys=memory.data[:, None],
            scale=scale)
        probs = probs.reshape(probs.shape[0], 1, probs.shape[3])
        read = (probs @ output)                            # (B, 1, D)
        return read.reshape(read.shape[0], read.shape[2])


class MemN2N(Module):
    metric_name = "accuracy"

    def __init__(self, config: MemN2NConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        # adjacent weight tying (A = B): a question entity matches the
        # slot holding the same entity straight from initialization
        self.embed_a = Embedding(config.vocab_size, config.dim, rng,
                                 init_scale=0.7)
        self.embed_b = self.embed_a
        self.embed_c = Embedding(config.vocab_size, config.dim, rng)
        self.hops = [MemoryHop(config.dim, i)
                     for i in range(config.num_hops)]
        self.head = Linear(config.dim, config.num_classes, rng)
        self._controller: ThresholdController | None = None

    def attention_modules(self) -> list[MemoryHop]:
        return list(self.hops)

    def make_controller(self, l0_config: SurrogateL0Config | None = None,
                        soft_config: SoftThresholdConfig | None = None
                        ) -> ThresholdController:
        controller = ThresholdController(len(self.hops), l0_config,
                                         soft_config)
        for hop in self.hops:
            hop.controller = controller
        self._controller = controller
        return controller

    def logits(self, story: np.ndarray, question: np.ndarray,
               slot_valid: np.ndarray | None = None) -> Tensor:
        # story: (B, M, L) token ids; question: (B, L) token ids;
        # token 0 is padding and contributes nothing to the bags
        story_mask = (np.asarray(story) != 0)[..., None]
        question_mask = (np.asarray(question) != 0)[..., None]
        memory = (self.embed_a(story) * story_mask).sum(axis=2)   # (B, M, D)
        output = (self.embed_c(story) * story_mask).sum(axis=2)   # (B, M, D)
        u = (self.embed_b(question) * question_mask).sum(axis=1)  # (B, D)
        for hop in self.hops:
            read = hop(u, memory, output, slot_valid)
            u = u + read          # residual controller state update
        return self.head(u)

    def loss(self, batch) -> Tensor:
        story, question = batch.inputs
        return F.cross_entropy(
            self.logits(story, question, batch.mask), batch.labels)

    def metrics(self, batch) -> tuple[int, int]:
        story, question = batch.inputs
        with no_grad():
            logits = self.logits(story, question, batch.mask)
        predictions = logits.data.argmax(axis=-1)
        correct = int((predictions == batch.labels).sum())
        return correct, len(batch.labels)
