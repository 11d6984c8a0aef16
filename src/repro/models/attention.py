"""Pruning-aware attention: the shared score-gate core plus the
multi-head self-attention module.

Every attention-like computation in the model zoo (transformer heads,
MemN2N hops) funnels its score matrix through ``AttentionBase``'s gated
softmax so the controller, statistics and record capture behave
identically across models.  ``PrunedSelfAttention`` has two forwards:
the autograd ``forward`` (training, evaluation, ``generate()``,
classify serving) and the tape-free ``infer`` behind
``TransformerLM.prefill``/``decode_step``.  Both gate scores through
the one ``AttentionBase.gate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.pruning import PruningMode
from ..core.soft_threshold import log_soft_threshold, soft_threshold
from ..nn import Linear, Module
from ..tensor import Tensor, concatenate, grad_enabled
from ..tensor import functional as F

NEG_INF = -1e9


@dataclass
class AttentionRecord:
    """One captured forward pass of one attention layer."""

    layer_index: int
    scores: np.ndarray                   # (B, H, Sq, Sk)
    pruned_mask: np.ndarray | None       # (B, H, Sq, Sk) bool
    threshold: float
    valid: np.ndarray | None = None      # (B, Sq, Sk) bool
    queries: np.ndarray | None = None    # (B, H, Sq, Dh)
    keys: np.ndarray | None = None       # (B, H, Sk, Dh)

    def pruning_rate(self) -> float:
        if self.pruned_mask is None:
            return 0.0
        if self.valid is None:
            return float(self.pruned_mask.mean())
        valid = np.broadcast_to(self.valid[:, None],
                                self.pruned_mask.shape)
        total = valid.sum()
        return float((self.pruned_mask & valid).sum() / max(total, 1))


class AttentionBase(Module):
    """Controller hookup, pruning statistics and record capture."""

    def __init__(self, layer_index: int):
        super().__init__()
        self.layer_index = layer_index
        self.controller = None
        # optional heuristic override for HARD mode (baseline studies):
        # ("relative", delta) — A3-style row-max relative threshold;
        # ("topk", k)         — SpAtten-style top-k survivors per row
        self.heuristic: tuple[str, float] | None = None
        self.record_scores = False
        self.record_qk = False
        self.records: list[AttentionRecord] = []
        self.stat_pruned = 0
        self.stat_valid = 0

    def clear_records(self) -> None:
        self.records = []

    def clear_stats(self) -> None:
        self.stat_pruned = 0
        self.stat_valid = 0

    def gated_softmax(self, scores: Tensor,
                      valid: np.ndarray | None = None,
                      queries: np.ndarray | None = None,
                      keys: np.ndarray | None = None) -> Tensor:
        """Softmax over scores with the controller's pruning applied.

        ``scores``: (B, H, Sq, Sk); ``valid``: (B, Sq, Sk) bool mask of
        positions that exist (padding / causality).
        """
        controller = self.controller
        if controller is not None and controller.mode is PruningMode.SOFT:
            valid4 = None if valid is None else valid[:, None]
            threshold = controller.threshold(self.layer_index)
            logits = scores + log_soft_threshold(
                scores, threshold, controller.soft_config)
            if valid4 is not None:
                logits = F.where(valid4, logits, NEG_INF)
            # L0 terms and sparsity counters feed the training
            # objective; no-grad (evaluation) forwards must not
            # accumulate them
            if grad_enabled():
                gate = soft_threshold(scores, threshold,
                                      controller.soft_config)
                if valid4 is not None:
                    count = int(valid4.sum()) * scores.shape[1]
                    gate_mean = (gate * valid4).sum() * (1.0 / max(count, 1))
                else:
                    count = scores.size
                    gate_mean = gate.mean()
                controller.add_l0(gate_mean)
                hard = scores.data < float(threshold.data)
                if valid4 is not None:
                    hard = hard & valid4
                controller.count_soft(int(hard.sum()), int(count))
            return F.softmax(logits)

        keep = self.gate(scores.data, valid, queries, keys)
        if keep is not None:
            scores = F.where(keep, scores, NEG_INF)
        return F.softmax(scores)

    def gate(self, scores: np.ndarray, valid: np.ndarray | None,
             queries: np.ndarray | None = None,
             keys: np.ndarray | None = None) -> np.ndarray | None:
        """The HARD/OFF score gate shared by both forwards.  SOFT mode
        is a training objective with no gate here (ValueError).

        Returns the (B, H, Sq, Sk)-broadcastable mask of scores that
        enter the softmax (None: all of them).  In HARD mode it also
        counts ``stat_pruned``/``stat_valid`` and captures an
        ``AttentionRecord`` when ``record_scores`` is set.
        """
        controller = self.controller
        mode = controller.mode if controller is not None else PruningMode.OFF
        valid4 = None if valid is None else valid[:, None]
        if mode is PruningMode.OFF:
            return valid4
        if mode is not PruningMode.HARD:
            raise ValueError(f"{mode.name} pruning has no array forward; "
                             "it runs only on the autograd path")
        threshold = float(controller.threshold(self.layer_index).data)
        masked = scores if valid4 is None else np.where(
            valid4, scores, -np.inf)
        row_max = masked.max(axis=-1, keepdims=True)
        if self.heuristic is not None:
            kind, value = self.heuristic
            if kind == "relative":
                pruned = scores < (row_max - value)
            elif kind == "topk":
                keep = min(int(value), scores.shape[-1])
                order = np.argsort(
                    np.argsort(-masked, axis=-1), axis=-1)
                pruned = order >= keep
            else:
                raise ValueError(f"unknown heuristic {kind!r}")
        else:
            pruned = scores < threshold
        if valid4 is not None:
            pruned &= valid4
        # the running-max register always survives: a row is never
        # pruned empty, matching the accelerator's back end
        pruned &= masked != row_max
        self.stat_pruned += int(pruned.sum())
        # valid4 broadcasts over the head axis; count it arithmetically
        self.stat_valid += (int(valid4.sum()) * scores.shape[1]
                            if valid4 is not None else scores.size)
        if self.record_scores:
            self.records.append(AttentionRecord(
                layer_index=self.layer_index,
                scores=scores.copy(),
                pruned_mask=pruned.copy(),
                threshold=threshold,
                valid=None if valid is None else valid.copy(),
                queries=queries.copy() if (
                    self.record_qk and queries is not None) else None,
                keys=keys.copy() if (
                    self.record_qk and keys is not None) else None,
            ))
        return ~pruned if valid4 is None else (~pruned & valid4)


class PrunedSelfAttention(AttentionBase):
    """Multi-head self-attention with learned runtime pruning."""

    def __init__(self, dim: int, num_heads: int, layer_index: int,
                 rng: np.random.Generator):
        super().__init__(layer_index)
        if dim % num_heads:
            raise ValueError("num_heads must divide dim")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def _split(self, x, batch: int, seq: int):
        """(B, S, D) -> (B, H, S, Dh), for Tensors and arrays alike."""
        return x.reshape(batch, seq, self.num_heads,
                         self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, valid: np.ndarray | None = None,
                kv_cache: dict | None = None) -> Tensor:
        """``x``: (B, S, D).  ``valid``: (B, Sq, Sk) position mask.

        ``kv_cache`` (the append protocol, used by
        ``TransformerLM.generate``): a dict with optional "k"/"v"
        arrays of shape (B, H, S_hist, Dh); the new keys/values are
        concatenated and attention runs with S_q = x's sequence length
        against the full history.  Serving's scatter protocol lives on
        the tape-free ``infer``.
        """
        batch, seq, _ = x.shape
        q = self._split(self.wq(x), batch, seq)
        k = self._split(self.wk(x), batch, seq)
        v = self._split(self.wv(x), batch, seq)

        if kv_cache is not None:
            if "k" in kv_cache:
                k = concatenate([kv_cache["k"], k], axis=2)
                v = concatenate([kv_cache["v"], v], axis=2)
            kv_cache["k"], kv_cache["v"] = k, v

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k.swapaxes(-1, -2)) * scale
        probs = self.gated_softmax(scores, valid,
                                   queries=q.data * scale, keys=k.data)
        out = probs @ v
        out = out.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)
        return self.wo(out)

    def infer(self, x: np.ndarray, valid: np.ndarray,
              cache: dict) -> np.ndarray:
        """Tape-free ``forward`` on plain arrays: the serving path.

        ``cache`` selects one of two protocols:

        * prefill — an empty dict.  ``x``: (B, S, D) left-aligned
          prompts; the dict receives this forward's "k"/"v" arrays
          (B, H, S, Dh).
        * scatter (decode) — "k"/"v" float buffers (B, H, cap, Dh) plus
          "lengths" (B,) per-stream history sizes.  ``x`` holds the
          step's B query rows first, zero-padded to (tiles, R, D) so
          every projection is a stack of fixed-shape GEMMs whatever B
          is (``TransformerLM.decode_step`` pads to ``DECODE_TILE``
          rows).  Each stream's one new K/V row is written at its own
          length and the lengths advance, so streams of different ages
          coalesce while every row keeps the bit pattern it has when
          served alone: histories stay left-aligned and ``valid``
          (B, 1, cap) masks positions past each length.  The caller
          checks capacity before the step.
        """
        q, k, v = self.wq.infer(x), self.wk.infer(x), self.wv.infer(x)
        scatter = "lengths" in cache
        if scatter:
            lengths = cache["lengths"]
            batch, seq = len(lengths), 1
            q, k, v = (self._split(a.reshape(-1, self.dim)[:batch],
                                   batch, seq) for a in (q, k, v))
            rows = np.arange(batch)
            cache["k"][rows, :, lengths] = k[:, :, 0]
            cache["v"][rows, :, lengths] = v[:, :, 0]
            cache["lengths"] = lengths + 1
            k, v = cache["k"], cache["v"]
        else:
            batch, seq = x.shape[:2]
            q, k, v = (self._split(a, batch, seq) for a in (q, k, v))
            cache["k"], cache["v"] = k, v

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k.swapaxes(-1, -2)) * scale
        keep = self.gate(scores, valid, queries=q * scale, keys=k)
        if keep is not None:
            scores = np.where(keep, scores, NEG_INF)
        out = (F.softmax_array(scores) @ v).transpose(0, 2, 1, 3).reshape(batch, seq,
                                                          self.dim)
        if scatter:
            padded = np.zeros(x.shape)
            padded.reshape(-1, self.dim)[:batch] = out[:, 0]
            out = padded
        return self.wo.infer(out)
