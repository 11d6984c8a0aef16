"""Pruning-aware attention: the shared score-gate core plus the
multi-head self-attention module.

Every attention-like computation in the model zoo (transformer heads,
MemN2N hops) funnels its score matrix through ``AttentionBase``'s gated
softmax so the controller, statistics and record capture behave
identically across models.  ``PrunedSelfAttention`` has two forwards:
the autograd ``forward`` (training, ``generate()``) and the tape-free
``infer`` behind every served forward (``TransformerLM.prefill`` and
``decode_step``, and ``TransformerClassifier.logits`` with grad off).
Both gate scores through the one ``AttentionBase.gate_scores``.

A tape-free forward carries one ``InferState``: its position mask as a
``ScoreMask`` (with the complement and valid count every layer's gate
needs, derived once), the decode step's scatter indices, and the work
buffers its layers overwrite in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


class ScoreMask:
    """A forward's (B, Sq, Sk) position mask (padding / causality), with
    what every layer's gate derives from it, computed once."""

    def __init__(self, valid: np.ndarray):
        self.valid = valid
        self.valid4 = valid[:, None]           # broadcasts over heads
        self.invalid4 = ~self.valid4
        self.count = int(np.count_nonzero(valid))   # per head
        self._invalid = self.invalid4

    def mask_out(self, scores: np.ndarray) -> None:
        """Overwrite ``scores``' masked positions with ``NEG_INF``."""
        if self._invalid.shape != scores.shape:
            # putmask takes a mask shaped like its array: spell the
            # head axis out once per forward
            self._invalid = np.empty(scores.shape, dtype=bool)
            self._invalid[...] = self.invalid4
        np.putmask(scores, self._invalid, NEG_INF)


@dataclass
class InferState:
    """One tape-free forward's shared state (see ``PrunedSelfAttention.
    infer``): the mask (None: every position is valid), the decode
    step's per-stream history sizes and live KV prefix, and work
    buffers that each layer overwrites in turn."""

    mask: ScoreMask | None
    lengths: np.ndarray | None = None      # decode: (B,) history sizes
    width: int | None = None               # decode: KV rows read
    buffers: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.lengths is not None:
            self.rows = np.arange(len(self.lengths))
            self.advanced = self.lengths + 1

    def buffer(self, role: str, shape: tuple,
               zeros: bool = False) -> np.ndarray:
        """This forward's work array for ``role``: uninitialised (or
        zero) on first use, then whatever the previous layer left in
        it."""
        array = self.buffers.get(role)
        if array is None or array.shape != shape:
            array = np.zeros(shape) if zeros else np.empty(shape)
            self.buffers[role] = array
        return array


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
                      keys: np.ndarray | None = None,
                      scale: float = 1.0) -> Tensor:
        """Softmax over scores with the controller's pruning applied.

        ``scores``: (B, H, Sq, Sk); ``valid``: (B, Sq, Sk) bool mask of
        positions that exist (padding / causality).  ``queries`` times
        ``scale`` and ``keys`` are what a record captures.
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

        mask = None if valid is None else ScoreMask(valid)
        if controller is None or controller.mode is PruningMode.OFF:
            drop = None if mask is None else mask.invalid4
        else:
            drop, _ = self.gate_scores(scores.data.copy(), mask, queries,
                                       keys, scale)
        if drop is not None:
            scores = F.where(~drop, scores, NEG_INF)
        return F.softmax(scores)

    def gate_scores(self, scores: np.ndarray, mask: ScoreMask | None,
                    queries: np.ndarray | None = None,
                    keys: np.ndarray | None = None,
                    scale: float = 1.0
                    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The HARD/OFF score gate shared by both forwards, in place:
        every score that leaves the softmax (masked out or pruned) is
        overwritten with ``NEG_INF``.  Returns (drop, row_max): the
        (B, H, Sq, Sk)-broadcastable mask of overwritten scores (None:
        none) and, in HARD mode, the rows' max (else None).  SOFT mode
        is a training objective with no gate here (ValueError).

        In HARD mode a valid score is kept when it reaches the layer's
        threshold or is its row's max, in one pass; ``stat_pruned``
        and ``stat_valid`` advance, and a record (of the scores as
        they came in, ``queries * scale`` and ``keys``) is captured
        when ``record_scores`` is set.  Masked scores become
        ``NEG_INF`` before the max is taken, so a fully masked row's
        max is ``NEG_INF``, not -inf, and ``row_max`` is the max of
        the gated scores: the softmax need not take it again.
        """
        controller = self.controller
        mode = controller.mode if controller is not None else PruningMode.OFF
        if mode is PruningMode.OFF:
            if mask is None:
                return None, None
            mask.mask_out(scores)
            return mask.invalid4, None
        if mode is not PruningMode.HARD:
            raise ValueError(f"{mode.name} pruning has no array forward; "
                             "it runs only on the autograd path")
        threshold = float(controller.threshold(self.layer_index).data)
        record = None
        if self.record_scores:
            record = AttentionRecord(
                layer_index=self.layer_index, scores=scores.copy(),
                pruned_mask=None, threshold=threshold,
                valid=None if mask is None else mask.valid.copy(),
                queries=queries * scale if (
                    self.record_qk and queries is not None) else None,
                keys=keys.copy() if (
                    self.record_qk and keys is not None) else None)
        order = None
        if self.heuristic is not None and self.heuristic[0] == "topk":
            masked = scores if mask is None else np.where(
                mask.valid4, scores, -np.inf)
            order = np.argsort(np.argsort(-masked, axis=-1), axis=-1)
        if mask is not None:
            mask.mask_out(scores)
        row_max = scores.max(axis=-1, keepdims=True)
        # a score drops out when it is masked, or pruned: below the
        # threshold and not the running-max register, which always
        # survives (a row is never pruned empty, matching the
        # accelerator's back end).  No valid score exceeds its row's
        # max, so below both is one comparison with their minimum.
        if self.heuristic is None:
            drop = scores < np.minimum(row_max, threshold)
        else:
            kind, value = self.heuristic
            if kind == "relative":
                # A3-style row-max relative threshold
                drop = scores < np.minimum(row_max, row_max - value)
            elif kind == "topk":
                # SpAtten-style top-k survivors per row
                drop = order >= min(int(value), scores.shape[-1])
                drop &= scores != row_max
            else:
                raise ValueError(f"unknown heuristic {kind!r}")
        if mask is not None:
            drop |= mask.invalid4
        valid = scores.size if mask is None else mask.count * scores.shape[1]
        self.stat_valid += valid
        # drop holds the scores.size - valid masked scores too
        self.stat_pruned += int(np.count_nonzero(drop)) - scores.size + valid
        if record is not None:
            record.pruned_mask = (drop.copy() if mask is None
                                  else drop & mask.valid4)
            self.records.append(record)
        np.putmask(scores, drop, NEG_INF)
        return drop, row_max


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
        probs = self.gated_softmax(scores, valid, queries=q.data,
                                   keys=k.data, scale=scale)
        out = probs @ v
        out = out.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)
        return self.wo(out)

    def infer(self, x: np.ndarray, state: InferState,
              cache: dict | None = None) -> np.ndarray:
        """Tape-free ``forward`` on plain arrays: the serving path.
        ``state`` carries the forward's mask, decode indices and work
        buffers; the result is one of those buffers, so it holds only
        until the next layer runs.

        ``cache`` selects one of three protocols:

        * None (classify) — ``x``: (B, S, D); keys and values are
          dropped with the forward.
        * prefill — an empty dict.  ``x``: (B, S, D) left-aligned
          prompts; the dict receives this forward's "k"/"v" arrays
          (B, H, S, Dh).
        * scatter (decode) — "k"/"v" float buffers (B, H, cap, Dh) plus
          "lengths" (B,) per-stream history sizes, which
          ``state.lengths`` repeats.  ``x`` holds the step's B query
          rows first, zero-padded to (tiles, R, D) so every projection
          is a stack of fixed-shape GEMMs whatever B is
          (``TransformerLM.decode_step`` pads to ``DECODE_TILE``
          rows).  Each stream's one new K/V row is written at its own
          length and the lengths advance, so streams of different ages
          coalesce while every row keeps the bit pattern it has when
          served alone: histories stay left-aligned and the mask
          (B, 1, W) hides positions past each length.  The core reads
          only the first ``state.width`` = W rows of the buffers (the
          caller rounds W up to a multiple of 16, which leaves every
          bit as the full-capacity core has it) and checks capacity
          before the step.
        """
        shape = x.shape
        scatter = state.lengths is not None

        def project(linear, role):
            return linear.infer(x, out=state.buffer(role, shape))

        heads, head_dim = self.num_heads, self.head_dim
        q = project(self.wq, "q")
        if scatter:
            batch, seq = len(state.lengths), 1
            # the step's rows as (B, H, Dh): one query row per stream
            q, k, v = (a.reshape(-1, heads, head_dim)[:batch]
                       for a in (q, project(self.wk, "k"),
                                 project(self.wv, "v")))
            q = q[:, :, None]
            cache["k"][state.rows, :, state.lengths] = k
            cache["v"][state.rows, :, state.lengths] = v
            cache["lengths"] = state.advanced
            k = cache["k"][:, :, :state.width]
            v = cache["v"][:, :, :state.width]
        else:
            batch, seq = shape[:2]
            if cache is None:
                k, v = project(self.wk, "k"), project(self.wv, "v")
            else:                      # the cache keeps them
                k, v = self.wk.infer(x), self.wv.infer(x)
            q, k, v = (self._split(a, batch, seq) for a in (q, k, v))
            if cache is not None:
                cache["k"], cache["v"] = k, v

        scale = 1.0 / np.sqrt(head_dim)
        scores = np.matmul(q, k.swapaxes(-1, -2), out=state.buffer(
            "scores", (batch, heads, seq, k.shape[2])))
        scores *= scale
        _, row_max = self.gate_scores(scores, state.mask, q, k, scale)
        probs = F.softmax_array(scores, out=scores, row_max=row_max)
        mixed = np.matmul(probs, v, out=state.buffer(
            "mixed", (batch, heads, seq, head_dim)))
        # heads back side by side; decode's padding rows stay zero
        merged = state.buffer("merged", shape, zeros=scatter)
        if scatter:
            merged.reshape(-1, self.dim)[:batch].reshape(
                batch, heads, head_dim)[...] = mixed[:, :, 0]
        else:
            merged.reshape(batch, seq, heads, head_dim)[...] = \
                mixed.transpose(0, 2, 1, 3)
        return self.wo.infer(merged, out=state.buffer("out", shape))
