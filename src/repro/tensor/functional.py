"""Fused functional ops with hand-written backward passes.

These are the hot ops of the transformer forward/backward; each one is
a handful of whole-array numpy expressions rather than a chain of
primitive autograd nodes.  ``softmax``, ``gelu`` and ``layer_norm``
each have an ``*_array`` kernel on plain numpy arrays, which the
tape-free serving forward calls directly and the Tensor op wraps, so
both forwards run the same arithmetic.

The array kernels take ``out=`` (which may be the input itself) and
run every step in place there, so a serving forward reuses a few work
buffers instead of allocating one temporary per step.  In place or
not, they perform the Tensor ops' operations in the same order, so the
bits do not depend on which forward ran: ``np.mean`` is spelled
``np.add.reduce`` followed by a divide, which is exactly what
``np.mean`` computes.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, stable_sigmoid


def softmax_array(x: np.ndarray, axis: int = -1,
                  out: np.ndarray | None = None,
                  row_max: np.ndarray | None = None) -> np.ndarray:
    """softmax along ``axis``; ``row_max`` may pass in the (keepdims)
    max of ``x`` along ``axis`` when the caller already has it."""
    if row_max is None:
        row_max = x.max(axis=axis, keepdims=True)
    out = np.subtract(x, row_max, out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=axis, keepdims=True)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    out = softmax_array(x.data, axis)

    def backward(grad):
        dot = (grad * out).sum(axis=axis, keepdims=True)
        x._accumulate(out * (grad - dot))

    return Tensor._make(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_z

    def backward(grad):
        soft = np.exp(out)
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  ignore_index: int | None = None) -> Tensor:
    """Mean negative log-likelihood over the last axis of ``logits``.

    ``logits``: (..., C); ``labels``: (...) integer classes.
    """
    labels = np.asarray(labels)
    logp = log_softmax(logits, axis=-1)
    flat = logp.reshape((-1, logits.shape[-1]))
    flat_labels = labels.reshape(-1)
    if ignore_index is not None:
        keep = flat_labels != ignore_index
        index = np.nonzero(keep)[0]
        picked = flat[index, flat_labels[index]]
        count = max(int(keep.sum()), 1)
    else:
        picked = flat[np.arange(flat_labels.size), flat_labels]
        count = flat_labels.size
    return -picked.sum() * (1.0 / count)


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_tanh(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """tanh(C * (x + 0.044715 * x^3)), computed in ``work``, which
    holds x*x on entry."""
    # tanh approximation (Hendrycks & Gimpel); cubes/squares are spelled
    # as multiplies — numpy's float pow is ~70x slower elementwise and
    # this sits on the hot path of every FFN
    work *= x
    work *= 0.044715
    work += x
    work *= _GELU_C
    return np.tanh(work, out=work)


def _gelu_out(x: np.ndarray, t: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * x * (1 + t), overwriting ``t``."""
    t += 1.0
    out = np.multiply(x, 0.5, out=out)
    out *= t
    return out


def gelu_array(x: np.ndarray, out: np.ndarray | None = None,
               work: np.ndarray | None = None) -> np.ndarray:
    """gelu(x); ``work`` is an optional scratch array shaped like x."""
    return _gelu_out(x, _gelu_tanh(x, np.multiply(x, x, out=work)), out)


def gelu(x: Tensor) -> Tensor:
    square = x.data * x.data
    t = _gelu_tanh(x.data, square.copy())
    out = _gelu_out(x.data, t.copy())

    def backward(grad):
        du = _GELU_C * (1.0 + 3 * 0.044715 * square)
        dt = (1.0 - t * t) * du
        x._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * x.data * dt))

    return Tensor._make(out, (x,), backward)


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup: (V, D) table gathered with integer ``indices``."""
    indices = np.asarray(indices)
    out = table.data[indices]

    def backward(grad):
        full = np.zeros_like(table.data)
        np.add.at(full, indices.reshape(-1),
                  grad.reshape(-1, table.data.shape[-1]))
        table._accumulate(full)

    return Tensor._make(out, (table,), backward)


def _normalize(x: np.ndarray, eps: float,
               out: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """(normalized x, 1/std) over the last axis, the first in ``out``."""
    size = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= size
    centered = np.subtract(x, mean, out=out)
    # reuse the centered activations for the variance instead of a
    # second mean pass inside np.var — this op runs five times per block
    inv = np.add.reduce(centered * centered, axis=-1, keepdims=True,
                        out=mean)
    inv /= size
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    centered *= inv
    return centered, inv


def layer_norm_array(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                     eps: float = 1e-5,
                     out: np.ndarray | None = None) -> np.ndarray:
    out, _ = _normalize(x, eps, out)
    out *= gain
    out += bias
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    norm, inv = _normalize(x.data, eps)
    out = norm * gain.data + bias.data

    def backward(grad):
        axes = tuple(range(grad.ndim - 1))
        if gain.requires_grad:
            gain._accumulate((grad * norm).sum(axis=axes))
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=axes))
        if x.requires_grad:
            g = grad * gain.data
            n = x.data.shape[-1]
            gm = g.mean(axis=-1, keepdims=True)
            gnm = (g * norm).mean(axis=-1, keepdims=True)
            x._accumulate(inv * (g - gm - norm * gnm))

    return Tensor._make(out, (x, gain, bias), backward)


def where(condition: np.ndarray, a: Tensor, b) -> Tensor:
    """Select from ``a`` where ``condition`` else constant/tensor ``b``."""
    condition = np.asarray(condition)
    b_tensor = b if isinstance(b, Tensor) else Tensor(np.asarray(b))
    out = np.where(condition, a.data, b_tensor.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(np.where(condition, grad, 0.0))
        if b_tensor.requires_grad:
            b_tensor._accumulate(np.where(condition, 0.0, grad))

    return Tensor._make(out, (a, b_tensor), backward)


def softplus(x: Tensor) -> Tensor:
    # numerically-stable log(1 + exp(x))
    out = np.logaddexp(0.0, x.data)

    def backward(grad):
        x._accumulate(grad * stable_sigmoid(x.data))

    return Tensor._make(out, (x,), backward)
