"""Standard layers used by the model zoo."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..tensor import functional as F
from .module import Module, Parameter


class Linear(Module):
    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        scale = np.sqrt(2.0 / (in_features + out_features))
        self.weight = Parameter(
            rng.standard_normal((in_features, out_features)) * scale)
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def infer(self, x: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """Tape-free forward on a plain array (the serving path),
        optionally into ``out``."""
        out = np.matmul(x, self.weight.data, out=out)
        out += self.bias.data
        return out


class Embedding(Module):
    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator | None = None,
                 init_scale: float = 0.1):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.weight = Parameter(
            rng.standard_normal((num_embeddings, dim)) * init_scale)

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding(self.weight, indices)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.gain = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gain, self.bias, self.eps)

    def infer(self, x: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """Tape-free forward on a plain array (the serving path),
        optionally into ``out``."""
        return F.layer_norm_array(x, self.gain.data, self.bias.data,
                                  self.eps, out)
