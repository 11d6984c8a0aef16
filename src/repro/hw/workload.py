"""Hardware job extraction: attention records -> quantized tile jobs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_MAGNITUDE_BITS = 11


def _int_dtype(magnitude_bits: int) -> type:
    """The integer type of quantized values: int16 while the
    magnitudes fit, so kernels stage them without widening."""
    return np.int16 if magnitude_bits < 16 else np.int64


def _quantize(values: np.ndarray, magnitude_bits: int
              ) -> tuple[np.ndarray, float]:
    """Symmetric sign-magnitude quantization to ``magnitude_bits``."""
    dtype = _int_dtype(magnitude_bits)
    peak = float(np.abs(values).max())
    if peak <= 0.0:
        return np.zeros(values.shape, dtype=dtype), 1.0
    scale = ((1 << magnitude_bits) - 1) / peak
    return np.round(values * scale).astype(dtype), scale


@dataclass
class HeadJob:
    """One (layer, head, sequence) attention tile job.

    ``queries``/``keys``/``threshold`` are in the tile's native 12-bit
    integer domain (int16 arrays from the quantizers here); the float
    originals are kept so simulators can requantize for narrower
    datapaths (e.g. the 9-bit Table-2 variant).
    """

    queries: np.ndarray          # (S_q, D) integers
    keys: np.ndarray             # (S_k, D) integers
    threshold: float             # integer-score domain
    valid: np.ndarray            # (S_q, S_k) bool
    q_float: np.ndarray | None = None
    k_float: np.ndarray | None = None
    threshold_float: float | None = None
    layer_index: int = 0
    head: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, int]:
        return self.queries.shape[0], self.keys.shape[0]

    def quantized_for(self, magnitude_bits: int
                      ) -> tuple[np.ndarray, np.ndarray, float]:
        """(queries, keys, threshold) at the requested precision."""
        if magnitude_bits == DEFAULT_MAGNITUDE_BITS or self.q_float is None:
            return self.queries, self.keys, self.threshold
        q, sq = _quantize(self.q_float, magnitude_bits)
        k, sk = _quantize(self.k_float, magnitude_bits)
        return q, k, float(self.threshold_float) * sq * sk


def job_from_arrays(q: np.ndarray, k: np.ndarray, threshold: float,
                    valid: np.ndarray | None = None,
                    magnitude_bits: int = DEFAULT_MAGNITUDE_BITS,
                    layer_index: int = 0, head: int = 0) -> HeadJob:
    """Build a tile job from float Q, K and a float threshold, such that
    integer scores ~ float scores * (scale_q * scale_k)."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    qi, sq = _quantize(q, magnitude_bits)
    ki, sk = _quantize(k, magnitude_bits)
    if valid is None:
        valid = np.ones((q.shape[0], k.shape[0]), dtype=bool)
    return HeadJob(
        queries=qi, keys=ki, threshold=float(threshold) * sq * sk,
        valid=np.asarray(valid, dtype=bool),
        q_float=q, k_float=k, threshold_float=float(threshold),
        layer_index=layer_index, head=head,
    )


def _quantize_stack(arrays, magnitude_bits: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_quantize` of every trailing matrix of the same-shape
    ``arrays`` in one vectorised pass: each matrix with its own peak,
    bit-identical to quantizing them one at a time.  Returns the
    stacked integer matrices and their scales."""
    values = np.stack(arrays).astype(np.float64, copy=False)
    flat = values.reshape(-1, values.shape[-2] * values.shape[-1])
    peaks = np.maximum(flat.max(axis=1), -flat.min(axis=1))
    scales = np.ones_like(peaks)
    np.divide((1 << magnitude_bits) - 1, peaks, out=scales,
              where=peaks > 0.0)
    np.multiply(flat, scales[:, None], out=flat)
    ints = np.rint(flat, out=np.empty(flat.shape,
                                      dtype=_int_dtype(magnitude_bits)),
                   casting="unsafe")
    return ints.reshape(values.shape), scales.reshape(values.shape[:-2])


def jobs_from_records(records, pack_group=None) -> list[HeadJob]:
    """Flatten captured attention records into per-(batch, head) jobs.

    Records must have been captured with ``record_qk=True`` so the
    actual Q/K activations are available (the recorded scores already
    include the 1/sqrt(d) scale, and so do the stored queries).

    All Q and K matrices of one shape are quantized in one vectorised
    pass, each with its own peak, exactly as :func:`job_from_arrays`
    quantizes a single job.

    Each job carries a ``pack_key`` — ``(pack_group, layer, batch,
    head)`` — identifying its key matrix for the pack-once plane
    caches: across the decode records of one stream the same key sees
    K grow by a suffix, so packed planes are reused instead of rebuilt
    per step.  Pass a stable ``pack_group`` (e.g. a stream id) when
    jobs from different calls should share cache entries; the default
    ``None`` still distinguishes layers/heads within one call.
    """
    records = list(records)
    # every Q and K activation, grouped by shape: (record, 0 for Q or
    # 1 for K) per member
    shapes: dict[tuple, list[tuple[int, int]]] = {}
    for index, record in enumerate(records):
        if record.queries is None or record.keys is None:
            raise ValueError(
                "record captured without record_qk=True; hardware jobs "
                "need the Q/K activations")
        for side, values in enumerate((record.queries, record.keys)):
            shapes.setdefault(values.shape, []).append((index, side))
    # per record: [(int Q, Q scales), (int K, K scales)], each
    # (batch, heads, ...)
    quantized = [[None, None] for _ in records]
    for members in shapes.values():
        ints, scales = _quantize_stack(
            [(records[i].queries, records[i].keys)[side]
             for i, side in members], DEFAULT_MAGNITUDE_BITS)
        for position, (i, side) in enumerate(members):
            quantized[i][side] = (ints[position], scales[position])

    jobs: list[HeadJob] = []
    for record, ((qi, sq), (ki, sk)) in zip(records, quantized):
        q = np.asarray(record.queries, dtype=np.float64)
        k = np.asarray(record.keys, dtype=np.float64)
        batch, heads = q.shape[:2]
        threshold = float(record.threshold)
        for b in range(batch):
            valid = (np.ones((q.shape[2], k.shape[2]), dtype=bool)
                     if record.valid is None
                     else np.asarray(record.valid[b], dtype=bool))
            for h in range(heads):
                job = HeadJob(
                    queries=qi[b, h], keys=ki[b, h],
                    threshold=(threshold * float(sq[b, h])
                               * float(sk[b, h])),
                    valid=valid, q_float=q[b, h], k_float=k[b, h],
                    threshold_float=threshold,
                    layer_index=record.layer_index, head=h)
                job.metadata["pack_key"] = (
                    pack_group, record.layer_index, b, h)
                jobs.append(job)
    return jobs
