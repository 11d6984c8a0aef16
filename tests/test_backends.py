"""Kernel-backend conformance matrix.

Every registered backend must return ``(cycles, pruned, scores)``
bit-identical to the scalar reference trace
(``bitserial_dot_product``) — these tests pin that contract on
randomized tiles and on the edge cases the tile simulator actually
hits (sign-only first cycles, over-wide groups, fully-pruned tiles,
empty/partial valid masks, aggressive margins).
"""

import numpy as np
import pytest

from repro.hw import backends
from repro.hw.bitserial import (bitserial_cycles_matrix,
                                bitserial_dot_product, serial_cycle_count)

BACKENDS = ("numpy-ref", "numpy-packed")


def run(name, q, k, threshold, magnitude_bits, group, **kwargs):
    return backends.get_backend(name).matrix(
        q, k, threshold, magnitude_bits, group, **kwargs)


def scalar_reference(q, k, threshold, magnitude_bits, group):
    cycles = np.empty((q.shape[0], k.shape[0]), dtype=np.int64)
    pruned = np.empty((q.shape[0], k.shape[0]), dtype=bool)
    scores = np.empty((q.shape[0], k.shape[0]), dtype=np.float64)
    for i in range(q.shape[0]):
        for j in range(k.shape[0]):
            trace = bitserial_dot_product(q[i], k[j], threshold,
                                          magnitude_bits, group)
            cycles[i, j] = trace.cycles
            pruned[i, j] = trace.pruned
            scores[i, j] = trace.exact_value
    return cycles, pruned, scores


def assert_matches(actual, expected, context=""):
    for ours, theirs, name in zip(actual, expected,
                                  ("cycles", "pruned", "scores")):
        np.testing.assert_array_equal(ours, theirs,
                                      err_msg=f"{name} {context}")


# ---------------------------------------------------------------------------
# randomized conformance against the scalar trace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_matches_scalar_trace_randomized(backend):
    """Property: on random tiles across bit widths, group sizes and
    thresholds, the backend equals the per-pair scalar trace."""
    rng = np.random.default_rng(17)
    for trial in range(25):
        s_q = int(rng.integers(1, 14))
        s_k = int(rng.integers(1, 14))
        dim = int(rng.integers(1, 24))
        magnitude_bits = int(rng.integers(1, 13))
        group = int(rng.integers(1, magnitude_bits + 3))
        limit = (1 << magnitude_bits) - 1
        q = rng.integers(-2047, 2048, (s_q, dim))
        k = rng.integers(-limit, limit + 1, (s_k, dim))
        threshold = float(rng.integers(-40_000, 40_000))
        result = run(backend, q, k, threshold, magnitude_bits, group)
        expected = scalar_reference(q, k, threshold, magnitude_bits,
                                    group)
        assert_matches(result, expected,
                       f"(backend={backend}, trial={trial}, "
                       f"bits={magnitude_bits}, group={group})")


@pytest.mark.parametrize("backend", BACKENDS)
def test_matches_reference_with_huge_queries(backend):
    """Queries far outside the 12-bit datapath (full-precision q is
    part of the contract) must still match numpy-ref bit-for-bit —
    this drives the packed backend's float64 fallback."""
    rng = np.random.default_rng(23)
    q = rng.integers(-(1 << 22), 1 << 22, (6, 16))
    k = rng.integers(-2047, 2048, (7, 16))
    result = run(backend, q, k, 1e9, 11, 2)
    expected = run("numpy-ref", q, k, 1e9, 11, 2)
    assert_matches(result, expected, f"(backend={backend})")


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("magnitude_bits,group", [(3, 5), (1, 2), (2, 12)])
def test_group_wider_than_magnitude_bits(backend, magnitude_bits, group):
    """A plane group wider than the magnitude field finishes in one
    cycle; cycle counts and prunes must still match the scalar trace."""
    rng = np.random.default_rng(5)
    limit = (1 << magnitude_bits) - 1
    q = rng.integers(-63, 64, (5, 8))
    k = rng.integers(-limit, limit + 1, (6, 8))
    threshold = 40.0
    assert serial_cycle_count(magnitude_bits + 1, group) == 1
    result = run(backend, q, k, threshold, magnitude_bits, group)
    expected = scalar_reference(q, k, threshold, magnitude_bits, group)
    assert_matches(result, expected, f"(backend={backend})")
    assert (result[0] == 1).all()            # single-cycle schedule


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_scores_pruned(backend):
    """An unreachable threshold prunes everything; early termination
    must still charge at least the sign cycle per score."""
    rng = np.random.default_rng(11)
    q = rng.integers(-2047, 2048, (8, 16))
    k = rng.integers(-2047, 2048, (9, 16))
    cycles, pruned, scores = run(backend, q, k, 1e12, 11, 2)
    assert pruned.all()
    assert (scores < 1e12).all()
    assert (cycles >= 1).all()
    assert (cycles < serial_cycle_count(12, 2)).all()
    expected = scalar_reference(q, k, 1e12, 11, 2)
    assert_matches((cycles, pruned, scores), expected,
                   f"(backend={backend})")


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_valid_mask_zeroes_all_cycles(backend):
    rng = np.random.default_rng(13)
    q = rng.integers(-100, 100, (4, 8))
    k = rng.integers(-100, 100, (5, 8))
    valid = np.zeros((4, 5), dtype=bool)
    cycles, pruned, scores = run(backend, q, k, 0.0, 6, 2, valid=valid)
    assert (cycles == 0).all()
    # prune decisions and scores are still computed for the whole tile
    np.testing.assert_array_equal(pruned, scores < 0.0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_partial_valid_mask(backend):
    """Invalid positions report zero cycles; valid positions are
    untouched by the mask (identical to the unmasked run)."""
    rng = np.random.default_rng(19)
    q = rng.integers(-512, 512, (6, 12))
    k = rng.integers(-512, 512, (6, 12))
    valid = np.tril(np.ones((6, 6), dtype=bool))     # causal mask
    threshold = 1000.0
    cycles, pruned, scores = run(backend, q, k, threshold, 9, 2,
                                 valid=valid)
    unmasked = run(backend, q, k, threshold, 9, 2)
    assert (cycles[~valid] == 0).all()
    np.testing.assert_array_equal(cycles[valid], unmasked[0][valid])
    np.testing.assert_array_equal(pruned, unmasked[1])
    np.testing.assert_array_equal(scores, unmasked[2])


@pytest.mark.parametrize("backend", BACKENDS)
def test_margin_scale_below_one_misprune_accounting(backend):
    """Aggressive margins (< 1) may wrongly prune but never miss a
    true prune, spend monotonically fewer cycles, and must agree with
    numpy-ref exactly at every scale."""
    rng = np.random.default_rng(7)
    q = rng.integers(-2047, 2048, (16, 24))
    k = rng.integers(-2047, 2048, (16, 24))
    threshold = 60_000.0
    exact = (q @ k.T) < threshold
    totals, wrong, missed = {}, {}, {}
    for scale in (1.0, 0.5, 0.25, 0.0):
        cycles, pruned, scores = run(backend, q, k, threshold, 11, 2,
                                     margin_scale=scale)
        reference = run("numpy-ref", q, k, threshold, 11, 2,
                        margin_scale=scale)
        assert_matches((cycles, pruned, scores), reference,
                       f"(backend={backend}, margin_scale={scale})")
        totals[scale] = int(cycles.sum())
        wrong[scale] = int((pruned & ~exact).sum())
        missed[scale] = int((~pruned & exact).sum())
    assert wrong[1.0] == 0                   # conservative margin: exact
    assert all(count == 0 for count in missed.values())
    scales = (1.0, 0.5, 0.25, 0.0)
    assert all(totals[a] >= totals[b]
               for a, b in zip(scales, scales[1:]))
    assert all(wrong[a] <= wrong[b]
               for a, b in zip(scales, scales[1:]))


@pytest.mark.parametrize("backend", BACKENDS)
def test_matches_tile_simulator_shapes(backend):
    """The exact call shape TileSimulator makes (12-bit datapath,
    serial_bits group, causal valid) agrees across backends."""
    rng = np.random.default_rng(29)
    q = rng.integers(-2047, 2048, (10, 64))
    k = rng.integers(-2047, 2048, (10, 64))
    valid = np.tril(np.ones((10, 10), dtype=bool))
    result = run(backend, q, k, 30_000.0, 11, 2, valid=valid)
    expected = run("numpy-ref", q, k, 30_000.0, 11, 2, valid=valid)
    assert_matches(result, expected, f"(backend={backend})")


# ---------------------------------------------------------------------------
# registry behavior
# ---------------------------------------------------------------------------

def test_registry_lists_numpy_backends():
    names = backends.list_backends()
    assert "numpy-ref" in names
    assert "numpy-packed" in names


def test_unknown_backend_raises_with_choices():
    with pytest.raises(KeyError, match="numpy-ref"):
        backends.get_backend("not-a-backend")


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(backends.ENV_VAR, "numpy-packed")
    assert backends.get_backend().name == "numpy-packed"
    monkeypatch.setenv(backends.ENV_VAR, "typo")
    with pytest.raises(KeyError, match="typo"):
        backends.get_backend()
    monkeypatch.delenv(backends.ENV_VAR)
    assert backends.get_backend().name == backends.DEFAULT_BACKEND


def test_explicit_name_beats_env_var(monkeypatch):
    monkeypatch.setenv(backends.ENV_VAR, "numpy-packed")
    assert backends.get_backend("numpy-ref").name == "numpy-ref"


def test_dispatcher_backend_argument():
    rng = np.random.default_rng(3)
    q = rng.integers(-100, 100, (4, 8))
    k = rng.integers(-100, 100, (4, 8))
    for name in backends.list_backends():
        result = bitserial_cycles_matrix(q, k, 50.0, 6, 2, backend=name)
        expected = bitserial_cycles_matrix(q, k, 50.0, 6, 2)
        assert_matches(result, expected, f"(backend={name})")


def test_register_backend_rejects_duplicates():
    class Dummy:
        name = "numpy-ref"
        description = "dup"

        @staticmethod
        def matrix(*args, **kwargs):
            raise NotImplementedError

    with pytest.raises(ValueError, match="already registered"):
        backends.register_backend(Dummy())


def test_register_and_unregister_custom_backend():
    class Delegating:
        name = "unit-test-backend"
        description = "delegates to numpy-ref"

        @staticmethod
        def matrix(q, k, threshold, magnitude_bits, group, valid=None,
                   margin_scale=1.0):
            return backends.get_backend("numpy-ref").matrix(
                q, k, threshold, magnitude_bits, group, valid=valid,
                margin_scale=margin_scale)

    backends.register_backend(Delegating())
    try:
        assert "unit-test-backend" in backends.list_backends()
        rng = np.random.default_rng(31)
        q = rng.integers(-50, 50, (3, 6))
        k = rng.integers(-50, 50, (3, 6))
        result = bitserial_cycles_matrix(q, k, 10.0, 5, 2,
                                         backend="unit-test-backend")
        expected = bitserial_cycles_matrix(q, k, 10.0, 5, 2)
        assert_matches(result, expected)
    finally:
        backends.unregister_backend("unit-test-backend")
    assert "unit-test-backend" not in backends.list_backends()


def test_tile_config_threads_backend():
    from dataclasses import replace

    from repro.hw import AE_LEOPARD, TileSimulator

    sim = TileSimulator(replace(AE_LEOPARD,
                                kernel_backend="numpy-packed"))
    assert sim.backend.name == "numpy-packed"
    # no config override: follows the session's resolved default
    # (env var or DEFAULT_BACKEND)
    assert TileSimulator(AE_LEOPARD).backend.name == \
        backends.get_backend().name
    assert TileSimulator(AE_LEOPARD,
                         backend="numpy-packed").backend.name == \
        "numpy-packed"


def test_hardware_estimate_records_backend(monkeypatch):
    """Serving/engine hardware estimates must say which kernel made
    them — per-request metadata for coalesced traffic."""
    import repro.serve.__main__ as serve_main

    engine = serve_main.build_classifier_engine()
    batch_inputs = np.arange(6).reshape(1, 6) % 4
    mask = np.ones((1, 6), dtype=bool)
    _, records = engine.run_recorded(
        lambda: engine.logits_for(batch_inputs, mask))
    monkeypatch.delenv(backends.ENV_VAR, raising=False)
    estimate = engine.estimate_from_records(records)
    assert estimate.kernel_backend == backends.DEFAULT_BACKEND
    monkeypatch.setenv(backends.ENV_VAR, "numpy-packed")
    packed_estimate = engine.estimate_from_records(records)
    assert packed_estimate.kernel_backend == "numpy-packed"
    # same records, different backend, identical hardware numbers —
    # the conformance guarantee surfacing at the serving layer
    assert packed_estimate.runtime_ns == estimate.runtime_ns
    assert packed_estimate.energy_pj == estimate.energy_pj
    assert packed_estimate.pruning_rate == estimate.pruning_rate
