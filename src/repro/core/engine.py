"""Deployment packaging: weights + learned thresholds + HW estimate."""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass, is_dataclass

import numpy as np

from ..tensor import no_grad

#: (sidecar path, npz stamp) -> {name: read-only memmap array}.  A second
#: mmap-open of the same snapshot in one process reuses the *same* mapped
#: arrays (so N same-process replicas add ~zero RSS); across processes
#: the page cache shares the file pages instead.
_MMAP_CACHE: dict = {}


def _npz_stamp(npz_path: str) -> list:
    """Freshness stamp of the weights archive: (mtime_ns, size).  The
    sidecar manifest records it so a re-saved snapshot invalidates any
    previously expanded ``weights_mmap/`` directory."""
    stat = os.stat(npz_path)
    return [stat.st_mtime_ns, stat.st_size]


def _sidecar_stamp(sidecar: str) -> list | None:
    """The npz stamp a published sidecar was expanded from (None when
    there is no readable manifest)."""
    try:
        with open(os.path.join(sidecar, "manifest.json")) as fh:
            return json.load(fh).get("stamp")
    except (OSError, ValueError):
        return None


def ensure_mmap_weights(directory: str) -> str:
    """Expand ``weights.npz`` into a ``weights_mmap/`` sidecar of raw
    per-array ``.npy`` files and return its path.

    ``np.load(..., mmap_mode="r")`` silently ignores the mmap request
    for ``.npz`` archives (zip members are not page-alignable), so real
    zero-copy loading needs each array as its own ``.npy`` file.  The
    expansion is done once per snapshot: a ``manifest.json`` records
    the npz stamp, and a stale or missing sidecar is rebuilt in a temp
    directory and published with an atomic rename, so concurrent
    openers (N worker processes booting at once) never observe a
    half-written file.  A sidecar whose stamp matches is never
    removed — another opener may be mapping its files — so an
    expander that lost the race discards its own copy."""
    npz = os.path.join(directory, "weights.npz")
    sidecar = os.path.join(directory, "weights_mmap")
    stamp = _npz_stamp(npz)
    if _sidecar_stamp(sidecar) == stamp:
        return sidecar
    tmp = f"{sidecar}.tmp.{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    arrays = {}
    with np.load(npz) as state:
        for index, name in enumerate(state.files):
            filename = f"arr{index}.npy"
            np.save(os.path.join(tmp, filename), state[name])
            arrays[name] = filename
    with open(os.path.join(tmp, "manifest.json"), "w") as fh:
        json.dump({"stamp": stamp, "arrays": arrays}, fh)
    try:
        os.rename(tmp, sidecar)             # publish where none exists
        return sidecar
    except OSError:
        pass                                # occupied: fresh or stale
    if _sidecar_stamp(sidecar) != stamp:    # stale: replace wholesale
        shutil.rmtree(sidecar, ignore_errors=True)
        try:
            os.rename(tmp, sidecar)
            return sidecar
        except OSError:
            pass                            # a concurrent expander won
    shutil.rmtree(tmp, ignore_errors=True)
    return sidecar


def load_mmap_state(directory: str) -> dict:
    """Read-only memory-mapped ``{name: array}`` view of a snapshot's
    weights (expanding the sidecar on first use).  Arrays are cached
    per (sidecar, stamp), so repeat opens in one process return the
    very same mappings instead of new page-table entries."""
    sidecar = ensure_mmap_weights(directory)
    with open(os.path.join(sidecar, "manifest.json")) as fh:
        manifest = json.load(fh)
    key = (os.path.abspath(sidecar), tuple(manifest["stamp"]))
    state = _MMAP_CACHE.get(key)
    if state is None:
        state = {name: np.load(os.path.join(sidecar, filename),
                               mmap_mode="r")
                 for name, filename in manifest["arrays"].items()}
        _MMAP_CACHE[key] = state
    return state


def _model_registry() -> dict:
    """Model-class name -> (model class, config class), imported lazily
    (models depend on core, so core cannot import them at module load)."""
    from ..models import (ClassifierConfig, LMConfig, MemN2N, MemN2NConfig,
                          TransformerClassifier, TransformerLM)
    return {
        "TransformerClassifier": (TransformerClassifier, ClassifierConfig),
        "TransformerLM": (TransformerLM, LMConfig),
        "MemN2N": (MemN2N, MemN2NConfig),
    }


@dataclass(frozen=True)
class HardwareEstimate:
    config_name: str
    runtime_ns: float
    baseline_runtime_ns: float
    speedup_vs_baseline: float
    energy_reduction: float
    pruning_rate: float
    # absolute energies (pJ) so served traffic can aggregate totals
    # across coalesced batches, not just per-batch ratios
    energy_pj: float = 0.0
    baseline_energy_pj: float = 0.0


class PrunedInferenceEngine:
    """A trained model plus its controller, ready to serve.

    ``save``/``load`` round-trip the weights and thresholds;
    ``estimate_hardware`` simulates one batch on the accelerator model.
    """

    def __init__(self, model, controller):
        self.model = model
        self.controller = controller
        controller.hard()
        model.eval()

    def logits_for(self, inputs, mask=None) -> np.ndarray:
        """Raw logits for inputs that may or may not carry a mask (no
        labels needed — this is the serving-side entry point)."""
        with no_grad():
            if isinstance(inputs, tuple):
                logits = self.model.logits(*inputs, mask)
            elif mask is not None:
                logits = self.model.logits(inputs, mask)
            else:
                # mask-free models (e.g. the causal LM) take tokens only
                logits = self.model.logits(inputs)
        return logits.data

    def predict(self, batch):
        return self.logits_for(batch.inputs, batch.mask).argmax(axis=-1)

    def predict_many(self, inputs, mask=None, collect_records: bool = False
                     ) -> tuple[np.ndarray, np.ndarray, list | None]:
        """Batched inference for the serving layer: returns
        (predictions, logits, attention records or None).  With
        ``collect_records`` the forward runs with score/QK capture on,
        so callers can split per-item records out of a coalesced batch
        and charge hardware cycles/energy to individual requests."""
        if collect_records:
            logits, records = self.run_recorded(
                lambda: self.logits_for(inputs, mask))
        else:
            logits, records = self.logits_for(inputs, mask), None
        return logits.argmax(axis=-1), logits, records

    def save(self, directory: str, extra: dict | None = None) -> str:
        """Persist weights + thresholds + enough architecture metadata
        that :meth:`from_directory` can rebuild the engine from scratch.
        ``extra`` entries are merged into ``engine.json``."""
        os.makedirs(directory, exist_ok=True)
        state = self.model.state_dict()
        np.savez_compressed(os.path.join(directory, "weights.npz"), **state)
        config = getattr(self.model, "config", None)
        meta = {
            "model_class": type(self.model).__name__,
            "model_config": (asdict(config) if is_dataclass(config)
                             else None),
            "thresholds": self.controller.threshold_values().tolist(),
            "soft_sharpness": self.controller.soft_config.sharpness,
            "l0_weight": self.controller.l0_config.weight,
        }
        if extra:
            meta.update(extra)
        with open(os.path.join(directory, "engine.json"), "w") as fh:
            json.dump(meta, fh, indent=2)
        return directory

    @staticmethod
    def read_metadata(directory: str) -> dict:
        """Parse ``engine.json`` for a saved engine directory (the one
        place ``load`` and ``from_directory`` read metadata from)."""
        with open(os.path.join(directory, "engine.json")) as fh:
            return json.load(fh)

    @classmethod
    def from_directory(cls, directory: str,
                       mmap: bool = False) -> "PrunedInferenceEngine":
        """Rebuild a saved engine with no pre-built model: reconstruct
        the architecture from ``engine.json``'s recorded model config,
        attach a fresh controller, then restore weights + thresholds.
        ``mmap=True`` memory-maps the weights read-only instead of
        copying them into the heap — N replicas (threads or forked
        worker processes) of one snapshot then share a single set of
        page-cache pages instead of N weight copies."""
        from .soft_threshold import SurrogateL0Config

        meta = cls.read_metadata(directory)
        name = meta.get("model_class")
        config_dict = meta.get("model_config")
        if config_dict is None:
            raise ValueError(
                f"{directory!r} predates model-config metadata; re-save "
                "the engine (or build the model yourself and call load)")
        registry = _model_registry()
        if name not in registry:
            raise ValueError(f"unknown model class {name!r}; have "
                             f"{sorted(registry)}")
        model_class, config_class = registry[name]
        model = model_class(config_class(**config_dict))
        controller = model.make_controller(l0_config=SurrogateL0Config(
            weight=meta.get("l0_weight", SurrogateL0Config().weight)))
        engine = cls(model, controller)
        engine.load(directory, mmap=mmap)
        return engine

    def load(self, directory: str, mmap: bool = False) -> None:
        """Restore a saved engine in place: model weights, learned
        thresholds and the soft-gate sharpness.  With ``mmap=True`` the
        weights stay read-only views over the ``weights_mmap/`` sidecar
        (see :func:`ensure_mmap_weights`) — zero-copy, shared across
        every open of the same snapshot."""
        from .soft_threshold import SoftThresholdConfig

        meta = self.read_metadata(directory)
        if mmap:
            self.model.load_state_dict(load_mmap_state(directory))
        else:
            state = np.load(os.path.join(directory, "weights.npz"))
            self.model.load_state_dict({k: state[k] for k in state.files})
        self.controller.set_threshold_values(np.array(meta["thresholds"]))
        self.controller.soft_config = SoftThresholdConfig(
            sharpness=meta["soft_sharpness"])

    def run_recorded(self, forward) -> tuple[object, list]:
        """Run ``forward`` under no-grad with attention score/QK capture
        enabled on every layer; returns (forward's value, records)."""
        modules = self.model.attention_modules()
        for module in modules:
            module.record_scores = True
            module.record_qk = True
            module.clear_records()
        try:
            with no_grad():
                value = forward()
        finally:
            records = [r for m in modules for r in m.records]
            for module in modules:
                module.record_scores = False
                module.record_qk = False
                module.clear_records()
        return value, records

    def estimate_hardware(self, batch, config=None) -> HardwareEstimate:
        _, records = self.run_recorded(lambda: self.model.metrics(batch))
        return self.estimate_from_records(records, config)

    def estimate_from_records(self, records, config=None,
                              profiler=None) -> HardwareEstimate:
        """Simulate captured attention records on the accelerator model
        vs the non-pruning baseline.  Serving uses this directly: the
        batcher slices a coalesced batch's records per request, and each
        request's estimate is identical to a solo run of that request."""
        return self.estimate_many([records], config,
                                  profiler=profiler)[0]

    def estimate_many(self, record_groups, config=None,
                      profiler=None) -> list[HardwareEstimate]:
        """Estimate several record groups against one pair of
        simulators.

        The serving layer slices each scheduler step's coalesced
        records into per-request groups (one per stream or classify
        request that participated in the step) and charges them in a
        single call here, so hardware accounting is cut per step rather
        than per whole round — without rebuilding the tile/baseline
        simulators and energy model for every slice.  Each group's
        estimate is bit-identical to calling
        :meth:`estimate_from_records` on it alone: the simulators keep
        no state across ``run`` calls.

        ``profiler`` (a :class:`repro.obs.KernelProfiler`) times the
        pruning simulator's fused kernel dispatches."""
        from ..hw import (AE_LEOPARD, EnergyModel, TileSimulator,
                          baseline_like)
        from ..hw.workload import jobs_from_records

        config = config or AE_LEOPARD
        simulator = TileSimulator(config, profiler=profiler)
        base_config = baseline_like(config)
        baseline = TileSimulator(base_config)
        energy = EnergyModel()
        to_ns = 1.0 / config.frequency_ghz
        estimates = []
        for records in record_groups:
            jobs = jobs_from_records(records)
            ours = simulator.run(jobs)
            base = baseline.run(jobs)
            ours_energy = energy.total(ours.counters, config)
            base_energy = energy.total(base.counters, base_config)
            estimates.append(HardwareEstimate(
                config_name=config.name,
                runtime_ns=ours.total_cycles * to_ns,
                baseline_runtime_ns=base.total_cycles * to_ns,
                speedup_vs_baseline=(base.total_cycles
                                     / max(ours.total_cycles, 1)),
                energy_reduction=base_energy / max(ours_energy, 1e-12),
                pruning_rate=ours.pruning_rate,
                energy_pj=ours_energy,
                baseline_energy_pj=base_energy,
            ))
        return estimates
