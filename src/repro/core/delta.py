"""Mergeable model updates: the ``ModelDelta`` accumulator protocol.

RegHD models bundle additively — a model hypervector is a (weighted) sum
of encoded inputs — so a span of training can be captured as a *delta*:
the sum of every update the hot loop applied, plus the sample counts
needed to weight it against other spans.  That is what makes
shard-parallel and federated training possible: N workers train on N
data shards from the same broadcast base state, each returns a
:class:`ModelDelta`, and :func:`merge_deltas` folds them into one
counts-weighted update the coordinator applies to the base
(:meth:`~repro.core.estimator.BaseRegHDEstimator.apply_delta`).

The pieces:

* :class:`TargetMoments` — exact streaming moments ``(count, mean, M2)``
  of the raw regression targets, merged with Chan's parallel update so
  two shards' target statistics combine to the *exact* pooled moments
  (including the degenerate zero-count shard);
* :class:`ModelDelta` — the value object: summed update arrays keyed
  like the model's learned-state arrays, per-row sample counts for
  arrays that merge count-weighted per row (cluster centres, class
  bins), total sample count, target moments, and a structural
  fingerprint that refuses merges/applies across incompatible models;
* :class:`DeltaRecorder` — the live accumulator a model installs with
  :meth:`~repro.core.estimator.BaseRegHDEstimator.begin_delta`; every
  hot-loop update flows through it (the estimator's ``_push_update`` /
  ``_push_replace`` / ``_push_scatter`` sinks apply the update to the
  live arrays *and* accumulate it here);
* :func:`merge_deltas` — the ordered counts-weighted reduction.

Merge semantics.  A delta's arrays hold the *sum* of updates over its
span.  Merging weights each shard's sum by its sample share —
``merged = Σ (n_i / n) Δ_i`` — i.e. the merged model is the per-shard
parameter average, which keeps the update magnitude independent of the
shard count.  Arrays with per-row counts (cluster centres: one count per
cluster, from the Eq.-8 argmax assignment) weight each row by that row's
count share instead, so a shard that saw most of cluster c's traffic
dominates cluster c's centre regardless of its total share.  The
reduction is a single ordered pass accumulating ``Σ w_i Δ_i`` with one
final division — deterministic for a fixed input order (merge order
cannot change bits), and associative/commutative in counts-weighted
expectation (verified by the property suite).  The single-delta merge is
an exact copy: no weighting arithmetic is applied, so a one-shard
map-reduce replays sequential training bit-for-bit on zero-initialised
state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.types import FloatArray


@dataclass(frozen=True)
class TargetMoments:
    """Exact streaming moments of raw regression targets.

    ``m2`` is the sum of squared deviations from the mean (``count *
    population variance``), the quantity Chan's parallel algorithm
    merges exactly; :attr:`variance`/:attr:`std` derive from it.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def from_values(cls, y: FloatArray) -> "TargetMoments":
        """Moments of one observed batch."""
        arr = np.asarray(y, dtype=np.float64).ravel()
        if arr.size == 0:
            return cls()
        mean = float(np.mean(arr))
        return cls(
            count=int(arr.size),
            mean=mean,
            m2=float(np.sum((arr - mean) ** 2)),
        )

    def merge(self, other: "TargetMoments") -> "TargetMoments":
        """Chan's parallel moment merge — exact for any count split.

        A zero-count operand is the identity: merging an empty shard
        returns the other operand's moments unchanged (bit-exactly), so
        degenerate shards never perturb the pooled statistics.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / n)
        m2 = self.m2 + other.m2 + delta * delta * (
            self.count * other.count / n
        )
        return TargetMoments(count=n, mean=mean, m2=m2)

    @property
    def variance(self) -> float:
        """Population variance (``m2 / count``; 0 for empty moments)."""
        if self.count == 0:
            return 0.0
        return self.m2 / self.count

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return float(np.sqrt(self.variance))

    def to_meta(self) -> dict:
        """JSON-serialisable form."""
        return {"count": self.count, "mean": self.mean, "m2": self.m2}

    @classmethod
    def from_meta(cls, meta: dict) -> "TargetMoments":
        """Rebuild from :meth:`to_meta` output."""
        return cls(
            count=int(meta["count"]),
            mean=float(meta["mean"]),
            m2=float(meta["m2"]),
        )


def merge_moments(moments: Iterable[TargetMoments]) -> TargetMoments:
    """Ordered Chan fold over a sequence of moments."""
    merged = TargetMoments()
    for m in moments:
        merged = merged.merge(m)
    return merged


@dataclass
class ModelDelta:
    """A mergeable span of training, captured as summed updates.

    Produced by :meth:`~repro.core.estimator.BaseRegHDEstimator.capture_delta`
    after a :meth:`~repro.core.estimator.BaseRegHDEstimator.begin_delta`
    recording span, or by :func:`merge_deltas`.  Applied with
    :meth:`~repro.core.estimator.BaseRegHDEstimator.apply_delta`.

    Attributes
    ----------
    model_type:
        Registry name of the producing model class (merge/apply refuse
        cross-type deltas).
    fingerprint:
        Structural identity — shapes and quantisation of the learned
        state — validated on merge and apply.
    n_samples:
        Training rows absorbed during the recorded span.
    arrays:
        Summed update arrays, keyed like the model's learned-state
        arrays (``model_vector``, ``clusters_integer`` …).
    row_counts:
        Per-row sample counts for arrays that merge count-weighted per
        row (absent keys merge weighted by :attr:`n_samples`).
    moments:
        Exact raw-target moments of the span (drives
        :class:`~repro.core.estimator.TargetScaler` merges).
    """

    model_type: str
    fingerprint: dict
    n_samples: int = 0
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    row_counts: dict[str, np.ndarray] = field(default_factory=dict)
    moments: TargetMoments = field(default_factory=TargetMoments)

    @property
    def nbytes(self) -> int:
        """Payload size of the delta arrays (wire-cost accounting)."""
        total = 0
        for arr in self.arrays.values():
            total += arr.nbytes
        for arr in self.row_counts.values():
            total += arr.nbytes
        return total

    def scaled(self, factor: float) -> "ModelDelta":
        """A copy with every update array scaled by ``factor``.

        Counts and moments are untouched — scaling reweights the
        *update*, not the evidence (used for damped federated folds).
        """
        return ModelDelta(
            model_type=self.model_type,
            fingerprint=dict(self.fingerprint),
            n_samples=self.n_samples,
            arrays={k: v * float(factor) for k, v in self.arrays.items()},
            row_counts={k: v.copy() for k, v in self.row_counts.items()},
            moments=self.moments,
        )

    def copy(self) -> "ModelDelta":
        """Deep value copy (merge never aliases its inputs)."""
        return ModelDelta(
            model_type=self.model_type,
            fingerprint=dict(self.fingerprint),
            n_samples=self.n_samples,
            arrays={k: v.copy() for k, v in self.arrays.items()},
            row_counts={k: v.copy() for k, v in self.row_counts.items()},
            moments=self.moments,
        )


def _check_compatible(a: ModelDelta, b: ModelDelta, operation: str) -> None:
    if a.model_type != b.model_type:
        raise ConfigurationError(
            f"{operation}: model types differ "
            f"({a.model_type!r} vs {b.model_type!r})"
        )
    if a.fingerprint != b.fingerprint:
        raise ConfigurationError(
            f"{operation}: structural fingerprints differ "
            f"({a.fingerprint} vs {b.fingerprint})"
        )
    if set(a.arrays) != set(b.arrays):
        raise ConfigurationError(
            f"{operation}: delta arrays differ "
            f"({sorted(a.arrays)} vs {sorted(b.arrays)})"
        )


def merge_deltas(
    deltas: Sequence[ModelDelta], *, reduction: str = "mean"
) -> ModelDelta:
    """Ordered reduction of shard deltas.

    ``reduction="mean"`` (the default) is the counts-weighted average:
    ``merged.arrays[k] = Σ_i w_i · deltas[i].arrays[k]`` where ``w_i``
    is the shard's sample share ``n_i / Σn`` — or, for arrays carrying
    per-row counts, the per-row count share.  Zero-sample shards
    contribute nothing; rows no shard touched stay zero.  This is the
    conservative mode for overlapping or repeated coverage: applying
    the merge moves the model by one average shard's worth of training.

    ``reduction="sum"`` is the bundling mode: plain ``Σ_i Δ_i`` for
    every array.  For *disjoint* shards of one stream this reproduces
    what a sequential pass over the concatenated stream accumulates (a
    RegHD model is a bundle — updates add), so sum is the
    quality-parity mode for shard-parallel training; the mean mode
    shrinks the effective per-sample step by the shard count.  The
    caveat: every shard's LMS corrections were computed from the same
    stale base, so summing many large shards at once can overshoot —
    sum is for small shard counts and fine merge cadence, mean for
    everything else.

    Either way the fold is a single ordered pass (accumulated left to
    right), so a fixed shard order always produces the same bits, and
    the implied weighting is permutation-invariant in exact arithmetic
    — merge order cannot change results beyond float rounding.  A
    single-element merge returns an exact copy with no arithmetic
    (both reductions coincide on one operand).
    """
    if reduction not in ("mean", "sum"):
        raise ConfigurationError(
            f"reduction must be 'mean' or 'sum', got {reduction!r}"
        )
    deltas = list(deltas)
    if not deltas:
        raise ConfigurationError("merge_deltas requires at least one delta")
    first = deltas[0]
    for other in deltas[1:]:
        _check_compatible(first, other, "merge_deltas")
    if len(deltas) == 1:
        return first.copy()

    total = sum(d.n_samples for d in deltas)
    moments = merge_moments(d.moments for d in deltas)
    counted = {
        name
        for d in deltas
        for name in d.row_counts
    }
    merged_counts: dict[str, np.ndarray] = {}
    for name in sorted(counted):
        acc = None
        for d in deltas:
            counts = d.row_counts.get(name)
            if counts is None:
                continue
            acc = counts.astype(np.int64) if acc is None else acc + counts
        merged_counts[name] = acc

    merged_arrays: dict[str, np.ndarray] = {}
    for name in first.arrays:
        if reduction == "sum":
            acc = np.zeros_like(first.arrays[name])
            for d in deltas:
                acc += d.arrays[name]
            merged_arrays[name] = acc
        elif name in merged_counts:
            # Per-row count weighting: Σ n_{i,r} Δ_{i,r} / Σ n_{i,r}.
            num = np.zeros_like(first.arrays[name])
            for d in deltas:
                counts = d.row_counts[name].astype(np.float64)
                num += counts[:, np.newaxis] * d.arrays[name]
            denom = merged_counts[name].astype(np.float64)
            safe = np.where(denom > 0, denom, 1.0)
            merged_arrays[name] = num / safe[:, np.newaxis]
        else:
            # Sample-share weighting: Σ n_i Δ_i / Σ n_i.
            num = np.zeros_like(first.arrays[name])
            for d in deltas:
                if d.n_samples:
                    num += float(d.n_samples) * d.arrays[name]
            merged_arrays[name] = (
                num / float(total) if total else num
            )

    return ModelDelta(
        model_type=first.model_type,
        fingerprint=dict(first.fingerprint),
        n_samples=total,
        arrays=merged_arrays,
        row_counts=merged_counts,
        moments=moments,
    )


class DeltaRecorder:
    """Live accumulator for one recording span of a model's hot loop.

    Created by :meth:`~repro.core.estimator.BaseRegHDEstimator.begin_delta`
    from the model's delta spec (array names, shapes, and which arrays
    carry per-row counts); the estimator's update sinks call
    :meth:`accumulate` alongside every live update (scattered updates
    run the backend scatter kernel into :attr:`arrays` and report their
    landing rows via :meth:`count_rows`), and :meth:`finish` snapshots
    the result as a :class:`ModelDelta`.
    """

    def __init__(
        self,
        model_type: str,
        fingerprint: dict,
        array_shapes: dict[str, tuple[int, ...]],
        counted: Sequence[str] = (),
    ):
        self.model_type = model_type
        self.fingerprint = dict(fingerprint)
        self.arrays = {
            name: np.zeros(shape, dtype=np.float64)
            for name, shape in array_shapes.items()
        }
        self.row_counts = {
            name: np.zeros(self.arrays[name].shape[0], dtype=np.int64)
            for name in counted
        }
        self.n_samples = 0
        self.moments = TargetMoments()

    def observe_targets(self, y: FloatArray) -> None:
        """Record the raw targets of one absorbed batch."""
        batch = TargetMoments.from_values(y)
        self.n_samples += batch.count
        self.moments = self.moments.merge(batch)

    def accumulate(
        self,
        name: str,
        delta: FloatArray,
        row_counts: np.ndarray | None = None,
    ) -> None:
        """Fold one dense update into the running sums."""
        self.arrays[name] += delta
        if row_counts is not None:
            self.row_counts[name] += row_counts

    def count_rows(self, name: str, indices: np.ndarray) -> None:
        """Record which rows a scattered update landed in.

        The scatter itself runs through the estimator's kernel backend
        (the accumulator array is handed to the same ``scatter_add``
        kernel as the live target); this bookkeeping only tracks the
        per-row sample counts.
        """
        counts = self.row_counts.get(name)
        if counts is not None:
            counts += np.bincount(indices, minlength=counts.shape[0])

    def finish(self) -> ModelDelta:
        """Snapshot the accumulated span as an immutable-by-convention value."""
        return ModelDelta(
            model_type=self.model_type,
            fingerprint=self.fingerprint,
            n_samples=self.n_samples,
            arrays=self.arrays,
            row_counts=self.row_counts,
            moments=self.moments,
        )
