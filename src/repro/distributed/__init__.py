"""Distributed training: shard-parallel map-reduce over ModelDelta.

RegHD models bundle additively, so training parallelises by *data
sharding*: workers train on disjoint shards from one broadcast base
state, return mergeable :class:`~repro.core.delta.ModelDelta` records,
and an ordered counts-weighted reduction folds them back into the base.
This package provides the harness around that algebra:

* :class:`ShardTrainer` — broadcast → map (inline or process pool) →
  ordered reduce → apply; :func:`train_sharded` for the one-call form;
* :class:`DeltaCoordinator` — folds shard rounds into a live streaming
  learner between checkpoints, preserving prequential honesty and the
  incremental serving-plan refresh.

Seeding: anything a worker randomises locally derives its seed with
:func:`repro.core.config.derive_shard_seed` so shards are independent
yet reproducible.
"""

from repro.distributed.coordinator import (
    CoordinatorRoundReport,
    DeltaCoordinator,
)
from repro.distributed.shard import (
    ShardRoundReport,
    ShardTrainer,
    shard_indices,
    train_sharded,
)

__all__ = [
    "CoordinatorRoundReport",
    "DeltaCoordinator",
    "ShardRoundReport",
    "ShardTrainer",
    "shard_indices",
    "train_sharded",
]
