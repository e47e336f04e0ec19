"""Parallel batch verification with a content-addressed inference cache.

The scaling substrate on top of :mod:`repro.core` (see docs/engine.md):

* :mod:`repro.engine.scheduler` — topological waves over the ``@sys``
  subsystem dependency DAG,
* :mod:`repro.engine.engine` — the worker-pool :class:`BatchVerifier`,
* :mod:`repro.engine.cache` — the persistent ``.repro-cache/`` store,
* :mod:`repro.engine.fingerprint` — SHA-256 content keys,
* :mod:`repro.engine.metrics` — cache counters and per-class wall time,
* :mod:`repro.engine.serialize` — exact diagnostic round trips,
* :mod:`repro.engine.faults` — deterministic fault injection for
  exercising the supervisor's recovery paths (docs/robustness.md),
* :mod:`repro.engine.store` — crash-safe storage primitives: sealed
  (checksummed) envelopes, atomic writes with fault-injection sync
  points, orphaned-temp-file GC (docs/robustness.md),
* :mod:`repro.engine.locking` — portable advisory file locks that keep
  the project state single-writer across processes,
* :mod:`repro.engine.state` — the persistent per-project snapshot
  (``.repro-cache/state.json``), single-writer across processes with
  generation counting and read-modify-merge,
* :mod:`repro.engine.incremental` — incremental re-verification: diff
  against the state, re-check only the dirty classes, splice the rest
  (docs/incremental.md),
* :mod:`repro.engine.backends` — pluggable cache transports: the local
  sealed-store directory, a remote HTTP tier, and a tiered
  read-through/write-behind composition (docs/distributed.md),
* :mod:`repro.engine.shard` — deterministic shard plans and the
  coordinator that fans a check out to worker processes and merges the
  per-shard results byte-identically (docs/distributed.md).

Quickstart::

    from repro.engine import BatchVerifier, InferenceCache
    result = BatchVerifier(module, violations, jobs=4,
                           cache=InferenceCache(".repro-cache")).run()
    print(result.merged().format())
    print(result.metrics.format())
"""

from repro.engine.cache import CacheStats, InferenceCache
from repro.engine.backends import (
    CacheBackend,
    LocalDirBackend,
    RemoteHTTPBackend,
    RemoteUnavailable,
    TieredBackend,
)
from repro.engine.engine import (
    BatchResult,
    BatchVerifier,
    EngineAborted,
    EngineError,
    VerificationPlan,
    open_cache,
    verify_path,
)
from repro.engine.faults import (
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedFault,
    InjectedLockTimeout,
    WorkerKilled,
    parse_faults,
)
from repro.engine.locking import FileLock, LockTimeout, lock_for
from repro.engine.fingerprint import (
    class_fingerprint,
    class_key,
    method_key,
    spec_fingerprint,
)
from repro.engine.incremental import (
    IncrementalPlan,
    IncrementalResult,
    plan_incremental,
    snapshot_state,
    verify_incremental,
)
from repro.engine.metrics import ClassTiming, EngineMetrics
from repro.engine.scheduler import (
    prune_waves,
    schedule,
    subsystem_dependencies,
    topological_waves,
)
from repro.engine.serialize import diagnostic_from_dict, diagnostic_to_dict
from repro.engine.shard import (
    CoordinatedRun,
    ShardPlan,
    ShardResult,
    coordinate,
    merge_shard_results,
    plan_shards,
    run_shard,
    shard_result_from_dict,
    shard_result_to_dict,
)
from repro.engine.state import (
    STATE_VERSION,
    ClassState,
    ProjectState,
    SaveReport,
    load_state,
    merge_states,
    remove_state,
    save_state,
    state_path,
)

__all__ = [
    "BatchResult",
    "BatchVerifier",
    "CacheBackend",
    "CacheStats",
    "ClassState",
    "CoordinatedRun",
    "ClassTiming",
    "EngineAborted",
    "EngineError",
    "EngineMetrics",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "FileLock",
    "IncrementalPlan",
    "IncrementalResult",
    "InferenceCache",
    "InjectedFault",
    "InjectedLockTimeout",
    "LocalDirBackend",
    "LockTimeout",
    "ProjectState",
    "RemoteHTTPBackend",
    "RemoteUnavailable",
    "STATE_VERSION",
    "SaveReport",
    "ShardPlan",
    "ShardResult",
    "TieredBackend",
    "VerificationPlan",
    "WorkerKilled",
    "coordinate",
    "merge_shard_results",
    "parse_faults",
    "plan_shards",
    "run_shard",
    "shard_result_from_dict",
    "shard_result_to_dict",
    "lock_for",
    "merge_states",
    "class_fingerprint",
    "class_key",
    "diagnostic_from_dict",
    "diagnostic_to_dict",
    "load_state",
    "method_key",
    "open_cache",
    "plan_incremental",
    "prune_waves",
    "remove_state",
    "save_state",
    "schedule",
    "snapshot_state",
    "spec_fingerprint",
    "state_path",
    "subsystem_dependencies",
    "topological_waves",
    "verify_incremental",
    "verify_path",
]
