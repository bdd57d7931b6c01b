"""Resilient execution supervision (``repro.exec``).

The survival layer over the four pattern engines and the sharded exact
integrator: checkpointed shot-block jobs with crash-exact resume
(:mod:`~repro.exec.checkpoint`), supervised shard pools with timeout /
retry / re-split / in-process recovery (:mod:`~repro.exec.supervisor`),
declarative backend degradation chains (:mod:`~repro.exec.degrade`), and
the deterministic fault-injection harness that certifies every recovery
path bit-for-bit (:mod:`~repro.exec.faults`).  Recovery actions surface
as stable diagnostics R103 (shard timeout), R104 (worker death), and
R105 (backend fallback) — see :mod:`repro.analysis.diagnostics`.
"""

from repro.exec.checkpoint import (
    BlockPlan,
    CheckpointResult,
    CHECKPOINT_FORMAT_VERSION,
    DEFAULT_BLOCK_SHOTS,
    atomic_write_bytes,
    block_path,
    job_fingerprint,
    load_block,
    load_manifest,
    plan_blocks,
    records_digest,
    run_checkpointed,
    write_block,
)
from repro.exec.degrade import (
    ChainLinkCheck,
    ChainValidation,
    DegradationEvent,
    DegradationReport,
    FallbackPolicy,
    sample_with_fallback,
    select_backend_with_fallback,
    validate_fallback_chain,
)
from repro.exec.faults import (
    Fault,
    FaultEvent,
    FaultSchedule,
    InjectedCrash,
    corrupt_block_file,
)
from repro.exec.supervisor import (
    SupervisedDensityRun,
    SupervisionReport,
    supervised_integrate,
)

__all__ = [
    "BlockPlan",
    "CheckpointResult",
    "CHECKPOINT_FORMAT_VERSION",
    "DEFAULT_BLOCK_SHOTS",
    "atomic_write_bytes",
    "block_path",
    "job_fingerprint",
    "load_block",
    "load_manifest",
    "plan_blocks",
    "records_digest",
    "run_checkpointed",
    "write_block",
    "ChainLinkCheck",
    "ChainValidation",
    "DegradationEvent",
    "DegradationReport",
    "FallbackPolicy",
    "sample_with_fallback",
    "select_backend_with_fallback",
    "validate_fallback_chain",
    "Fault",
    "FaultEvent",
    "FaultSchedule",
    "InjectedCrash",
    "corrupt_block_file",
    "SupervisedDensityRun",
    "SupervisionReport",
    "supervised_integrate",
]
