"""Checkpointed shot-block execution with crash-exact resume.

A *job* splits one ``sample_batch`` request into fixed-size shot blocks,
gives block ``i`` the ``i``-th child stream of the job seed
(:func:`repro.utils.rng.spawn_seeds` — a pure function of ``(seed, i)``,
independent of process and completion order), runs the blocks in order,
and persists each completed block's outcome records to the job
directory.  After a crash, :func:`run_checkpointed` on the same
directory re-runs only the blocks whose files are missing or fail
integrity checks — and because every block's records are a function of
the job seed alone, the resumed record stream is **bit-identical** to
the uninterrupted run.

The determinism contract, precisely:

* ``(compiled, n_shots, block_shots, seed, backend)`` fixes the record
  stream.  Per block, the records equal a direct
  ``engine.sample_batch(compiled, hi - lo, child_seed_i)`` call — the
  supervisor adds no randomness of its own — and the engines' own
  chunk-invariance contract makes each block invariant to internal chunk
  sizes (``max_block_bytes`` etc.).
* ``block_shots`` is part of the stream identity, like the seed:
  re-blocking a job draws different (equally valid) records.  A job
  directory therefore refuses to resume under changed parameters.

On disk, a job directory holds ``job.json`` (the manifest: format
version, job fingerprint, parameters, the *concrete* seed entropy — so a
job started with ``seed=None`` still resumes exactly) and
``blocks/block_00000.bin`` files, each a one-line JSON header (format
version, job fingerprint, block index and shot range, record shape and
dtype, SHA-256 of the payload) followed by the raw outcome bytes.
Files are written atomically (temp + ``os.replace``); a torn, corrupted,
or version-skewed block file fails validation and is re-run, never
silently merged — see ``tests/test_exec_checkpoint.py``.

Jobs are records-only (``keep_raw`` is rejected): persisting per-shot
states would tie the format to backend internals, and every downstream
consumer of a long job reads outcome records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.exec.faults import (
    FILE_FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    corrupt_block_file,
    raise_in_process,
)
from repro.mbqc.backend import SampleRun, get_backend, select_backend
from repro.mbqc.channels import as_channel_model
from repro.mbqc.compile import CompiledPattern
from repro.mbqc.pattern import PatternError
from repro.mbqc.serialize import noise_model_to_dict
from repro.utils.rng import SeedLike, ensure_rng, spawn_seeds

#: On-disk format version shared by the manifest and block headers.
#: Version 2: the job fingerprint covers every op field and the noise model.
CHECKPOINT_FORMAT_VERSION = 2

#: Default shots per block — small enough that a crash loses little work,
#: large enough that per-block engine dispatch overhead stays negligible.
DEFAULT_BLOCK_SHOTS = 1024

_MANIFEST_NAME = "job.json"
_BLOCKS_DIR = "blocks"


@dataclass(frozen=True)
class BlockPlan:
    """One shot block: records ``[lo, hi)`` of the job's record stream."""

    index: int
    lo: int
    hi: int

    @property
    def shots(self) -> int:
        return self.hi - self.lo


def plan_blocks(n_shots: int, block_shots: int) -> Tuple[BlockPlan, ...]:
    """Split ``n_shots`` into contiguous blocks of ``block_shots`` (the
    last block may be short).  ``n_shots=0`` is a valid empty job."""
    if n_shots < 0:
        raise ValueError(f"n_shots must be non-negative, got {n_shots}")
    if block_shots < 1:
        raise ValueError(f"block_shots must be positive, got {block_shots}")
    bounds = list(range(0, n_shots, block_shots)) + [n_shots]
    if n_shots == 0:
        return ()
    return tuple(
        BlockPlan(index=i, lo=bounds[i], hi=bounds[i + 1])
        for i in range(len(bounds) - 1)
    )


def _seed_entropy(seed: SeedLike) -> int:
    """The concrete root entropy of ``seed`` (fresh entropy for ``None``),
    persisted in the manifest so any resume rebuilds the same streams."""
    if isinstance(seed, np.random.Generator):
        raise ValueError(
            "checkpointed jobs need a reproducible seed (int, SeedSequence, "
            "or None for fresh-but-persisted entropy), not a live Generator"
        )
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    entropy = ss.entropy
    if isinstance(entropy, (list, tuple)):
        raise ValueError("seed sequences with composite entropy are not supported")
    return int(entropy)


def _feed(h, value) -> None:
    """Hash ``value`` unambiguously: arrays by dtype, shape and bytes,
    dataclasses (ops, measurement bases) field by field, floats exactly."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(f"a{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(f"d{type(value).__name__}(".encode())
        for f in dataclasses.fields(value):
            h.update(f"{f.name}=".encode())
            _feed(h, getattr(value, f.name))
        h.update(b")")
    elif isinstance(value, (tuple, list)):
        h.update(f"t{len(value)}(".encode())
        for item in value:
            _feed(h, item)
        h.update(b")")
    elif isinstance(value, float):
        h.update(f"f{value.hex()};".encode())
    elif isinstance(value, complex):
        h.update(f"c{value.real.hex()},{value.imag.hex()};".encode())
    else:
        h.update(f"{type(value).__name__}:{value!r};".encode())


def job_fingerprint(
    compiled: CompiledPattern,
    *,
    n_shots: int,
    block_shots: int,
    seed_entropy: int,
    backend: str,
    noise: Optional[object] = None,
) -> str:
    """SHA-256 identity of a job: every field of every compiled op (angles,
    bases, Kraus operators, flip probabilities — arrays by dtype, shape and
    bytes), the canonical JSON of the noise model
    (:func:`~repro.mbqc.serialize.noise_model_to_dict`), the sampling
    parameters, and the concrete seed.  Two calls agree on the fingerprint
    iff their record streams are interchangeable, so a resume under
    changed parameters is refused instead of merging foreign blocks."""
    model = as_channel_model(noise)
    noise_json = json.dumps(
        noise_model_to_dict(model) if model is not None else None,
        sort_keys=True,
        separators=(",", ":"),
    )
    h = hashlib.sha256()
    parts = [
        f"v{CHECKPOINT_FORMAT_VERSION}",
        f"n_shots={n_shots}",
        f"block_shots={block_shots}",
        f"seed={seed_entropy}",
        f"backend={backend}",
        f"noise={noise_json}",
        f"inputs={compiled.input_nodes}",
        f"outputs={compiled.output_nodes}",
        f"measured={compiled.measured_nodes}",
        f"out_perm={compiled.out_perm}",
    ]
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    _feed(h, compiled.ops)
    return h.hexdigest()


def block_path(job_dir: str, index: int) -> str:
    """Path of block ``index``'s record file inside ``job_dir``."""
    return os.path.join(job_dir, _BLOCKS_DIR, f"block_{index:05d}.bin")


def atomic_write_bytes(path: str, blob: bytes) -> None:
    """Publish ``blob`` at ``path`` so readers see either the old file or
    the complete new one, even with concurrent writers.

    Each writer stages into its own ``mkstemp`` file (a shared
    ``path + ".tmp"`` name would let two workers interleave writes and
    ``os.replace`` each other's torn output) and fsyncs before the atomic
    rename, so a crash cannot publish a partially flushed file.  Also
    used by the ``repro.serve`` compiled-pattern cache.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# Backwards-compatible internal alias (pre-serve callers).
_atomic_write = atomic_write_bytes


def write_block(
    job_dir: str, fingerprint: str, plan: BlockPlan, outcomes: np.ndarray
) -> str:
    """Persist one completed block atomically; returns the file path."""
    payload = np.ascontiguousarray(outcomes, dtype=np.int8).tobytes()
    header = {
        "version": CHECKPOINT_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "index": plan.index,
        "lo": plan.lo,
        "hi": plan.hi,
        "shape": list(outcomes.shape),
        "dtype": "int8",
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    path = block_path(job_dir, plan.index)
    _atomic_write(path, json.dumps(header).encode() + b"\n" + payload)
    return path


def load_block(
    job_dir: str, fingerprint: str, plan: BlockPlan, n_measured: int
) -> Optional[np.ndarray]:
    """The persisted records of ``plan``, or ``None`` if the file is
    missing or fails *any* integrity check (torn header, version or
    fingerprint skew, wrong range/shape/dtype, payload checksum mismatch).
    ``None`` always means "re-run the block" — corruption is recoverable
    by construction, so no distinction is surfaced to the caller."""
    path = block_path(job_dir, plan.index)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    sep = blob.find(b"\n")
    if sep < 0:
        return None
    try:
        header = json.loads(blob[:sep].decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    payload = blob[sep + 1:]
    expected_shape = [plan.shots, n_measured]
    if not (
        isinstance(header, dict)
        and header.get("version") == CHECKPOINT_FORMAT_VERSION
        and header.get("fingerprint") == fingerprint
        and header.get("index") == plan.index
        and header.get("lo") == plan.lo
        and header.get("hi") == plan.hi
        and header.get("shape") == expected_shape
        and header.get("dtype") == "int8"
    ):
        return None
    if len(payload) != plan.shots * n_measured:
        return None
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        return None
    return np.frombuffer(payload, dtype=np.int8).reshape(plan.shots, n_measured)


def _manifest_path(job_dir: str) -> str:
    return os.path.join(job_dir, _MANIFEST_NAME)


def load_manifest(job_dir: str) -> Optional[dict]:
    """The job manifest, or ``None`` for a fresh/empty directory.  A
    directory that *has* a manifest but an unreadable one is an error —
    unlike a block file, the manifest is irreplaceable (it holds the
    persisted seed), so silent re-creation would corrupt the job."""
    try:
        with open(_manifest_path(job_dir), "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    try:
        manifest = json.loads(blob.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PatternError(
            f"checkpoint manifest {_manifest_path(job_dir)} is unreadable "
            f"({exc}); the job directory cannot be resumed"
        ) from exc
    if manifest.get("version") != CHECKPOINT_FORMAT_VERSION:
        raise PatternError(
            f"checkpoint manifest {_manifest_path(job_dir)} has format "
            f"version {manifest.get('version')!r}, this build writes "
            f"{CHECKPOINT_FORMAT_VERSION}; the job cannot be resumed"
        )
    return manifest


@dataclass
class CheckpointResult:
    """Outcome of one :func:`run_checkpointed` invocation.

    ``run`` is the merged record stream; ``blocks_reused`` /
    ``blocks_run`` say how much persisted work the invocation found vs.
    redid, and ``events`` lists any injected faults it survived."""

    run: SampleRun
    job_dir: str
    fingerprint: str
    backend: str
    seed_entropy: int
    n_blocks: int
    blocks_reused: Tuple[int, ...]
    blocks_run: Tuple[int, ...]
    events: List[FaultEvent] = field(default_factory=list)

    @property
    def resumed(self) -> bool:
        return bool(self.blocks_reused)


def records_digest(run: SampleRun) -> str:
    """SHA-256 of the record stream — the determinism receipt the CLI
    prints so two runs can be compared without shipping the records."""
    payload = np.ascontiguousarray(run.outcomes, dtype=np.int8).tobytes()
    return hashlib.sha256(payload).hexdigest()


def run_checkpointed(
    compiled: CompiledPattern,
    n_shots: int,
    *,
    job_dir: str,
    seed: SeedLike = None,
    backend: str = "auto",
    block_shots: int = DEFAULT_BLOCK_SHOTS,
    noise: Optional[object] = None,
    input_state: Optional[np.ndarray] = None,
    retries: int = 2,
    faults: Optional[FaultSchedule] = None,
    sample_kwargs: Optional[dict] = None,
    cli_meta: Optional[dict] = None,
) -> CheckpointResult:
    """Run (or resume) a checkpointed sampling job in ``job_dir``.

    Idempotent: the first call creates the manifest and runs every block;
    a later call on the same directory validates the manifest against the
    arguments, reuses every block file that passes integrity checks, and
    re-runs only the rest.  Completing an untouched job is a pure read.

    ``retries`` bounds in-place re-runs of a block that raises
    :class:`MemoryError` (the retryable failure class at this site —
    anything else propagates; a *crash* by definition takes the process,
    and recovery happens on the next invocation).  ``faults`` is a
    :class:`~repro.exec.faults.FaultSchedule` consulted at block
    boundaries (site ``"block"``) and after each block file is persisted
    (site ``"block-file"``) — production callers leave it ``None``.

    ``sample_kwargs`` is forwarded to every per-block ``sample_batch``
    call (e.g. the density and MPS engines' ``max_block_bytes`` chunk
    budget); ``keep_raw`` is
    rejected because jobs persist outcome records only.  ``cli_meta`` is
    an opaque dict stored in the manifest (the CLI keeps its arguments
    there so ``repro run --resume JOBDIR`` can rebuild the program).
    """
    kwargs = dict(sample_kwargs or {})
    if kwargs.get("keep_raw"):
        raise ValueError(
            "checkpointed jobs are records-only; keep_raw is not supported"
        )
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    schedule = faults if faults is not None else FaultSchedule()

    if backend == "auto":
        engine = select_backend(compiled)
    else:
        engine = get_backend(backend)
    backend_name = engine.name

    os.makedirs(os.path.join(job_dir, _BLOCKS_DIR), exist_ok=True)
    manifest = load_manifest(job_dir)
    if manifest is None:
        entropy = _seed_entropy(seed)
        fingerprint = job_fingerprint(
            compiled,
            n_shots=n_shots,
            block_shots=block_shots,
            seed_entropy=entropy,
            backend=backend_name,
            noise=noise,
        )
        manifest = {
            "version": CHECKPOINT_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "n_shots": int(n_shots),
            "block_shots": int(block_shots),
            "seed_entropy": str(entropy),
            "backend": backend_name,
            "cli": cli_meta,
        }
        _atomic_write(
            _manifest_path(job_dir), json.dumps(manifest, indent=1).encode()
        )
    else:
        entropy = int(manifest["seed_entropy"])
        if seed is not None and not isinstance(seed, np.random.Generator):
            if _seed_entropy(seed) != entropy:
                raise PatternError(
                    f"job directory {job_dir} was started with a different "
                    f"seed; pass the original seed or omit it to resume"
                )
        fingerprint = job_fingerprint(
            compiled,
            n_shots=n_shots,
            block_shots=block_shots,
            seed_entropy=entropy,
            backend=backend_name,
            noise=noise,
        )
        if fingerprint != manifest.get("fingerprint"):
            raise PatternError(
                f"job directory {job_dir} holds a different job "
                f"(manifest n_shots={manifest.get('n_shots')}, "
                f"block_shots={manifest.get('block_shots')}, "
                f"backend={manifest.get('backend')!r}); resuming under "
                f"changed parameters would splice incompatible record "
                f"streams — use a fresh directory"
            )

    plans = plan_blocks(n_shots, block_shots)
    n_measured = len(compiled.measured_nodes)
    if not plans:
        empty = engine.sample_batch(
            compiled, 0, ensure_rng(0), input_state=input_state, noise=noise,
            **kwargs,
        )
        return CheckpointResult(
            run=empty,
            job_dir=job_dir,
            fingerprint=fingerprint,
            backend=backend_name,
            seed_entropy=entropy,
            n_blocks=0,
            blocks_reused=(),
            blocks_run=(),
        )

    child_seeds = spawn_seeds(np.random.SeedSequence(entropy), len(plans))
    events: List[FaultEvent] = []
    reused: List[int] = []
    ran: List[int] = []
    nodes: Optional[Tuple[int, ...]] = None
    pieces: List[np.ndarray] = []

    for plan in plans:
        existing = load_block(job_dir, fingerprint, plan, n_measured)
        if existing is not None:
            reused.append(plan.index)
            pieces.append(existing)
            continue

        attempt = 0
        while True:
            fault = schedule.take("block", plan.index, attempt)
            try:
                if fault is not None:
                    raise_in_process(fault)
                run = engine.sample_batch(
                    compiled,
                    plan.shots,
                    ensure_rng(child_seeds[plan.index]),
                    input_state=input_state,
                    noise=noise,
                    **kwargs,
                )
                break
            except MemoryError as exc:
                if attempt >= retries:
                    raise PatternError(
                        f"block {plan.index} of job {job_dir} failed "
                        f"{attempt + 1} times with MemoryError ({exc}); "
                        f"raise retries= or shrink block_shots="
                    ) from exc
                events.append(
                    FaultEvent(
                        fault=fault,
                        message=(
                            f"block {plan.index} attempt {attempt} raised "
                            f"MemoryError ({exc}); retrying"
                        ),
                    )
                )
                attempt += 1

        nodes = run.nodes
        path = write_block(job_dir, fingerprint, plan, run.outcomes)
        file_fault = schedule.take("block-file", plan.index, 0)
        if file_fault is not None:
            if file_fault.kind not in FILE_FAULT_KINDS:
                raise ValueError(
                    f"fault kind {file_fault.kind!r} is not a block-file "
                    f"corruption ({', '.join(FILE_FAULT_KINDS)})"
                )
            corrupt_block_file(path, file_fault.kind)
            events.append(
                FaultEvent(
                    fault=file_fault,
                    message=(
                        f"block file {path} corrupted ({file_fault.kind}); "
                        f"a resume will detect and re-run the block"
                    ),
                )
            )
        ran.append(plan.index)
        pieces.append(np.asarray(run.outcomes, dtype=np.int8))

    merged = np.concatenate(pieces, axis=0)
    if nodes is None:
        nodes = tuple(compiled.measured_nodes)
    return CheckpointResult(
        run=SampleRun(nodes=nodes, outcomes=merged),
        job_dir=job_dir,
        fingerprint=fingerprint,
        backend=backend_name,
        seed_entropy=entropy,
        n_blocks=len(plans),
        blocks_reused=tuple(reused),
        blocks_run=tuple(ran),
        events=events,
    )


def job_status(job_dir: str, compiled: CompiledPattern) -> dict:
    """A summary of a job directory: manifest parameters plus which
    blocks currently pass integrity checks (``repro run --resume`` prints
    this before finishing the job)."""
    manifest = load_manifest(job_dir)
    if manifest is None:
        raise PatternError(f"no checkpoint manifest in {job_dir}")
    plans = plan_blocks(int(manifest["n_shots"]), int(manifest["block_shots"]))
    n_measured = len(compiled.measured_nodes)
    fingerprint = manifest["fingerprint"]
    valid = [
        p.index
        for p in plans
        if load_block(job_dir, fingerprint, p, n_measured) is not None
    ]
    return {
        "manifest": manifest,
        "n_blocks": len(plans),
        "valid_blocks": valid,
        "missing_blocks": [p.index for p in plans if p.index not in set(valid)],
    }
