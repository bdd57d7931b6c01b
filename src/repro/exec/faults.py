"""Deterministic fault injection for the execution supervisor.

A :class:`FaultSchedule` is a declarative list of :class:`Fault` points —
*this* kind of failure, at *this* site, on *this* attempt — that the
checkpointed shot-block executor (:mod:`repro.exec.checkpoint`) and the
shard supervisor (:mod:`repro.exec.supervisor`) consult at every
supervised step.  Because the schedule is data (no clocks, no entropy of
its own), a faulted run is exactly reproducible: the certification suite
(``tests/test_exec_faults.py``) replays the same schedule against the
same seed and asserts the recovered records are bit-identical to the
fault-free run.

Supported fault kinds:

``crash``
    In-process stand-in for sudden process death: raises
    :class:`InjectedCrash` at a block boundary (the checkpoint runner
    never catches it — resume happens in the *next* invocation), or
    ``os._exit`` inside a shard worker (surfacing to the parent as
    ``BrokenProcessPool``).
``sigkill``
    Real process death: ``SIGKILL`` to the current process at a block
    boundary.  Used by the resume-after-kill subprocess smoke test.
``memory``
    Raises :class:`MemoryError` (the OOM-path stand-in) at the injection
    point — retryable by supervision.
``timeout``
    Sleeps ``seconds`` inside a shard worker so the parent's
    ``shard_timeout`` fires (diagnostic R103).
``truncate`` / ``bitflip`` / ``version``
    Corrupts the checkpoint block file that was just persisted (torn
    write, flipped payload bit, format-version skew) — exercising the
    integrity checks that make a resumed job re-run the block instead of
    silently merging garbage.

Each fault fires **once** (its natural semantics — a crashed attempt is
gone); schedules listing several faults at the same site model repeated
failures across retries.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.utils.rng import SeedLike, ensure_rng

#: Fault kinds that corrupt an on-disk checkpoint block file.
FILE_FAULT_KINDS = ("truncate", "bitflip", "version")

#: Every kind a schedule may carry.
FAULT_KINDS = ("crash", "sigkill", "memory", "timeout") + FILE_FAULT_KINDS


class InjectedCrash(RuntimeError):
    """In-process stand-in for sudden process death.

    Deliberately *not* caught by the checkpoint runner's block retry: a
    real crash takes the process with it, so recovery must happen in a
    fresh invocation (which is exactly what the resume path certifies)."""


@dataclass(frozen=True)
class Fault:
    """One injection point: ``kind`` at ``(site, index)`` on ``attempt``.

    ``site`` names the supervised step ("block" — before a checkpoint
    block executes; "block-file" — after its file is persisted; "shard" —
    inside a shard worker).  ``index`` is the block/shard index,
    ``attempt`` the retry ordinal the fault targets (0 = first try).
    ``seconds`` parameterizes ``timeout`` faults."""

    kind: str
    site: str
    index: int
    attempt: int = 0
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )


class FaultSchedule:
    """A deterministic, replayable set of :class:`Fault` points.

    ``take(site, index, attempt)`` returns the first not-yet-fired fault
    matching the step, marking it fired; ``fired`` records the order of
    delivery so tests can assert the schedule was fully consumed."""

    def __init__(self, faults: Sequence[Fault] = ()):
        self._faults: List[Fault] = list(faults)
        self._spent: List[bool] = [False] * len(self._faults)
        self.fired: List[Fault] = []

    def __len__(self) -> int:
        return len(self._faults)

    @property
    def pending(self) -> Tuple[Fault, ...]:
        """Faults not yet delivered."""
        return tuple(
            f for f, spent in zip(self._faults, self._spent) if not spent
        )

    def take(self, site: str, index: int, attempt: int) -> Optional[Fault]:
        """The fault scheduled for this step, consumed — or ``None``."""
        for k, fault in enumerate(self._faults):
            if self._spent[k]:
                continue
            if (
                fault.site == site
                and fault.index == index
                and fault.attempt == attempt
            ):
                self._spent[k] = True
                self.fired.append(fault)
                return fault
        return None

    @classmethod
    def seeded(
        cls,
        seed: SeedLike,
        n_faults: int,
        *,
        site: str = "block",
        max_index: int = 8,
        kinds: Sequence[str] = ("crash", "memory"),
        max_attempt: int = 1,
    ) -> "FaultSchedule":
        """A reproducible random schedule: ``n_faults`` points drawn from
        a seeded stream over ``kinds`` × ``[0, max_index)`` ×
        ``[0, max_attempt]`` — the stress-job constructor (same seed, same
        schedule, on every machine)."""
        rng = ensure_rng(seed)
        n = int(n_faults)
        kind_idx = rng.integers(len(kinds), size=n)
        indices = rng.integers(max_index, size=n)
        attempts = rng.integers(max_attempt + 1, size=n)
        return cls(
            [
                Fault(
                    kind=kinds[int(kind_idx[j])],
                    site=site,
                    index=int(indices[j]),
                    attempt=int(attempts[j]),
                )
                for j in range(n)
            ]
        )


@dataclass
class FaultEvent:
    """One delivered or observed fault, as recorded by a supervisor
    (``fault`` is ``None`` for organically observed failures — e.g. a
    real ``MemoryError`` rather than an injected one)."""

    fault: Optional[Fault]
    message: str = ""
    recovered: bool = True
    extra: dict = field(default_factory=dict)


def raise_in_process(fault: Fault) -> None:
    """Deliver an in-process fault kind at a block boundary."""
    if fault.kind == "crash":
        raise InjectedCrash(
            f"injected crash at {fault.site} {fault.index} "
            f"(attempt {fault.attempt})"
        )
    if fault.kind == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)  # never returns
    if fault.kind == "memory":
        raise MemoryError(
            f"injected MemoryError at {fault.site} {fault.index} "
            f"(attempt {fault.attempt})"
        )
    if fault.kind == "timeout":
        time.sleep(fault.seconds)
        return
    raise ValueError(
        f"fault kind {fault.kind!r} cannot be delivered in-process at "
        f"site {fault.site!r}"
    )


def apply_worker_fault(descriptor: Optional[Tuple[str, float]]) -> None:
    """Deliver a fault inside a shard worker process.

    ``descriptor`` is plain picklable data ``(kind, seconds)`` computed by
    the parent's schedule (the schedule object itself never crosses the
    process boundary): ``crash`` hard-exits the worker (the parent sees
    ``BrokenProcessPool``), ``memory`` raises (the parent sees the
    exception on the future), ``timeout`` sleeps past the parent's shard
    deadline."""
    if descriptor is None:
        return
    kind, seconds = descriptor
    if kind == "crash":
        os._exit(13)
    if kind == "memory":
        raise MemoryError("injected MemoryError in shard worker")
    if kind == "timeout":
        time.sleep(seconds)
        return
    raise ValueError(f"fault kind {kind!r} cannot run in a shard worker")


def corrupt_block_file(path: str, mode: str) -> None:
    """Corrupt a persisted checkpoint block file in place.

    ``truncate`` drops the tail half of the file (torn write),
    ``bitflip`` XORs one bit of the last payload byte, ``version``
    rewrites the header's format-version field.  Used both by the
    ``block-file`` fault site and directly by integrity tests."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if mode == "truncate":
        blob = blob[: max(1, len(blob) // 2)]
    elif mode == "bitflip":
        if not blob:
            raise ValueError(f"cannot bitflip empty file {path}")
        blob = blob[:-1] + bytes([blob[-1] ^ 0x01])
    elif mode == "version":
        marker = b'"version": '
        at = blob.find(marker)
        if at < 0:
            raise ValueError(f"no version field to corrupt in {path}")
        at += len(marker)
        blob = blob[:at] + b"0" + blob[at + 1:]
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    with open(path, "wb") as fh:
        fh.write(blob)
