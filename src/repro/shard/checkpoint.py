"""Durable shard checkpoints: the boundary-message journal.

A sharded run's full dynamic state is enormous (event heaps holding
bound methods and closures, open telemetry sinks, RNG streams) and
could never round-trip a process boundary bit-exactly.  But it does
not need to: a shard's evolution is a *pure function* of the
deterministic replicated build (spec, seed — see DESIGN.md §14) and
of the boundary messages injected at each barrier.  So the checkpoint
is **logical state**: the parent journals, per completed barrier
round, the routed per-shard inboxes.  Restoring a shard — after a
worker death mid-run, or when resuming an interrupted run — means
rebuilding the network from the spec and *replaying* the logged
inboxes barrier by barrier (:meth:`repro.shard.boundary.ShardContext`
in replay mode: inject, never sync), which lands the shard on exactly
the event sequence the original incarnation executed.  Bit-identical
results follow from the same determinism argument sharding itself
rests on, with no pickled heap to trust.

Layout, under ``results/.checkpoints/shard/<token>/``:

* ``meta.json`` — the identity of the run (label, seed, shards,
  window) for human inspection; the directory name is the real key;
* ``rounds.jsonl`` — one line per completed barrier round:
  ``{"barrier": B, "inboxes": [[msg, ...] per shard]}``, append-only,
  flushed every ``every`` rounds (and always on interrupt).

The token hashes (scenario spec, seed, shards, window), so a resumed
run always finds its own journal and a different run never does.
Like the executor's sweep checkpoints the token deliberately excludes
the code fingerprint: ``--resume`` is an explicit "same code, keep
going" request.  A journal whose barrier sequence does not match the
schedule derived from the spec is truncated at the first mismatch —
a torn tail line (the interrupt) is skipped, never fatal.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.shard.boundary import BoundaryMessage

#: one journalled barrier round: (barrier_ns, per-shard inbox lists)
Round = Tuple[int, List[List[BoundaryMessage]]]

#: shard checkpointing on/off ("on"/"off"; empty inherits the
#: executor's REPRO_CHECKPOINT policy, default on)
SHARD_CHECKPOINT_ENV = "REPRO_SHARD_CHECKPOINT"


def shard_checkpoint_enabled() -> bool:
    """Whether sharded runs journal barrier rounds by default."""
    raw = os.environ.get(SHARD_CHECKPOINT_ENV, "").strip().lower()
    if raw in ("on", "off"):
        return raw == "on"
    if raw:
        raise ValueError(
            f"{SHARD_CHECKPOINT_ENV} must be 'on' or 'off', got {raw!r}"
        )
    from repro.runner.resilience import checkpoint_enabled

    return checkpoint_enabled()


def run_token(spec: Dict[str, Any], seed: int, shards: int, window_ns: int) -> str:
    """Checkpoint identity of one sharded run (no code fingerprint)."""
    payload = json.dumps(
        {"spec": spec, "seed": seed, "shards": shards, "window_ns": window_ns},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def shard_checkpoints_dir() -> Path:
    """Directory holding per-run shard journals."""
    from repro.runner.resilience import checkpoints_dir

    path = checkpoints_dir() / "shard"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _decode_message(raw) -> BoundaryMessage:
    """JSON list -> the exact tuple shape the sync protocol ships."""
    rx_shard, channel_id, seq, arrival_ns, fields = raw
    return (rx_shard, channel_id, seq, arrival_ns, tuple(fields))


class ShardCheckpoint:
    """The append-only barrier-round journal of one sharded run.

    ``every`` is the durability cadence in barrier rounds: buffered
    lines are written (and flushed to the OS) once the buffer holds
    that many rounds.  A parent interrupted by an exception flushes
    its buffer on the way out (:mod:`repro.shard.runner` wraps the
    loop); only a hard parent kill can lose the last ``< every``
    rounds.  ``checkpoint_s`` accumulates the wall-clock spent
    serializing and writing — the number the checkpoint-overhead gate
    (``benchmarks/check_shard_checkpoint_overhead.py``) bounds.
    """

    def __init__(
        self,
        spec: Dict[str, Any],
        seed: int,
        shards: int,
        window_ns: int,
        every: int = 1,
        root: Optional[Path] = None,
    ):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.shards = shards
        self.every = every
        self.token = run_token(spec, seed, shards, window_ns)
        self.dir = (root or shard_checkpoints_dir()) / self.token
        self.path = self.dir / "rounds.jsonl"
        self._meta = {
            "version": 1,
            "label": spec.get("label", ""),
            "seed": seed,
            "shards": shards,
            "window_ns": window_ns,
        }
        self._buffer: List[str] = []
        self.checkpoint_s = 0.0
        self.recorded = 0

    # --- writing ----------------------------------------------------------

    def _ensure_dir(self) -> None:
        if not self.dir.exists():
            self.dir.mkdir(parents=True, exist_ok=True)
            (self.dir / "meta.json").write_text(
                json.dumps(self._meta, indent=2, sort_keys=True) + "\n"
            )

    def record_round(self, barrier_ns: int, inboxes: List[List[BoundaryMessage]]) -> None:
        """Journal one completed barrier round (buffered)."""
        started = time.perf_counter()
        self._buffer.append(
            json.dumps({"barrier": barrier_ns, "inboxes": inboxes})
        )
        self.recorded += 1
        if len(self._buffer) >= self.every:
            self._write_buffer()
        self.checkpoint_s += time.perf_counter() - started

    def _write_buffer(self) -> None:
        if not self._buffer:
            return
        self._ensure_dir()
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(self._buffer) + "\n")
            handle.flush()
        self._buffer.clear()

    def flush(self) -> None:
        """Persist everything buffered (called on interrupt/teardown)."""
        started = time.perf_counter()
        self._write_buffer()
        self.checkpoint_s += time.perf_counter() - started

    def discard(self) -> None:
        """Delete the journal directory (the run completed fully)."""
        self._buffer.clear()
        shutil.rmtree(self.dir, ignore_errors=True)

    # --- reading ----------------------------------------------------------

    def load(self, schedule: List[int]) -> List[Round]:
        """Journalled rounds matching the expected barrier ``schedule``.

        Tolerant by construction: unreadable lines (the torn write of
        the interrupt) stop the scan, and a barrier that diverges from
        the schedule prefix truncates there — a stale or corrupt
        journal resumes less instead of poisoning the run.
        """
        rounds: List[Round] = []
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return rounds
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                barrier = entry["barrier"]
                inboxes = [
                    [_decode_message(m) for m in inbox]
                    for inbox in entry["inboxes"]
                ]
            except (ValueError, KeyError, TypeError, IndexError):
                break  # torn tail: everything before it is intact
            index = len(rounds)
            if (
                index >= len(schedule)
                or barrier != schedule[index]
                or len(inboxes) != self.shards
            ):
                break  # journal does not belong to this schedule prefix
            rounds.append((barrier, inboxes))
        return rounds


def replay_slice(log: List[Round], shard_id: int) -> List[Tuple[int, List[BoundaryMessage]]]:
    """One shard's view of the log: (barrier, its own inbox) pairs."""
    return [(barrier, inboxes[shard_id]) for barrier, inboxes in log]
