"""Durable checkpoints: atomic chunk persistence, validation, quarantine.

Layout of a checkpoint directory (one directory per runner invocation,
i.e. per ``(task, n_total, seed)`` triple)::

    <dir>/
      manifest.json            run-level identity (schema, seed, chunking,
                               task fingerprint) -- written once, validated
                               on resume
      chunks/
        chunk_00003.npz        payload: the chunk's HittingTimeSample or
                               ForagingResult (atomic write)
        chunk_00003.json       per-chunk manifest: index, size, kind,
                               schema version, sha256 of the payload bytes
      quarantine/              damaged files are *moved* here on load, so a
                               resume never crashes on a half-written or
                               bit-rotted chunk and the evidence survives

Commit protocol: the payload ``.npz`` is written first, then the sidecar
manifest.  Both writes are atomic, and a chunk counts as completed only
when its manifest exists, parses, and its checksum matches the payload
bytes on disk -- so a crash at *any* instant leaves either a completed
chunk or a quarantinable partial, never a silently wrong sample.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.io_utils import (
    CorruptResultError,
    atomic_write_bytes,
    atomic_write_json,
    load_payload,
    payload_bytes,
    sha256_hex,
)

#: Version stamp of the checkpoint format; chunks written by a different
#: version are quarantined rather than trusted, and a run manifest of a
#: different version refuses the resume.  Version 2: the engines' staged
#: blocks changed which samples a seed yields, so chunks written before
#: cannot be merged with chunks written after.
SCHEMA_VERSION = 2

_MANIFEST_NAME = "manifest.json"
_CHUNKS_DIR = "chunks"
_QUARANTINE_DIR = "quarantine"

#: Run-manifest keys that must match exactly for a resume to be accepted.
_IDENTITY_KEYS = ("schema_version", "kind", "seed", "n_total", "n_chunks", "task")


class CheckpointError(RuntimeError):
    """Base class for checkpoint-layer failures."""


class CheckpointMismatchError(CheckpointError):
    """The directory holds a checkpoint of a *different* run."""


class CheckpointExistsError(CheckpointError):
    """The directory holds a checkpoint but resuming was not requested."""


def _chunk_stem(index: int) -> str:
    return f"chunk_{index:05d}"


class CheckpointStore:
    """Reads and writes one run's checkpoint directory.

    ``recorder`` (optional) receives a ``quarantine`` telemetry event per
    damaged file moved aside; ``None`` falls back to the process-global
    :func:`repro.telemetry.get_recorder` seam at call time.
    """

    def __init__(self, directory, recorder=None) -> None:
        self.directory = Path(directory)
        self.chunks_dir = self.directory / _CHUNKS_DIR
        self.quarantine_dir = self.directory / _QUARANTINE_DIR
        self.manifest_path = self.directory / _MANIFEST_NAME
        self._recorder = recorder
        #: Degraded mode (set by the runner's resource guards): chunk
        #: writes skip the payload and keep a manifest-only record, so a
        #: low-disk run keeps its provenance without risking ENOSPC.
        self.degraded = False

    def _rec(self):
        if self._recorder is not None:
            return self._recorder
        from repro.telemetry.recorder import get_recorder

        return get_recorder()

    # ------------------------------------------------------------- manifest

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        """The run manifest, or ``None`` if this directory has none yet."""
        if not self.manifest_path.exists():
            return None
        try:
            return json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CorruptResultError(
                f"unreadable run manifest {self.manifest_path}: {exc}"
            ) from exc

    def initialise(self, manifest: Dict[str, Any], resume: bool) -> bool:
        """Create or validate the run manifest.

        Returns True when an existing compatible checkpoint was found (the
        caller may then load completed chunks).  Raises
        :class:`CheckpointExistsError` if a checkpoint exists but
        ``resume`` is False, and :class:`CheckpointMismatchError` if the
        existing manifest identifies a different run.
        """
        existing = self.read_manifest()
        if existing is None:
            self.chunks_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_json(manifest, self.manifest_path)
            return False
        if not resume:
            raise CheckpointExistsError(
                f"{self.directory} already holds a checkpoint; pass resume=True "
                "(CLI: --resume) to continue it, or point at a fresh directory"
            )
        mismatched = [
            key
            for key in _IDENTITY_KEYS
            if existing.get(key) != manifest.get(key)
        ]
        if mismatched:
            details = ", ".join(
                f"{key}: checkpoint={existing.get(key)!r} != requested={manifest.get(key)!r}"
                for key in mismatched
            )
            raise CheckpointMismatchError(
                f"checkpoint in {self.directory} belongs to a different run ({details})"
            )
        self.chunks_dir.mkdir(parents=True, exist_ok=True)
        return True

    # --------------------------------------------------------------- chunks

    def chunk_paths(self, index: int) -> Dict[str, Path]:
        stem = _chunk_stem(index)
        return {
            "payload": self.chunks_dir / f"{stem}.npz",
            "manifest": self.chunks_dir / f"{stem}.json",
        }

    def write_chunk(self, index: int, kind: str, payload, n: int) -> Optional[Path]:
        """Durably record one completed chunk (payload first, then manifest).

        In degraded mode only the sidecar manifest is written (flagged
        ``"degraded": true`` and returning ``None``): a resume sees the
        chunk as not-yet-run and recomputes it, but the run's history
        stays on disk for post-mortems.
        """
        paths = self.chunk_paths(index)
        if self.degraded:
            atomic_write_json(
                {
                    "schema_version": SCHEMA_VERSION,
                    "chunk_index": index,
                    "n": int(n),
                    "kind": kind,
                    "degraded": True,
                },
                paths["manifest"],
            )
            return None
        data = payload_bytes(kind, payload)
        atomic_write_bytes(data, paths["payload"])
        atomic_write_json(
            {
                "schema_version": SCHEMA_VERSION,
                "chunk_index": index,
                "n": int(n),
                "kind": kind,
                "checksum": f"sha256:{sha256_hex(data)}",
            },
            paths["manifest"],
        )
        return paths["payload"]

    def quarantine(self, *paths: Path) -> List[Path]:
        """Move damaged files out of the way (never delete evidence)."""
        moved = []
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        for path in paths:
            if path is None or not path.exists():
                continue
            destination = self.quarantine_dir / path.name
            counter = 0
            while destination.exists():
                counter += 1
                destination = self.quarantine_dir / f"{path.name}.{counter}"
            os.replace(path, destination)
            moved.append(destination)
        if moved:
            rec = self._rec()
            for destination in moved:
                rec.event("quarantine", path=str(destination))
            rec.metrics.counter("runner.files_quarantined").add(len(moved))
        return moved

    def load_completed(self, kind: str) -> "RunnerState":
        """Scan the chunk directory, validating and quarantining as needed.

        A chunk is accepted only if its sidecar manifest parses, carries
        the current schema version and the expected kind tag, its checksum
        matches the payload bytes on disk, and the payload deserializes.
        Anything else is moved to ``quarantine/`` and the chunk is treated
        as not-yet-run.
        """
        manifest = self.read_manifest()
        completed: Dict[int, Any] = {}
        quarantined: List[Path] = []
        if not self.chunks_dir.exists():
            return RunnerState(
                directory=self.directory,
                manifest=manifest,
                completed=completed,
                quarantined=quarantined,
            )
        for manifest_path in sorted(self.chunks_dir.glob("chunk_*.json")):
            payload_path = manifest_path.with_suffix(".npz")
            try:
                chunk_meta = json.loads(manifest_path.read_text())
                if chunk_meta.get("degraded"):
                    # Manifest-only record from a resource-degraded run:
                    # there is no payload to trust, so the chunk simply
                    # counts as not-yet-run (no quarantine -- this state
                    # is intentional, not damage).
                    continue
                if chunk_meta.get("schema_version") != SCHEMA_VERSION:
                    raise CorruptResultError(
                        f"stale schema version {chunk_meta.get('schema_version')!r} "
                        f"(expected {SCHEMA_VERSION})"
                    )
                if chunk_meta.get("kind") != kind:
                    raise CorruptResultError(
                        f"kind mismatch: chunk says {chunk_meta.get('kind')!r}, "
                        f"run expects {kind!r}"
                    )
                index = int(chunk_meta["chunk_index"])
                recorded = str(chunk_meta.get("checksum", ""))
                actual = f"sha256:{sha256_hex(payload_path.read_bytes())}"
                if recorded != actual:
                    raise CorruptResultError(
                        f"checksum mismatch ({recorded} != {actual})"
                    )
                completed[index] = load_payload(kind, payload_path)
            except (CorruptResultError, OSError, KeyError, TypeError, ValueError):
                quarantined.extend(self.quarantine(payload_path, manifest_path))
        # A payload without a sidecar manifest is an uncommitted partial
        # write (crash between the two atomic writes): quarantine it too.
        for payload_path in sorted(self.chunks_dir.glob("chunk_*.npz")):
            if not payload_path.with_suffix(".json").exists():
                quarantined.extend(self.quarantine(payload_path))
        return RunnerState(
            directory=self.directory,
            manifest=manifest,
            completed=completed,
            quarantined=quarantined,
        )


@dataclass
class RunnerState:
    """Recovered state of a checkpoint directory.

    ``RunnerState.load(checkpoint_dir)`` is the public inspection /
    recovery entry point: it detects completed chunks, validates each one
    (schema version + kind tag + payload checksum), quarantines anything
    damaged, and reports what a resumed run may skip.
    """

    directory: Path
    manifest: Optional[Dict[str, Any]]
    completed: Dict[int, Any] = field(default_factory=dict)
    quarantined: List[Path] = field(default_factory=list)

    @classmethod
    def load(cls, checkpoint_dir, kind: Optional[str] = None) -> "RunnerState":
        """Recover the state of ``checkpoint_dir`` (see class docstring).

        ``kind`` defaults to the kind recorded in the run manifest; pass it
        explicitly to validate a directory whose manifest is lost.
        """
        store = CheckpointStore(checkpoint_dir)
        manifest = store.read_manifest()
        if kind is None:
            kind = (manifest or {}).get("kind", "hitting")
        return store.load_completed(kind)

    @property
    def completed_indices(self) -> List[int]:
        return sorted(self.completed)
