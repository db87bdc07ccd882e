"""Persistence for Monte-Carlo results (npz + JSON sidecars).

Full-scale runs are expensive; this module lets experiment drivers save
raw censored samples and reload them for re-analysis without re-running
the simulation.  Formats:

* :class:`~repro.engine.results.HittingTimeSample` -> a single ``.npz``
  with the times array and horizon;
* :class:`~repro.engine.multi_target.ForagingResult` -> a single ``.npz``
  with targets, discovery times, discoverers and horizon;
* arbitrary experiment metadata -> JSON (seeds, parameters, scale), kept
  next to the arrays so a directory of results is self-describing.

All writers are *atomic* (tmp file + :func:`os.replace` in the target
directory), so a crash mid-write can never leave a half-written file under
the final name -- the checkpointing runner (:mod:`repro.runner`) relies on
this.  All loaders convert the zoo of low-level decoding failures
(truncated zip, garbage JSON, missing keys) into a single
:class:`CorruptResultError` so callers can quarantine bad files without
enumerating stdlib exception types.

The append-only JSONL stores (event log, run registry, result cache)
share one primitive instead, :class:`AppendLog`: single-write appends
that heal a torn tail, and readers that tolerate the kill signature.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.engine.multi_target import ForagingResult
from repro.engine.results import HittingTimeSample

_SAMPLE_KIND = "repro.HittingTimeSample.v1"
_FORAGING_KIND = "repro.ForagingResult.v1"

#: Exceptions that mean "this file is damaged", re-raised as CorruptResultError.
_DECODE_ERRORS = (
    ValueError,
    KeyError,
    EOFError,
    OSError,
    zipfile.BadZipFile,
    json.JSONDecodeError,
)


class CorruptResultError(ValueError):
    """A result/metadata file is truncated, garbled, or of the wrong kind."""


# ------------------------------------------------------------ atomic writers


def atomic_write_bytes(data: bytes, path) -> Path:
    """Write ``data`` to ``path`` atomically (tmp file + ``os.replace``).

    The temporary file lives in the destination directory so the final
    rename never crosses filesystems; readers either see the old content
    or the complete new content, never a prefix.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(obj: Any, path) -> Path:
    """Serialize ``obj`` as pretty JSON and write it atomically."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return atomic_write_bytes(text.encode("utf-8"), path)


def json_line(record: Any) -> str:
    """One compact, key-sorted JSON record plus its ``\\n`` terminator.

    The on-disk record encoding of every :class:`AppendLog` store.
    """
    return json.dumps(record, separators=(",", ":"), sort_keys=True, default=str) + "\n"


def parse_json_object(line: str) -> Dict[str, Any]:
    """Parse one JSONL line that must hold an object (the default parser)."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"record is not an object: {record!r}")
    return record


class AppendLog:
    """An append-only file of ``\\n``-terminated records.

    The one durability contract behind the telemetry event log, the run
    registry and the result cache:

    * **Append.**  :meth:`append` writes one or more whole records in a
      single ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
      appenders never interleave mid-record and a kill can only tear the
      final line.  If the file's tail is torn (no trailing newline), the
      write starts with ``"\\n\\n"``: the newline ends the fragment, the
      blank line after it marks the fragment as a healed tail, and both
      land in the same write as the records, so the heal cannot itself be
      torn apart.  A held descriptor (:meth:`open`) checks the tail once,
      at open.
    * **Read.**  :meth:`read` parses every non-blank line with ``parse``.
      A damaged final line, or a damaged line that a heal closed, is
      always skipped: both are what a kill leaves behind.  Other damage
      (``parse`` raising ``ValueError``/``TypeError``) is skipped too,
      unless ``strict``, which raises :class:`CorruptResultError` naming
      ``path:line``.
    * **Follow.**  :meth:`poll` returns the records appended since the
      previous poll.  The fragment after the last newline waits for the
      next poll; a file that shrank is read again from the start.
    """

    def __init__(
        self,
        path,
        parse: Callable[[str], Any] = parse_json_object,
        kind: str = "record",
    ) -> None:
        self.path = Path(path)
        self.parse = parse
        self.kind = kind
        self._fd: Optional[int] = None
        self._heal = False
        self._offset = 0
        self._partial = b""

    # ------------------------------------------------------------- append

    def _open_fd(self) -> Tuple[int, bool]:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        size = os.fstat(fd).st_size
        return fd, size > 0 and os.pread(fd, 1, size - 1) != b"\n"

    def open(self) -> None:
        """Hold a descriptor for repeated appends (checks the tail now)."""
        if self._fd is None:
            self._fd, self._heal = self._open_fd()

    @property
    def closed(self) -> bool:
        return self._fd is None

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def append(self, text: str) -> None:
        """Append ``text`` (whole ``\\n``-terminated records) in one write."""
        held = self._fd is not None
        fd, heal = (self._fd, self._heal) if held else self._open_fd()
        self._heal = False
        try:
            _write_all(fd, "\n\n" + text if heal else text)
        finally:
            if not held:
                os.close(fd)

    # --------------------------------------------------------------- read

    def _parsed(self, line: str) -> Tuple[bool, Any]:
        try:
            return True, self.parse(line)
        except (ValueError, TypeError) as exc:
            return False, exc

    def read(self, strict: bool = False) -> Iterator[Any]:
        """Yield every readable record in file order (see the class doc)."""
        lines = self.path.read_text(encoding="utf-8", errors="replace").split("\n")
        if lines[-1] == "":  # the terminator of the last line
            lines.pop()
        last = len(lines) - 1
        for number, line in enumerate(lines):
            if not line.strip():
                continue
            ok, value = self._parsed(line)
            if ok:
                yield value
            elif strict and number != last and lines[number + 1] != "":
                # Neither the final line nor a fragment a heal closed
                # (the heal's blank line follows it): interior damage.
                raise CorruptResultError(
                    f"corrupt {self.kind} at {self.path}:{number + 1}: {value}"
                ) from value

    def poll(self) -> List[Any]:
        """The readable records appended since the previous poll."""
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return []
        if size < self._offset:
            self._offset, self._partial = 0, b""
        if size == self._offset:
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
            self._offset = handle.tell()
        *lines, self._partial = (self._partial + data).split(b"\n")
        records = []
        for line in lines:
            text = line.decode("utf-8", errors="replace")
            if text.strip():
                ok, value = self._parsed(text)
                if ok:
                    records.append(value)
        return records


def _write_all(fd: int, text: str) -> None:
    data = text.encode("utf-8")
    written = os.write(fd, data)
    while written < len(data):  # pragma: no cover - short writes are rare
        written += os.write(fd, data[written:])


def sha256_hex(data: bytes) -> str:
    """Hex digest used to checksum checkpoint payloads."""
    return hashlib.sha256(data).hexdigest()


def _npz_bytes(**arrays: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def _npz_path(path) -> Path:
    """Mirror ``np.savez``'s suffix behaviour: append ``.npz`` if absent."""
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


# ----------------------------------------------------------- hitting samples


def hitting_sample_bytes(sample: HittingTimeSample) -> bytes:
    """The ``.npz`` byte serialization of a censored hitting-time sample."""
    return _npz_bytes(
        kind=np.array(_SAMPLE_KIND),
        times=np.asarray(sample.times, dtype=np.int64),
        horizon=np.array(sample.horizon, dtype=np.int64),
    )


def save_hitting_sample(sample: HittingTimeSample, path) -> Path:
    """Atomically write a censored hitting-time sample to ``path`` (``.npz``)."""
    return atomic_write_bytes(hitting_sample_bytes(sample), _npz_path(path))


def load_hitting_sample(path) -> HittingTimeSample:
    """Load a sample written by :func:`save_hitting_sample`.

    Raises :class:`CorruptResultError` on truncated/garbage files or a
    wrong ``kind`` tag; :class:`FileNotFoundError` if the file is absent.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    try:
        with np.load(path) as data:
            kind = str(data["kind"])
            if kind != _SAMPLE_KIND:
                raise CorruptResultError(
                    f"not a hitting-time sample file (kind={kind!r})"
                )
            return HittingTimeSample(
                times=data["times"].astype(np.int64),
                horizon=int(data["horizon"]),
            )
    except CorruptResultError:
        raise
    except _DECODE_ERRORS as exc:
        raise CorruptResultError(f"unreadable hitting-time sample {path}: {exc}") from exc


# ----------------------------------------------------------- foraging results


def foraging_result_bytes(result: ForagingResult) -> bytes:
    """The ``.npz`` byte serialization of a multi-target foraging result."""
    return _npz_bytes(
        kind=np.array(_FORAGING_KIND),
        targets=np.asarray(result.targets, dtype=np.int64),
        discovery_times=np.asarray(result.discovery_times, dtype=np.int64),
        discoverer=np.asarray(result.discoverer, dtype=np.int64),
        horizon=np.array(result.horizon, dtype=np.int64),
    )


def save_foraging_result(result: ForagingResult, path) -> Path:
    """Atomically write a multi-target foraging result to ``path`` (``.npz``)."""
    return atomic_write_bytes(foraging_result_bytes(result), _npz_path(path))


def load_foraging_result(path) -> ForagingResult:
    """Load a result written by :func:`save_foraging_result`.

    Raises :class:`CorruptResultError` on damaged files (see
    :func:`load_hitting_sample`).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    try:
        with np.load(path) as data:
            kind = str(data["kind"])
            if kind != _FORAGING_KIND:
                raise CorruptResultError(f"not a foraging result file (kind={kind!r})")
            return ForagingResult(
                targets=data["targets"].astype(np.int64),
                discovery_times=data["discovery_times"].astype(np.int64),
                discoverer=data["discoverer"].astype(np.int64),
                horizon=int(data["horizon"]),
            )
    except CorruptResultError:
        raise
    except _DECODE_ERRORS as exc:
        raise CorruptResultError(f"unreadable foraging result {path}: {exc}") from exc


# ------------------------------------------------------------------ dispatch

ResultPayload = Union[HittingTimeSample, ForagingResult]

#: result-kind tag (as used by the runner's manifests) -> (to_bytes, load)
_PAYLOAD_CODECS = {
    "hitting": (hitting_sample_bytes, load_hitting_sample),
    "foraging": (foraging_result_bytes, load_foraging_result),
}


def payload_bytes(kind: str, payload: ResultPayload) -> bytes:
    """Serialize a result payload of the given kind tag (``hitting``/``foraging``)."""
    try:
        to_bytes, _ = _PAYLOAD_CODECS[kind]
    except KeyError:
        raise ValueError(f"unknown payload kind {kind!r}") from None
    return to_bytes(payload)


def load_payload(kind: str, path) -> ResultPayload:
    """Load a result payload of the given kind tag (``hitting``/``foraging``)."""
    try:
        _, load = _PAYLOAD_CODECS[kind]
    except KeyError:
        raise ValueError(f"unknown payload kind {kind!r}") from None
    return load(path)


# ------------------------------------------------------------------ metadata


def save_metadata(metadata: Dict[str, Any], path) -> Path:
    """Atomically write a JSON metadata sidecar (seeds, parameters, provenance)."""
    return atomic_write_json(metadata, Path(path))


def load_metadata(path) -> Dict[str, Any]:
    """Read a JSON metadata sidecar.

    Raises :class:`CorruptResultError` if the file is not valid JSON.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    try:
        return json.loads(path.read_text())
    except _DECODE_ERRORS as exc:
        raise CorruptResultError(f"unreadable metadata file {path}: {exc}") from exc
