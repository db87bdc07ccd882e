"""The persistent result cache: one JSONL store of served estimates.

PR 5's CDF-table LRU memoized *inputs* (inverse-CDF jump tables per
law); this store generalizes the idea to *outputs*: every final
estimate the service produces lands here, keyed by the canonical
``(law, geometry, horizon)`` string from
:func:`repro.api.query.canonical_key`, so a repeated query -- even
after a daemon restart -- is answered without touching an engine.

Durability is the contract shared with the event log and run registry,
:class:`repro.io_utils.AppendLog`: one write per entry, a torn tail
healed by the next :meth:`ResultCache.put` and skipped on load.  The
in-memory index is newest-wins per key with a bounded LRU, so a
long-lived daemon cannot grow without bound even while the on-disk log
stays append-only (:meth:`ResultCache.gc` compacts it atomically).

Warm start: :meth:`warm_start` imports a run registry's headline
estimates as in-memory entries (not re-appended to disk -- the
registry already persists them), which is how a fresh daemon answers
from last week's sweeps immediately.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, Optional

from repro.api.query import (
    EstimateRequest,
    EstimateResponse,
    response_from_registry_estimate,
)
from repro.io_utils import AppendLog, atomic_write_bytes, json_line

#: Default cache location (CLI: ``--cache-dir``).
DEFAULT_CACHE_DIR = ".repro-cache"

#: The append-only entry file inside the cache directory.
CACHE_FILENAME = "estimates.jsonl"

#: Default in-memory index bound (newest-used entries win).
DEFAULT_MAX_ENTRIES = 4096


def _parse_entry(line: str) -> EstimateResponse:
    return EstimateResponse.from_dict(json.loads(line))


class ResultCache:
    """Append-only JSONL store of final :class:`EstimateResponse` entries."""

    def __init__(
        self, directory=DEFAULT_CACHE_DIR, max_entries: int = DEFAULT_MAX_ENTRIES
    ) -> None:
        self.directory = Path(directory if directory is not None else DEFAULT_CACHE_DIR)
        self.max_entries = int(max_entries)
        self._index: "OrderedDict[str, EstimateResponse]" = OrderedDict()
        self._loaded = False
        self._log = AppendLog(self.path, parse=_parse_entry)

    @property
    def path(self) -> Path:
        return self.directory / CACHE_FILENAME

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._index)

    # ------------------------------------------------------------- reading

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        if not self.path.exists():
            return
        # Damaged lines are skipped, never fatal: a cache miss re-derives
        # the answer.
        for entry in self._log.read():
            self._remember(entry)

    def _remember(self, entry: EstimateResponse) -> None:
        existing = self._index.pop(entry.key, None)
        if existing is not None and existing.half_width < entry.half_width:
            # Keep the tighter answer when both are final (a re-served
            # warm start must not loosen what refinement already earned).
            entry = existing
        self._index[entry.key] = entry
        while len(self._index) > self.max_entries:
            self._index.popitem(last=False)

    def get(
        self, key: str, max_ci: Optional[float] = None
    ) -> Optional[EstimateResponse]:
        """The cached final answer for ``key``, if tight enough.

        ``max_ci`` is the largest acceptable absolute Wilson half-width
        (``None`` accepts any).  A hit is marked recently-used.
        """
        self._ensure_loaded()
        entry = self._index.get(key)
        if entry is None:
            return None
        if max_ci is not None and entry.half_width > max_ci:
            return None
        self._index.move_to_end(key)
        return entry

    def entries(self) -> Iterator[EstimateResponse]:
        """Every indexed entry, least-recently-used first."""
        self._ensure_loaded()
        return iter(list(self._index.values()))

    # ------------------------------------------------------------- writing

    def put(self, response: EstimateResponse, persist: bool = True) -> EstimateResponse:
        """Index (and by default append) one final answer.

        ``persist=False`` keeps the entry in memory only -- used for
        registry warm starts, which the registry already persists.
        """
        self._ensure_loaded()
        self._remember(response)
        if not persist:
            return response
        self._log.append(json_line(response.to_dict()))
        return response

    # ---------------------------------------------------------- warm start

    def warm_start(self, registry) -> int:
        """Import a run registry's headline estimates; returns the count.

        Walks every record oldest-first (so newer records overwrite
        older entries for the same key) and indexes each per-walk
        Bernoulli estimate row under its canonical key.  In-memory
        only: the registry persists these already.
        """
        imported = 0
        for record in registry.records():
            for row in record.estimates:
                params = row.get("params") or {}
                alpha, l = params.get("alpha"), params.get("l")
                horizon = row.get("horizon")
                if not isinstance(alpha, (int, float)) or not isinstance(l, int):
                    continue
                if not isinstance(horizon, int):
                    continue
                try:
                    request = EstimateRequest(
                        alpha=float(alpha),
                        l=l,
                        horizon=horizon,
                        detect=bool(params.get("detect", True)),
                    )
                except ValueError:
                    continue
                response = response_from_registry_estimate(
                    row, request, record.run_id
                )
                if response is None:
                    continue
                self.put(response, persist=False)
                imported += 1
        return imported

    # ----------------------------------------------------------------- gc

    def gc(self) -> int:
        """Atomically compact the on-disk log to the indexed entries.

        Returns the number of entries written.  A crash mid-gc leaves
        the old file (tmp + rename, like the registry's gc).
        """
        self._ensure_loaded()
        body = "".join(json_line(e.to_dict()) for e in self._index.values())
        atomic_write_bytes(body.encode("utf-8"), self.path)
        return len(self._index)
