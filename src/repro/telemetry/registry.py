"""The persistent run registry: cross-run memory for every Runner/sweep run.

PRs 2--7 made *individual* runs richly observable (events, metrics,
convergence CIs, phase profiles), but each run was a throwaway JSONL
file: nothing remembered what ``P(hit by t)`` looked like last week, so
regressions in *statistics* -- not just seconds -- went unnoticed.  This
module is the cross-run layer:

* :class:`RunRecord` -- one immutable summary of a finished run: run id,
  config hash, seed, git revision, event-schema version, outcome and
  exit code, headline estimates with Wilson CIs per grid point, a
  phase-profile summary, pool/IPC totals, and artifact paths;
* :class:`RunRegistry` -- an append-only JSONL store
  (``<registry-dir>/runs.jsonl``, default ``.repro-registry/``) on the
  event log's durability contract, :class:`repro.io_utils.AppendLog`:
  one write per record, a torn tail healed by the next registration and
  skipped by readers;
* :func:`compare_records` -- CI-aware statistical drift detection between
  two runs: a grid point whose Wilson intervals are *disjoint* is flagged
  as DRIFT (``runs compare --strict`` exits non-zero), and a point whose
  interval overlap shrank past a threshold warns, alongside
  phase/walltime diffs in the ``profile --diff`` style;
* :meth:`RunRegistry.lookup` -- the estimation-service seam (ROADMAP):
  given a law, a geometry filter and a maximum CI half-width, return the
  freshest registered record that already answers the query, so future
  sweeps (and the planned ``repro-serve`` daemon) can warm-start from
  prior results instead of re-simulating.

Scientific motivation for drift detection: the literature *disputes* the
paper's headline claims (Levernier et al., arXiv:2002.00278, argue
inverse-square is non-optimal for d >= 2; Guinard--Korman,
arXiv:2003.13041, tie optimality to target size), so a silent shift in
our measured estimates between code versions is exactly the kind of bug
that could flip a scientific conclusion.  The registry makes such shifts
loud.

Import-cycle note: like :mod:`repro.telemetry.events`, this module pulls
in :mod:`repro.io_utils` (which imports the engines), so the recorder
must never import it at module level; the CLI and tests import it
directly.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.io_utils import (
    AppendLog,
    CorruptResultError,
    atomic_write_bytes,
    json_line,
    sha256_hex,
)

#: Bumped when the record layout changes incompatibly.  Readers ignore
#: unknown fields and default missing ones, so additive growth does not
#: need a bump.
RECORD_VERSION = 1

#: Default registry location (CLI: ``--registry-dir``).
DEFAULT_REGISTRY_DIR = ".repro-registry"

#: The append-only record file inside the registry directory.
REGISTRY_FILENAME = "runs.jsonl"

#: Exit-code -> outcome classification (mirrors docs/runner.md).
_OUTCOMES = {
    0: "ok",
    1: "failed",
    2: "usage-error",
    3: "degraded",
    4: "quarantined",
    130: "interrupted",
}


def outcome_for_exit_code(code: int) -> str:
    """The documented outcome name for a CLI exit code."""
    return _OUTCOMES.get(int(code), f"exit-{int(code)}")


def utc_now_iso() -> str:
    """Wall-clock UTC timestamp, second resolution, ISO 8601 with Z."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def new_run_id() -> str:
    """A fresh, time-sortable, collision-resistant run id.

    ``YYYYmmddTHHMMSSZ-xxxxxx``: the UTC second plus three random bytes,
    so ids sort chronologically in ``runs list`` while concurrent
    registrars in the same second still never collide.
    """
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return f"{stamp}-{os.urandom(3).hex()}"


def git_revision(cwd: Optional[Path] = None) -> Optional[str]:
    """The current short git revision, or None outside a repo / without git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    rev = proc.stdout.strip()
    return rev or None


def config_hash(config: Mapping[str, Any]) -> str:
    """A short stable hash of a run's configuration (spec, flags, seed).

    Canonical JSON (sorted keys, ``default=str``) so logically equal
    configs hash equal regardless of dict ordering or Path-vs-str types.
    """
    text = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return sha256_hex(text.encode("utf-8"))[:12]


def estimate_key(params: Mapping[str, Any]) -> str:
    """Canonical ``k=v`` key for one grid point's scalar params.

    Sorted by name so two runs whose specs enumerated axes in different
    orders still join on the same key in ``runs compare`` and the
    dashboard trajectories.
    """
    parts = []
    for name in sorted(params):
        value = params[name]
        if isinstance(value, float):
            parts.append(f"{name}={value:g}")
        elif isinstance(value, (int, str, bool)):
            parts.append(f"{name}={value}")
    return " ".join(parts)


# ------------------------------------------------------------------ the record


@dataclass(frozen=True)
class RunRecord:
    """One registered run: provenance, outcome, headline statistics.

    ``estimates`` is a list of per-grid-point dicts::

        {"key": "alpha=2.2 detect=True k=8 l=24",  # canonical join key
         "label": "sweep-point-0000",              # telemetry label
         "law": "alpha=2.2",                       # walk family
         "params": {...},                          # scalar grid params
         "trials": 2000, "successes": 93,
         "p": 0.0465, "low": 0.0381, "high": 0.0566,   # 95% Wilson
         "half_width": 0.00925, "horizon": 576,
         "status": "complete"}                     # runner outcome

    Schema documented in docs/observability.md ("Run registry &
    dashboard").  :meth:`from_dict` tolerates unknown fields and defaults
    missing ones, so old readers survive new writers and vice versa.
    """

    run_id: str
    created_at: str
    command: str
    label: str = ""
    seed: Optional[int] = None
    scale: Optional[str] = None
    config_hash: Optional[str] = None
    git_rev: Optional[str] = None
    event_schema: Optional[int] = None
    record_version: int = RECORD_VERSION
    outcome: str = "ok"
    exit_code: int = 0
    estimates: List[Dict[str, Any]] = field(default_factory=list)
    #: Phase name -> seconds, summed over the run (the phase_profile sum).
    phases: Dict[str, float] = field(default_factory=dict)
    walltime_seconds: Optional[float] = None
    workers: Optional[int] = None
    #: Pool effectiveness: {"effective_parallelism": ..., "pool_speedup": ...}
    pool: Dict[str, Any] = field(default_factory=dict)
    #: IPC totals: {"ipc_bytes": ..., "pickle_seconds": ..., "unpickle_seconds": ...}
    ipc: Dict[str, Any] = field(default_factory=dict)
    #: Incident ledger counters: incidents, retries, quarantined_points, ...
    incidents: Dict[str, int] = field(default_factory=dict)
    #: Artifact paths: events / metrics / checkpoint_dir / json / output.
    artifacts: Dict[str, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "created_at": self.created_at,
            "command": self.command,
            "label": self.label,
            "seed": self.seed,
            "scale": self.scale,
            "config_hash": self.config_hash,
            "git_rev": self.git_rev,
            "event_schema": self.event_schema,
            "record_version": self.record_version,
            "outcome": self.outcome,
            "exit_code": self.exit_code,
            "estimates": list(self.estimates),
            "phases": dict(self.phases),
            "walltime_seconds": self.walltime_seconds,
            "workers": self.workers,
            "pool": dict(self.pool),
            "ipc": dict(self.ipc),
            "incidents": dict(self.incidents),
            "artifacts": dict(self.artifacts),
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        if not isinstance(data, Mapping):
            raise CorruptResultError(f"run record is not an object: {data!r}")
        run_id = data.get("run_id")
        if not isinstance(run_id, str) or not run_id:
            raise CorruptResultError("run record has no run_id")

        def _dict(name) -> Dict:
            value = data.get(name)
            return dict(value) if isinstance(value, Mapping) else {}

        def _list(name) -> List:
            value = data.get(name)
            return list(value) if isinstance(value, (list, tuple)) else []

        return cls(
            run_id=run_id,
            created_at=str(data.get("created_at", "")),
            command=str(data.get("command", "?")),
            label=str(data.get("label", "")),
            seed=data.get("seed"),
            scale=data.get("scale"),
            config_hash=data.get("config_hash"),
            git_rev=data.get("git_rev"),
            event_schema=data.get("event_schema"),
            record_version=int(data.get("record_version", RECORD_VERSION)),
            outcome=str(data.get("outcome", "ok")),
            exit_code=int(data.get("exit_code", 0)),
            estimates=[e for e in _list("estimates") if isinstance(e, Mapping)],
            phases={
                str(k): float(v)
                for k, v in _dict("phases").items()
                if isinstance(v, (int, float))
            },
            walltime_seconds=data.get("walltime_seconds"),
            workers=data.get("workers"),
            pool=_dict("pool"),
            ipc=_dict("ipc"),
            incidents={
                str(k): int(v)
                for k, v in _dict("incidents").items()
                if isinstance(v, (int, float))
            },
            artifacts={str(k): str(v) for k, v in _dict("artifacts").items()},
            notes=[str(n) for n in _list("notes")],
        )


# ------------------------------------------------------- estimate extraction


def estimates_from_sweep(result) -> List[Dict[str, Any]]:
    """Per-grid-point headline estimates from a :class:`SweepResult`.

    Each point with a non-empty Bernoulli sample gets its 95% Wilson
    interval; empty (quarantined/never-started) points are recorded with
    ``trials: 0`` and no interval so the dashboard can show the gap.
    """
    from repro.analysis.estimators import wilson_interval

    rows: List[Dict[str, Any]] = []
    for point_result in result.results:
        point = point_result.point
        outcome = point_result.outcome
        params = {
            name: value
            for name, value in point.params.items()
            if isinstance(value, (int, float, str, bool))
        }
        if point.k is not None:
            params.setdefault("k", point.k)
        if "bout" in params:
            law = estimate_key({"bout": params["bout"]})
        elif "alpha" in params:
            law = estimate_key({"alpha": params["alpha"]})
        else:
            law = "custom"
        if outcome.interrupted:
            status = "interrupted"
        elif outcome.quarantined_point:
            status = "quarantined"
        elif outcome.converged:
            status = "converged"
        elif outcome.degraded:
            status = "degraded"
        else:
            status = "complete"
        row: Dict[str, Any] = {
            "key": estimate_key(params),
            "label": f"{result.label}-{point.label}",
            "law": law,
            "params": params,
            "horizon": int(point.horizon),
            "trials": int(point_result.sample.n),
            "status": status,
        }
        sample = point_result.sample
        if sample.n:
            estimate = wilson_interval(int(sample.n_hits), int(sample.n))
            row.update(
                successes=estimate.successes,
                p=round(estimate.point, 8),
                low=round(estimate.low, 8),
                high=round(estimate.high, 8),
                half_width=round(0.5 * (estimate.high - estimate.low), 8),
            )
        rows.append(row)
    return rows


def estimates_from_events(events: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Final per-label estimates from an event log's ``estimate`` stream.

    Used by the ``run`` command, whose experiments do not expose a sweep
    result: the convergence monitor already emitted running Wilson CIs
    per chunk, and the *last* event per label is the merged-run estimate.
    """
    final: Dict[str, Dict[str, Any]] = {}
    for event in events:
        if event.get("type") != "estimate":
            continue
        label = str(event.get("label", "?"))
        row = {
            "key": label,
            "label": label,
            "law": None,
            "params": {},
            "trials": int(event.get("trials", 0)),
            "successes": int(event.get("successes", 0)),
            "p": event.get("p"),
            "low": event.get("low"),
            "high": event.get("high"),
            "status": "converged" if event.get("converged") else "complete",
        }
        low, high = event.get("low"), event.get("high")
        if isinstance(low, (int, float)) and isinstance(high, (int, float)):
            row["half_width"] = round(0.5 * (float(high) - float(low)), 8)
        final[label] = row
    return [final[label] for label in sorted(final)]


def summary_from_recorder(recorder) -> Dict[str, Any]:
    """Phase/IPC/incident summaries from a live recorder's metrics.

    Returns ``{"phases": ..., "ipc": ..., "incidents": ...}`` built from
    the documented counter names (docs/observability.md); empty dicts
    when telemetry was off.
    """
    phases: Dict[str, float] = {}
    ipc: Dict[str, Any] = {}
    incidents: Dict[str, int] = {}
    if recorder is None or not getattr(recorder, "enabled", False):
        return {"phases": phases, "ipc": ipc, "incidents": incidents}
    prefix = "engine.phase_seconds."
    for name, snap in recorder.metrics.snapshot().items():
        value = snap.get("value")
        if value in (None, 0):
            continue
        if name.startswith(prefix):
            phases[name[len(prefix):]] = round(float(value), 6)
        elif name == "runner.ipc_bytes":
            ipc["ipc_bytes"] = int(value)
        elif name in ("runner.pickle_seconds", "runner.unpickle_seconds"):
            ipc[name.split(".", 1)[1]] = round(float(value), 6)
        elif name in (
            "runner.incidents",
            "runner.retries",
            "runner.points_quarantined",
            "runner.hung_chunks",
            "runner.pool_rebuilds",
            "runner.files_quarantined",
            "runner.deadline_stops",
            "runner.signal_stops",
        ):
            incidents[name.split(".", 1)[1]] = int(value)
    return {"phases": phases, "ipc": ipc, "incidents": incidents}


# ------------------------------------------------------------------ the store


def _parse_record(line: str) -> RunRecord:
    return RunRecord.from_dict(json.loads(line))


class RunRegistry:
    """Append-only JSONL store of :class:`RunRecord` objects.

    Durability is the :class:`repro.io_utils.AppendLog` contract: one
    write per record, so concurrent registrars -- pooled sweeps, parallel
    CI jobs -- never interleave mid-record, and a kill-mid-register's torn
    tail is healed by the next :meth:`register` and skipped by readers.
    """

    def __init__(self, directory=DEFAULT_REGISTRY_DIR) -> None:
        self.directory = Path(directory)
        self._log = AppendLog(self.path, parse=_parse_record, kind="run record")

    @property
    def path(self) -> Path:
        return self.directory / REGISTRY_FILENAME

    # ------------------------------------------------------------- writing

    def register(self, record: RunRecord) -> RunRecord:
        """Append one record atomically; returns it for chaining."""
        self._log.append(json_line(record.to_dict()))
        return record

    # ------------------------------------------------------------- reading

    def records(self, strict: bool = False) -> List[RunRecord]:
        """Every readable record, oldest first (file order).

        A torn tail is always tolerated; interior damage is skipped by
        default and raises :class:`CorruptResultError` under ``strict``.
        """
        if not self.path.exists():
            return []
        return list(self._log.read(strict=strict))

    def get(self, run_id: str) -> Optional[RunRecord]:
        """The record with exactly this id (latest wins on duplicates)."""
        found = None
        for record in self.records():
            if record.run_id == run_id:
                found = record
        return found

    def resolve(self, token: str) -> RunRecord:
        """A record from a user-supplied token.

        Accepts an exact run id, a unique id prefix, or the relative
        forms ``last`` (newest record) and ``prev`` (second newest).
        Raises :class:`KeyError` with a helpful message otherwise.
        """
        records = self.records()
        if not records:
            raise KeyError(f"registry {self.path} has no records")
        if token == "last":
            return records[-1]
        if token == "prev":
            if len(records) < 2:
                raise KeyError("registry has no previous run (only one record)")
            return records[-2]
        matches = [r for r in records if r.run_id == token]
        if not matches:
            matches = [r for r in records if r.run_id.startswith(token)]
        if not matches:
            raise KeyError(
                f"no run matching {token!r}; try 'runs list' "
                f"(ids look like {records[-1].run_id})"
            )
        unique_ids = {r.run_id for r in matches}
        if len(unique_ids) > 1:
            raise KeyError(
                f"run id prefix {token!r} is ambiguous: "
                + ", ".join(sorted(unique_ids)[:5])
            )
        return matches[-1]

    def latest(
        self, n: Optional[int] = None, command: Optional[str] = None
    ) -> List[RunRecord]:
        """The last ``n`` records (oldest first), optionally by command."""
        records = self.records()
        if command is not None:
            records = [r for r in records if r.command == command]
        if n is not None:
            records = records[-int(n):]
        return records

    def lookup(
        self,
        law: Optional[str] = None,
        geometry: Optional[Mapping[str, Any]] = None,
        max_ci: Optional[float] = None,
    ) -> Optional[RunRecord]:
        """The freshest record already answering an estimate query.

        This is the estimation service's warm-start seam (ROADMAP): a
        ``P(hit by t)`` query for ``(law, geometry)`` first asks the
        registry; a returned record's matching estimate is an instant
        answer whose 95% Wilson half-width is at most ``max_ci``.

        ``law`` matches the estimate's law string (e.g. ``"alpha=2.2"``);
        ``geometry`` is a params filter (e.g. ``{"l": 24, "k": 8}``);
        ``max_ci`` is the largest acceptable *absolute* half-width
        (``None`` accepts any interval).  Records are scanned newest
        first; the first with a matching, adequate estimate wins.
        """
        geometry = dict(geometry or {})
        for record in reversed(self.records()):
            for estimate in record.estimates:
                if law is not None and estimate.get("law") != law:
                    continue
                params = estimate.get("params") or {}
                if any(params.get(k) != v for k, v in geometry.items()):
                    continue
                if not estimate.get("trials"):
                    continue
                if max_ci is not None:
                    half_width = estimate.get("half_width")
                    if not isinstance(half_width, (int, float)) or half_width > max_ci:
                        continue
                return record
        return None

    # ----------------------------------------------------------------- gc

    def gc(
        self,
        keep: int = 50,
        max_age_days: Optional[float] = None,
        dry_run: bool = False,
    ) -> Tuple[List[RunRecord], List[RunRecord]]:
        """Compact the registry; returns ``(kept, dropped)``.

        Keeps the newest ``keep`` records (and, with ``max_age_days``,
        additionally drops older-than-cutoff ones from that tail), but
        NEVER drops a record whose ``artifacts.checkpoint_dir`` still
        exists on disk -- those runs are resumable, and deleting their
        registry entry would orphan the checkpoints.  The rewrite is
        atomic (tmp + rename), so a crash mid-gc leaves the old file.
        """
        records = self.records()
        cutoff: Optional[str] = None
        if max_age_days is not None:
            from datetime import timedelta

            cutoff = (
                datetime.now(timezone.utc) - timedelta(days=float(max_age_days))
            ).strftime("%Y-%m-%dT%H:%M:%SZ")
        kept: List[RunRecord] = []
        dropped: List[RunRecord] = []
        tail_start = max(0, len(records) - max(int(keep), 0))
        for index, record in enumerate(records):
            drop = index < tail_start
            if not drop and cutoff is not None and record.created_at:
                drop = record.created_at < cutoff
            if drop and self._references_live_checkpoint(record):
                drop = False
            (dropped if drop else kept).append(record)
        if not dry_run and dropped:
            body = "".join(json_line(r.to_dict()) for r in kept)
            atomic_write_bytes(body.encode("utf-8"), self.path)
        return kept, dropped

    @staticmethod
    def _references_live_checkpoint(record: RunRecord) -> bool:
        checkpoint_dir = record.artifacts.get("checkpoint_dir")
        if not checkpoint_dir:
            return False
        try:
            return Path(checkpoint_dir).exists()
        except OSError:
            return False


# --------------------------------------------------------- record construction


def build_run_record(
    *,
    command: str,
    label: str = "",
    run_id: Optional[str] = None,
    created_at: Optional[str] = None,
    seed: Optional[int] = None,
    scale: Optional[str] = None,
    config: Optional[Mapping[str, Any]] = None,
    exit_code: int = 0,
    outcome: Optional[str] = None,
    estimates: Sequence[Mapping[str, Any]] = (),
    recorder=None,
    walltime_seconds: Optional[float] = None,
    workers: Optional[int] = None,
    pool: Optional[Mapping[str, Any]] = None,
    artifacts: Optional[Mapping[str, Any]] = None,
    notes: Sequence[str] = (),
) -> RunRecord:
    """Assemble a :class:`RunRecord` from run state.

    Provenance fields are filled automatically: a fresh run id and
    timestamp unless supplied, the current git revision, the event
    schema version, and -- when a live recorder is passed -- the
    phase-seconds summary, IPC totals and incident counters straight
    from its metrics registry.
    """
    from repro.telemetry.events import SCHEMA_VERSION

    summaries = summary_from_recorder(recorder)
    return RunRecord(
        run_id=run_id if run_id is not None else new_run_id(),
        created_at=created_at if created_at is not None else utc_now_iso(),
        command=command,
        label=label,
        seed=seed,
        scale=scale,
        config_hash=config_hash(config) if config is not None else None,
        git_rev=git_revision(),
        event_schema=SCHEMA_VERSION,
        outcome=outcome if outcome is not None else outcome_for_exit_code(exit_code),
        exit_code=int(exit_code),
        estimates=[dict(e) for e in estimates],
        phases=summaries["phases"],
        walltime_seconds=(
            round(float(walltime_seconds), 3) if walltime_seconds is not None else None
        ),
        workers=workers,
        pool={k: v for k, v in dict(pool or {}).items() if v is not None},
        ipc=summaries["ipc"],
        incidents=summaries["incidents"],
        artifacts={
            str(k): str(v) for k, v in dict(artifacts or {}).items() if v is not None
        },
        notes=[str(n) for n in notes],
    )


# ------------------------------------------------------------- drift detection


@dataclass(frozen=True)
class EstimateDelta:
    """One grid point's statistical comparison between two runs."""

    key: str
    a: Optional[Mapping[str, Any]]
    b: Optional[Mapping[str, Any]]
    #: "drift" (disjoint CIs), "warn" (overlap shrank), "ok", or "n/a".
    verdict: str
    detail: str = ""


#: Matched intervals whose overlap fraction (relative to the narrower
#: interval) falls below this warn in ``runs compare``: the estimates
#: still touch, but most of the narrower interval has moved away.
OVERLAP_WARN_FRACTION = 0.5


def _interval(estimate: Mapping[str, Any]) -> Optional[Tuple[float, float]]:
    low, high = estimate.get("low"), estimate.get("high")
    if isinstance(low, (int, float)) and isinstance(high, (int, float)):
        return float(low), float(high)
    return None


def compare_estimates(
    a: Sequence[Mapping[str, Any]],
    b: Sequence[Mapping[str, Any]],
    overlap_warn: float = OVERLAP_WARN_FRACTION,
) -> List[EstimateDelta]:
    """CI-aware drift detection between two runs' estimate lists.

    Per matched key: **disjoint** 95% Wilson intervals are statistical
    drift (at 95% confidence the two runs did not measure the same
    proportion -- a seed-path, engine, or model change shifted the
    statistic); intervals that still overlap but whose overlap covers
    less than ``overlap_warn`` of the narrower interval warn.  Points
    present on only one side are reported as coverage changes, never
    drift.
    """
    by_key_a = {str(e.get("key")): e for e in a}
    by_key_b = {str(e.get("key")): e for e in b}
    deltas: List[EstimateDelta] = []
    for key in sorted(set(by_key_a) | set(by_key_b)):
        ea, eb = by_key_a.get(key), by_key_b.get(key)
        if ea is None or eb is None:
            deltas.append(
                EstimateDelta(
                    key, ea, eb, "n/a",
                    "only in B" if ea is None else "only in A",
                )
            )
            continue
        ia, ib = _interval(ea), _interval(eb)
        if ia is None or ib is None:
            deltas.append(
                EstimateDelta(key, ea, eb, "n/a", "no interval (empty sample)")
            )
            continue
        overlap = min(ia[1], ib[1]) - max(ia[0], ib[0])
        if overlap < 0:
            gap = -overlap
            deltas.append(
                EstimateDelta(
                    key, ea, eb, "drift",
                    f"disjoint 95% CIs (gap {gap:.3g})",
                )
            )
            continue
        narrower = min(ia[1] - ia[0], ib[1] - ib[0])
        if narrower > 0 and overlap / narrower < overlap_warn:
            deltas.append(
                EstimateDelta(
                    key, ea, eb, "warn",
                    f"CI overlap shrank to {overlap / narrower:.0%} "
                    f"of the narrower interval",
                )
            )
            continue
        deltas.append(EstimateDelta(key, ea, eb, "ok"))
    return deltas


def _fmt_estimate(estimate: Optional[Mapping[str, Any]]) -> str:
    if estimate is None:
        return "-"
    p = estimate.get("p")
    interval = _interval(estimate)
    if p is None or interval is None:
        return f"n={estimate.get('trials', 0)} (no interval)"
    return f"{p:.4g} [{interval[0]:.4g}, {interval[1]:.4g}]"


def compare_records(
    a: RunRecord, b: RunRecord, overlap_warn: float = OVERLAP_WARN_FRACTION
) -> Tuple[str, List[str], List[str]]:
    """Render the full A-vs-B comparison; returns ``(text, drifted, warned)``.

    Three sections, in the ``profile --diff`` style: the estimate drift
    table (the statistical heart), the phase-seconds diff, and headline
    walltime/IPC/incident rows.  ``drifted`` lists keys with disjoint
    CIs -- ``runs compare --strict`` exits non-zero when it is non-empty.
    """
    from repro.reporting.table import Table

    deltas = compare_estimates(a.estimates, b.estimates, overlap_warn)
    sections: List[str] = [
        f"A: {a.run_id}  ({a.created_at}, {a.command} {a.label}, "
        f"git {a.git_rev or '?'}, outcome {a.outcome})\n"
        f"B: {b.run_id}  ({b.created_at}, {b.command} {b.label}, "
        f"git {b.git_rev or '?'}, outcome {b.outcome})"
    ]
    if a.config_hash and b.config_hash and a.config_hash != b.config_hash:
        sections.append(
            f"warning: config hashes differ ({a.config_hash} vs {b.config_hash}) "
            "-- the runs executed different specs, so estimate drift may be "
            "configuration, not code"
        )
    drifted = [d.key for d in deltas if d.verdict == "drift"]
    warned = [d.key for d in deltas if d.verdict == "warn"]
    if deltas:
        table = Table(
            ["point", "A: p [95% CI]", "B: p [95% CI]", "verdict", "detail"],
            title="estimate drift (95% Wilson intervals)",
        )
        for delta in deltas:
            table.add_row(
                delta.key,
                _fmt_estimate(delta.a),
                _fmt_estimate(delta.b),
                delta.verdict.upper() if delta.verdict != "ok" else "ok",
                delta.detail,
            )
        sections.append(table.render())
        if drifted:
            sections.append(
                f"DRIFT: {len(drifted)} point(s) with disjoint 95% CIs: "
                + ", ".join(drifted)
            )
        elif warned:
            sections.append(
                f"warning: {len(warned)} point(s) with shrunken CI overlap: "
                + ", ".join(warned)
            )
        else:
            sections.append("no statistical drift detected")
    else:
        sections.append("no estimates recorded on either run -- nothing to compare")

    phase_names = sorted(
        set(a.phases) | set(b.phases),
        key=lambda name: b.phases.get(name, 0.0),
        reverse=True,
    )
    if phase_names:
        table = Table(
            ["phase", "A seconds", "B seconds", "change"],
            title="phase breakdown (A -> B)",
        )
        for name in phase_names:
            pa, pb = a.phases.get(name), b.phases.get(name)
            change = (
                f"{(pb - pa) / pa:+.1%}" if pa and pb and pa > 0 else "n/a"
            )
            table.add_row(
                name,
                round(pa, 4) if pa is not None else None,
                round(pb, 4) if pb is not None else None,
                change,
            )
        sections.append(table.render())

    headline = Table(["metric", "A", "B", "change"], title="headline")
    rows = [
        ("walltime seconds", a.walltime_seconds, b.walltime_seconds),
        ("workers", a.workers, b.workers),
        ("effective parallelism",
         a.pool.get("effective_parallelism"), b.pool.get("effective_parallelism")),
        ("IPC bytes", a.ipc.get("ipc_bytes"), b.ipc.get("ipc_bytes")),
        ("incidents", a.incidents.get("incidents"), b.incidents.get("incidents")),
        ("retries", a.incidents.get("retries"), b.incidents.get("retries")),
        ("quarantined points",
         a.incidents.get("points_quarantined"), b.incidents.get("points_quarantined")),
    ]
    any_row = False
    for name, va, vb in rows:
        if va is None and vb is None:
            continue
        any_row = True
        change = "n/a"
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)) and va:
            change = f"{(vb - va) / va:+.1%}"
        headline.add_row(name, va, vb, change)
    if any_row:
        sections.append(headline.render())
    return "\n\n".join(sections), drifted, warned


# ------------------------------------------------------------------ rendering


def render_runs_table(records: Sequence[RunRecord]) -> str:
    """The ``runs list`` table: one row per record, oldest first."""
    from repro.reporting.table import Table

    table = Table(
        ["run id", "created (UTC)", "command", "label", "points",
         "outcome", "git", "walltime"],
        title=f"run registry ({len(records)} record(s))",
    )
    for record in records:
        table.add_row(
            record.run_id,
            record.created_at,
            record.command,
            record.label or "-",
            len(record.estimates),
            record.outcome,
            record.git_rev or "?",
            f"{record.walltime_seconds:.1f}s"
            if record.walltime_seconds is not None
            else "-",
        )
    return table.render()


def render_record(record: RunRecord) -> str:
    """The ``runs show`` detail view for one record."""
    from repro.reporting.table import Table

    lines = [
        f"run {record.run_id}",
        f"  created:      {record.created_at}",
        f"  command:      {record.command} {record.label}".rstrip(),
        f"  seed:         {record.seed}",
        f"  scale:        {record.scale or '-'}",
        f"  config hash:  {record.config_hash or '-'}",
        f"  git revision: {record.git_rev or '?'}",
        f"  event schema: v{record.event_schema}" if record.event_schema else
        "  event schema: ?",
        f"  outcome:      {record.outcome} (exit {record.exit_code})",
    ]
    if record.workers is not None:
        lines.append(f"  workers:      {record.workers}")
    if record.walltime_seconds is not None:
        lines.append(f"  walltime:     {record.walltime_seconds:.2f}s")
    for name, value in sorted(record.pool.items()):
        lines.append(f"  {name}: {value}")
    if record.artifacts:
        lines.append("  artifacts:")
        for name, value in sorted(record.artifacts.items()):
            lines.append(f"    {name}: {value}")
    text = "\n".join(lines)
    sections = [text]
    if record.estimates:
        table = Table(
            ["point", "law", "trials", "successes", "p", "95% CI", "status"],
            title="headline estimates",
        )
        for estimate in record.estimates:
            interval = _interval(estimate)
            table.add_row(
                estimate.get("key", "?"),
                estimate.get("law") or "-",
                estimate.get("trials", 0),
                estimate.get("successes", "-"),
                estimate.get("p", "-"),
                f"[{interval[0]:.4g}, {interval[1]:.4g}]" if interval else "-",
                estimate.get("status", "-"),
            )
        sections.append(table.render())
    if record.phases:
        table = Table(["phase", "seconds"], title="engine phase seconds")
        for name, seconds in sorted(
            record.phases.items(), key=lambda kv: kv[1], reverse=True
        ):
            table.add_row(name, round(seconds, 4))
        sections.append(table.render())
    if record.incidents:
        sections.append(
            "incidents: "
            + ", ".join(
                f"{name}={value}" for name, value in sorted(record.incidents.items())
            )
        )
    if record.notes:
        sections.append("\n".join(f"note: {note}" for note in record.notes))
    return "\n\n".join(sections)
