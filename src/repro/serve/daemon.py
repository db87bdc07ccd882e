"""The ``repro-serve`` daemon: an asyncio estimation service.

One long-lived process answers typed hitting-probability queries at
interactive latency (ROADMAP's millions-of-users story): most traffic
is a persistent-cache hit or an instant theory surrogate; only novel
``(law, l, k, horizon)`` points pay for simulation -- and concurrent
requests for the same canonical key *coalesce* into one shared engine
call through a batching map, so a thundering herd of identical queries
costs one refinement.

Concurrency model: the event loop handles sockets and tier
resolution; each refinement job runs in a worker thread
(:func:`asyncio.to_thread`) with its own private recorder
(:mod:`repro.serve.refine`), publishing progressive responses back
through ``loop.call_soon_threadsafe``.  A new job waits
``batch_window`` seconds before starting the engine so near-
simultaneous duplicates join it (the coalescing the ``serve-smoke``
CI job asserts via the ``serve.batch_coalesced`` counter).

Telemetry (docs/observability.md): every request is wrapped in a
``query`` span on the process recorder, and the daemon maintains the
``serve.*`` counters -- requests, cache_hits, warm_hits,
theory_answers, engine_calls, batch_coalesced, responses_streamed,
errors.  SIGTERM/SIGINT stop the server gracefully: in-flight jobs
finish, their finals land in the cache, and the process exits 0.
"""

from __future__ import annotations

import asyncio
import os
import time
from pathlib import Path
from typing import AsyncIterator, Dict, List, Optional

from repro.api.query import EstimateRequest, EstimateResponse, theory_estimate
from repro.serve.cache import ResultCache
from repro.serve.protocol import Address, decode_line, encode_line
from repro.telemetry.recorder import get_recorder

#: Default unix-socket path (CLI: ``serve --socket``).
DEFAULT_SOCKET = ".repro-serve.sock"

#: Seconds a fresh refinement job waits for duplicates before starting.
DEFAULT_BATCH_WINDOW = 0.05

#: Longest accepted request line (a typed request is ~200 bytes; this
#: bound keeps a garbage client from buffering unbounded input).
_MAX_LINE = 64 * 1024


class _Job:
    """One in-flight refinement shared by every subscriber of a key."""

    def __init__(self) -> None:
        self.queues: List[asyncio.Queue] = []
        self.final: Optional[EstimateResponse] = None
        self.done = asyncio.Event()

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        self.queues.append(queue)
        return queue

    def publish(self, response: EstimateResponse) -> None:
        for queue in self.queues:
            queue.put_nowait(response)

    def finish(self, final: Optional[EstimateResponse]) -> None:
        self.final = final
        for queue in self.queues:
            queue.put_nowait(None)
        self.done.set()


class EstimationService:
    """Tier resolution + request coalescing, socket-agnostic.

    The daemon wraps it in an asyncio server; tests drive it directly.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        registry=None,
        *,
        recorder=None,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        round_walks: int = 2_000,
        max_walks: int = 200_000,
        chunks: int = 8,
        seed: Optional[int] = None,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache()
        self.registry = registry
        self._recorder = recorder
        self.batch_window = float(batch_window)
        self.round_walks = int(round_walks)
        self.max_walks = int(max_walks)
        self.chunks = int(chunks)
        self.seed = seed
        self._jobs: Dict[str, _Job] = {}
        self._started = time.monotonic()

    @property
    def recorder(self):
        return self._recorder if self._recorder is not None else get_recorder()

    @property
    def metrics(self):
        return self.recorder.metrics

    def warm_start(self) -> int:
        """Import the run registry's estimates into the cache (see ROADMAP:
        prior sweeps answer future queries without re-simulating)."""
        if self.registry is None:
            return 0
        imported = self.cache.warm_start(self.registry)
        if imported:
            self.metrics.gauge("serve.warm_entries").set(imported)
        return imported

    # -------------------------------------------------------- tier resolution

    async def estimate(
        self, request: EstimateRequest
    ) -> AsyncIterator[EstimateResponse]:
        """Answer one request as a (possibly progressive) response stream.

        Yields: a single final cache-tier response on a hit; otherwise
        a theory surrogate first, then -- when the request asks for a
        real CI -- progressive simulation responses off the shared
        refinement job, ending with the final one.
        """
        metrics = self.metrics
        metrics.counter("serve.requests").add()
        key = request.key

        cached = self.cache.get(key, max_ci=request.max_ci)
        if cached is not None:
            metrics.counter("serve.cache_hits").add()
            yield _as_tier(cached, "cache")
            return

        if self.registry is not None:
            warm = self._registry_lookup(request)
            if warm is not None:
                metrics.counter("serve.warm_hits").add()
                self.cache.put(warm)
                yield warm
                return

        surrogate = theory_estimate(request)
        metrics.counter("serve.theory_answers").add()
        yield surrogate
        if request.max_ci is None:
            return

        job = self._jobs.get(key)
        if job is not None:
            metrics.counter("serve.batch_coalesced").add()
        else:
            job = _Job()
            self._jobs[key] = job
            asyncio.get_running_loop().create_task(self._run_job(key, request, job))
        queue = job.subscribe()
        while True:
            update = await queue.get()
            if update is None:
                break
            metrics.counter("serve.responses_streamed").add()
            yield update
        if job.final is not None:
            yield job.final

    def _registry_lookup(self, request: EstimateRequest) -> Optional[EstimateResponse]:
        from repro.api.query import response_from_registry_estimate

        record = self.registry.lookup(
            law=request.law, geometry=request.geometry, max_ci=request.max_ci
        )
        if record is None:
            return None
        for row in record.estimates:
            if row.get("law") != request.law:
                continue
            params = row.get("params") or {}
            if any(params.get(k) != v for k, v in request.geometry.items()):
                continue
            response = response_from_registry_estimate(row, request, record.run_id)
            if response is not None and (
                request.max_ci is None or response.half_width <= request.max_ci
            ):
                return response
        return None

    # ------------------------------------------------------------ refinement

    async def _run_job(self, key: str, request: EstimateRequest, job: _Job) -> None:
        from repro.serve.refine import refine_estimate

        loop = asyncio.get_running_loop()
        try:
            # The coalescing window: duplicates arriving now share this job.
            if self.batch_window > 0:
                await asyncio.sleep(self.batch_window)
            self.metrics.counter("serve.engine_calls").add()

            def _publish(response: EstimateResponse) -> None:
                loop.call_soon_threadsafe(job.publish, response)

            final = await asyncio.to_thread(
                refine_estimate,
                request,
                _publish,
                seed=self.seed,
                round_walks=self.round_walks,
                max_walks=self.max_walks,
                chunks=self.chunks,
            )
            self.cache.put(final)
        except Exception:
            self.metrics.counter("serve.errors").add()
            final = None
        finally:
            self._jobs.pop(key, None)
            job.finish(final)

    # ----------------------------------------------------------------- stats

    def stats(self) -> Dict:
        """The ``stats`` op payload: counters, cache size, uptime."""
        counters = {}
        for name, snap in self.metrics.snapshot().items():
            if not name.startswith("serve."):
                continue
            if snap.get("type") == "histogram":
                # Summarize: the full bucket layout stays in metrics.json.
                total = snap.get("total") or 0
                counters[name] = {
                    "total": total,
                    "mean": (snap.get("sum") / total) if total else None,
                    "max": snap.get("max"),
                }
            else:
                counters[name] = snap.get("value")
        return {
            "ok": True,
            "op": "stats",
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "cache_entries": len(self.cache),
            "inflight_jobs": len(self._jobs),
            "counters": counters,
        }


def _as_tier(response: EstimateResponse, tier: str) -> EstimateResponse:
    from dataclasses import replace

    if response.tier == tier:
        return response
    return replace(response, tier=tier)


# ------------------------------------------------------------------ the server


async def _handle_connection(
    service: EstimationService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    stop: asyncio.Event,
) -> None:
    recorder = service.recorder
    try:
        while True:
            try:
                line = await reader.readline()
            except (ConnectionResetError, asyncio.LimitOverrunError):
                break
            if not line:
                break
            if not line.strip():
                continue
            try:
                payload = decode_line(line)
            except ValueError as exc:
                service.metrics.counter("serve.errors").add()
                writer.write(encode_line({"ok": False, "error": str(exc)}))
                await writer.drain()
                continue
            op = payload.get("op", "estimate")
            if op == "ping":
                writer.write(encode_line({"ok": True, "op": "ping"}))
            elif op == "stats":
                writer.write(encode_line(service.stats()))
            elif op == "shutdown":
                writer.write(encode_line({"ok": True, "op": "shutdown"}))
                await writer.drain()
                stop.set()
                break
            elif op == "estimate":
                await _handle_estimate(service, recorder, payload, writer)
            else:
                service.metrics.counter("serve.errors").add()
                writer.write(
                    encode_line({"ok": False, "error": f"unknown op {op!r}"})
                )
            await writer.drain()
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (OSError, ConnectionResetError):
            pass


async def _handle_estimate(
    service: EstimationService, recorder, payload: Dict, writer: asyncio.StreamWriter
) -> None:
    stream = bool(payload.get("stream", True))
    try:
        request = EstimateRequest.from_dict(payload)
    except (ValueError, TypeError) as exc:
        service.metrics.counter("serve.errors").add()
        writer.write(encode_line({"ok": False, "error": str(exc)}))
        return
    started = time.monotonic()
    recorder.event("query", key=request.key, max_ci=request.max_ci)
    last: Optional[EstimateResponse] = None
    async for response in service.estimate(request):
        last = response
        if stream or response.final:
            writer.write(encode_line({"ok": True, **response.to_dict()}))
            await writer.drain()
    seconds = time.monotonic() - started
    service.metrics.histogram("serve.query_seconds").observe(seconds)
    recorder.event(
        "query_end",
        key=request.key,
        tier=last.tier if last is not None else None,
        seconds=round(seconds, 6),
    )


async def serve_forever(address: Address, service: EstimationService) -> None:
    """Run the daemon until SIGTERM/SIGINT or a ``shutdown`` op.

    ``address`` is a unix-socket path or a ``(host, port)`` pair.  The
    unix socket is bound and put into listening state under a temporary
    name and only then renamed to ``address`` (replacing a stale socket
    from a dead daemon), so a client that sees the path can connect.
    The socket is removed on the way out; pending connections finish
    their current response line.
    """
    import contextlib
    import signal

    stop = asyncio.Event()

    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):
            pass

    async def handler(reader, writer):
        await _handle_connection(service, reader, writer, stop)

    unix_path: Optional[Path] = None
    if isinstance(address, Path):
        unix_path = address
        # asyncio creates the socket file at bind(), before listen().
        staging = unix_path.with_name(f".{unix_path.name}.tmp")
        with contextlib.suppress(FileNotFoundError):
            staging.unlink()
        server = await asyncio.start_unix_server(handler, path=str(staging), limit=_MAX_LINE)
        os.replace(staging, unix_path)  # also replaces a dead daemon's socket
    else:
        host, port = address
        server = await asyncio.start_server(handler, host=host, port=port, limit=_MAX_LINE)

    service.recorder.event(
        "serve_start",
        address=str(address),
        cache_entries=len(service.cache),
    )
    try:
        async with server:
            await stop.wait()
    finally:
        for signum in installed:
            with contextlib.suppress(ValueError, RuntimeError):
                loop.remove_signal_handler(signum)
        if unix_path is not None:
            with contextlib.suppress(OSError):
                unix_path.unlink()
        service.recorder.event("serve_end", address=str(address))
