"""A minimal blocking client for the serving gateway.

Wraps ``http.client`` (stdlib) so tests, benchmarks and examples can
talk to a gateway without hand-writing HTTP.  One connection per call
— the gateway closes connections after every response anyway — which
also makes the client trivially thread-safe for load generators.

Resilience: :meth:`GatewayClient.optimize` retries transport errors
and retryable statuses (429/500/503) up to ``retries`` times with
capped exponential backoff and *deterministic* jitter (a CRC32 of the
endpoint and attempt number — no entropy, so chaos runs replay
exactly), honoring ``Retry-After`` when the gateway sends one.  A
mid-stream connection loss in :meth:`GatewayClient.stream_optimize`
raises :class:`StreamInterrupted` carrying the last event seen, so a
caller can resume with full knowledge of where the stream cut out.
"""

from __future__ import annotations

import http.client
import json
import time
import zlib
from dataclasses import dataclass
from collections.abc import Iterator

from ..query import Query
from .protocol import query_to_doc

#: HTTP statuses :meth:`GatewayClient.optimize` retries: overload
#: backpressure (429), transient server failure (500) and drain/stop
#: shedding (503).  400-class contract errors are never retried.
RETRYABLE_STATUSES = (429, 500, 503)


class StreamInterrupted(ConnectionError):
    """A stream died before its ``done`` line.

    Raised by :meth:`GatewayClient.stream_optimize` when the connection
    resets (or hits EOF) mid-stream — e.g. a gateway stopping, or an
    injected ``serve.stream.disconnect`` fault.

    Attributes:
        last_event: The last NDJSON document yielded before the cut
            (``None`` when the stream died before its first line).
        events_seen: How many documents were yielded before the cut.
    """

    def __init__(self, message: str, last_event: dict | None,
                 events_seen: int) -> None:
        super().__init__(message)
        self.last_event = last_event
        self.events_seen = events_seen


@dataclass(frozen=True)
class GatewayResponse:
    """One non-streaming gateway response.

    Attributes:
        status_code: HTTP status.
        doc: Parsed JSON body.
        headers: Response headers (lower-cased names).
    """

    status_code: int
    doc: dict
    headers: dict

    @property
    def ok(self) -> bool:
        return self.status_code == 200

    @property
    def retry_after(self) -> float | None:
        """Parsed ``Retry-After`` of a 429, else ``None``."""
        value = self.headers.get("retry-after")
        return float(value) if value is not None else None


class GatewayClient:
    """Blocking JSON client for one gateway address.

    Args:
        host: Gateway host.
        port: Gateway port.
        timeout: Socket timeout per request (streaming reads inherit
            it per line, not per stream).
        retries: Extra :meth:`optimize` attempts after a transport
            error or a retryable status (:data:`RETRYABLE_STATUSES`).
            The default 0 preserves the historical single-shot
            behavior.
        backoff_base: First retry delay (seconds); attempt ``n`` waits
            ``min(backoff_cap, backoff_base * 2**n)`` plus
            deterministic jitter, or the gateway's ``Retry-After`` if
            that is larger.
        backoff_cap: Upper bound on any single retry delay.
    """

    def __init__(self, host: str, port: int,
                 timeout: float = 60.0, *, retries: int = 0,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap

    # -- plumbing ------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: bytes | None = None) -> GatewayResponse:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            headers = {"Content-Type": "application/json"} if body \
                else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            doc = json.loads(data) if data else {}
            return GatewayResponse(
                status_code=response.status, doc=doc,
                headers={k.lower(): v
                         for k, v in response.getheaders()})
        finally:
            conn.close()

    def _backoff(self, attempt: int,
                 retry_after: float | None) -> float:
        """Delay before retry ``attempt`` (0-based), deterministic.

        Capped exponential backoff plus jitter derived from a CRC32 of
        the endpoint and attempt number — spread like random jitter,
        but bit-identical across runs, which is what lets the chaos
        benchmark gate retried results exactly.  A gateway-supplied
        ``Retry-After`` is honored as a floor.
        """
        delay = min(self.backoff_cap,
                    self.backoff_base * (2.0 ** attempt))
        seed = f"{self.host}:{self.port}:{attempt}".encode()
        delay += (zlib.crc32(seed) % 997) / 997.0 * self.backoff_base
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay

    @staticmethod
    def _body(query: Query | None, doc: dict | None, tenant: str,
              scenario: str | None, precision: float | None,
              budget: dict | None, deadline_seconds: float | None,
              stream: bool) -> bytes:
        if (query is None) == (doc is None):
            raise ValueError("pass exactly one of query= or doc=")
        payload = {"tenant": tenant,
                   "query": doc if doc is not None
                   else query_to_doc(query),
                   "stream": stream}
        if scenario is not None:
            payload["scenario"] = scenario
        if precision is not None:
            payload["precision"] = precision
        if budget is not None:
            payload["budget"] = budget
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        return json.dumps(payload).encode()

    # -- endpoints -----------------------------------------------------

    def optimize(self, query: Query | None = None, *,
                 doc: dict | None = None, tenant: str = "default",
                 scenario: str | None = None,
                 precision: float | None = None,
                 budget: dict | None = None,
                 deadline_seconds: float | None = None
                 ) -> GatewayResponse:
        """``POST /v1/optimize`` (non-streaming).

        Accepts either a :class:`~repro.query.Query` (encoded for you)
        or a ready-made query document via ``doc=``.  With
        ``retries > 0``, transport errors and retryable statuses
        (:data:`RETRYABLE_STATUSES`) are retried with deterministic
        backoff; the last response (or transport error, if every
        attempt died on the wire) wins.
        """
        body = self._body(query, doc, tenant, scenario, precision,
                          budget, deadline_seconds, stream=False)
        last_response: GatewayResponse | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                retry_after = (last_response.retry_after
                               if last_response is not None else None)
                time.sleep(self._backoff(attempt - 1, retry_after))
            try:
                last_response = self._request("POST", "/v1/optimize",
                                              body)
            except (http.client.HTTPException, ConnectionError,
                    OSError):
                if attempt == self.retries:
                    raise
                last_response = None
                continue
            if last_response.status_code not in RETRYABLE_STATUSES:
                return last_response
        assert last_response is not None
        return last_response

    def stream_optimize(self, query: Query | None = None, *,
                        doc: dict | None = None,
                        tenant: str = "default",
                        scenario: str | None = None,
                        precision: float | None = None,
                        budget: dict | None = None,
                        deadline_seconds: float | None = None
                        ) -> Iterator[dict]:
        """``POST /v1/optimize`` with ``stream=true``.

        Yields one dict per NDJSON line as the gateway emits them; the
        last line is always ``{"kind": "done", ...}``.  Non-200
        responses yield a single synthesized
        ``{"kind": "error", "http_status": ..., ...}`` line instead.

        Raises:
            StreamInterrupted: When the connection resets — or hits
                EOF without a ``done`` line — mid-stream.  The
                exception carries the last event yielded, so the
                caller knows exactly where the stream cut out before
                retrying.
        """
        body = self._body(query, doc, tenant, scenario, precision,
                          budget, deadline_seconds, stream=True)
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        last_event: dict | None = None
        events_seen = 0
        saw_done = False
        try:
            try:
                conn.request("POST", "/v1/optimize", body=body,
                             headers={"Content-Type":
                                      "application/json"})
                response = conn.getresponse()
                if response.status != 200:
                    doc_out = json.loads(response.read() or b"{}")
                    doc_out.update(kind="error",
                                   http_status=response.status)
                    yield doc_out
                    return
                # One line at a time, so each event reaches the caller
                # as soon as its line arrives.
                for line in iter(response.readline, b""):
                    if not line.strip():
                        continue
                    event = json.loads(line)
                    if event.get("kind") == "done":
                        saw_done = True
                    yield event
                    last_event = event
                    events_seen += 1
            except (http.client.HTTPException, ConnectionError,
                    OSError) as exc:
                raise StreamInterrupted(
                    f"stream cut after {events_seen} events: "
                    f"{type(exc).__name__}: {exc}",
                    last_event, events_seen) from exc
            if not saw_done:
                # Clean EOF without the terminal line: the gateway was
                # stopped (or the socket was reset without an error
                # surfacing locally) — same contract as a hard cut.
                raise StreamInterrupted(
                    f"stream ended without a done line after "
                    f"{events_seen} events", last_event, events_seen)
        finally:
            conn.close()

    def metrics(self) -> dict:
        """``GET /metrics``."""
        return self._request("GET", "/metrics").doc

    def health(self) -> dict:
        """``GET /healthz``."""
        return self._request("GET", "/healthz").doc
