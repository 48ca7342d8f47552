"""Process control, reference digests and the load generator."""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time

import common

WORKER = os.path.join(common.HERE, "worker.py")

#: Bound on any single wait for a child's reply.
REPLY_TIMEOUT = 150.0


class ChildError(RuntimeError):
    """A child process died or did not answer in time."""


class Child:
    """One worker process and its line protocol (see ``worker.py``).

    ``started`` is taken just before the process is created, so
    ``ready_at - started`` is the set-up time from process start.
    """

    def __init__(self, mode: str, *args: str, env: dict | None = None,
                 timeout: float = REPLY_TIMEOUT) -> None:
        os.makedirs(common.RUN_DIR, exist_ok=True)
        log = os.path.join(common.RUN_DIR, f"{mode}.log")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, mode, "--log", log, *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env or common.child_env(), cwd=common.ROOT)
        self._buffer = b""
        try:
            self.ready = self.read(timeout)
        except BaseException:
            self.kill()
            raise
        self.ready_at = time.perf_counter()

    def read(self, timeout: float = REPLY_TIMEOUT) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildError(f"no reply within {timeout:.0f}s")
            readable, __, __ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise ChildError(
                    f"child exited (code {self.proc.poll()}); see "
                    f"{common.RUN_DIR}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def request(self, doc: dict, timeout: float = REPLY_TIMEOUT) -> dict:
        self.proc.stdin.write(json.dumps(doc).encode() + b"\n")
        self.proc.stdin.flush()
        return self.read(timeout)

    def close(self, doc: dict | None = None, timeout: float = 60.0):
        """Send ``doc`` (if any), close stdin and wait for exit."""
        reply = None
        try:
            if doc is not None and self.proc.poll() is None:
                reply = self.request(doc, timeout)
            self.proc.stdin.close()
            self.proc.wait(timeout)
        except (ChildError, OSError, subprocess.TimeoutExpired):
            self.kill()
        return reply

    def kill(self) -> None:
        """SIGKILL and reap (a crash, as far as the child can tell)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def references(workload: str, seed: int) -> dict:
    """Reference digests of ``workload`` at ``seed``.

    The default seed's digests are committed; any other seed's are
    computed once on the reference path (scalar kernels, paper-faithful
    options) in a child process and cached under the run directory.
    """
    path = common.reference_path(workload, seed)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)["digests"]
    child = Child("oracle", "--workload", workload, "--seed", str(seed),
                  env=common.child_env(REPRO_SCALAR_KERNELS="1"),
                  timeout=170.0)
    child.close()
    digests = child.ready["digests"]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "digest_digits": common.DIGEST_DIGITS,
                   "digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return digests


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------

def optimize_body(query_doc: dict, **fields) -> bytes:
    payload = {"tenant": "perfbench", "query": query_doc, "stream": False}
    payload.update(fields)
    return json.dumps(payload).encode()


def post(port: int, body: bytes, timeout: float = 120.0
         ) -> tuple[int, bytes]:
    """One ``POST /v1/optimize``; returns ``(status, raw body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", "/v1/optimize", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def stream(port: int, body: bytes, timeout: float = 120.0):
    """One streamed ``POST /v1/optimize``; yields each NDJSON event.

    Lines are read as they arrive, so the caller can time each event.
    Raises :class:`ConnectionError` when the stream ends without a
    ``done`` line or the connection breaks.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", "/v1/optimize", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        if response.status != 200:
            raise ConnectionError(f"http {response.status}")
        while True:
            line = response.readline()
            if not line:
                raise ConnectionError("stream ended without a done line")
            if line.strip():
                event = json.loads(line)
                yield event
                if event.get("kind") == "done":
                    return
    except http.client.HTTPException as exc:
        raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc
    finally:
        conn.close()


def get_metrics(port: int) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request("GET", "/metrics")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


class ResponseChecker:
    """Checks response bodies against reference digests.

    Identical bodies are checked once: the body's own hash is memoized,
    so the load generator spends microseconds per repeated hit instead
    of re-canonicalizing the plan set.
    """

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self._seen: dict[tuple, tuple[bool, str]] = {}
        self._lock = threading.Lock()

    def check(self, qid: str, raw: bytes) -> tuple[bool, str]:
        """``(matches, status)`` of one non-streamed response body."""
        import hashlib
        key = (qid, hashlib.sha1(raw).digest())
        with self._lock:
            known = self._seen.get(key)
        if known is not None:
            return known
        doc = json.loads(raw)
        status = doc.get("status", "?")
        plan_set = doc.get("plan_set")
        ok = (plan_set is not None
              and common.plan_set_digest(plan_set) == self.reference[qid])
        with self._lock:
            self._seen[key] = (ok, status)
        return ok, status


# ----------------------------------------------------------------------
# Open-loop load generator
# ----------------------------------------------------------------------

class Outcome:
    """One request: due/sent/done clock readings and how it ended."""

    __slots__ = ("qid", "due", "sent", "done", "ok", "wrong", "error")

    def __init__(self, qid: str, due: float) -> None:
        self.qid = qid
        self.due = due
        self.sent = self.done = 0.0
        self.ok = False
        self.wrong = False
        self.error = ""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


def open_loop(port: int, schedule: list[tuple[float, str, bytes]],
              checker: ResponseChecker, *, threads: int = 2,
              expect_status: str = "cached") -> list[Outcome]:
    """Send ``(offset_s, qid, body)`` requests at fixed due times.

    Requests go out from ``threads`` threads, one connection each, in
    schedule order.  When both are busy the next request waits, and
    that wait counts in its latency: latency runs from the due time,
    not from the send.
    """
    outcomes = [None] * len(schedule)
    cursor = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(schedule):
                return
            offset, qid, body = schedule[index]
            outcome = Outcome(qid, start + offset)
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome.sent = time.perf_counter()
            try:
                status, raw = post(port, body, timeout=60.0)
            except (OSError, http.client.HTTPException) as exc:
                outcome.done = time.perf_counter()
                outcome.error = f"transport:{type(exc).__name__}"
                outcomes[index] = outcome
                continue
            outcome.done = time.perf_counter()
            if status != 200:
                outcome.error = f"http:{status}"
            else:
                matches, served = checker.check(qid, raw)
                outcome.wrong = not matches
                if served != expect_status:
                    outcome.error = f"status:{served}"
                outcome.ok = not outcome.error
            outcomes[index] = outcome

    workers = [threading.Thread(target=sender, daemon=True)
               for __ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return outcomes


def closed_loop(port: int, sequence: list[tuple[str, bytes]],
                checker: ResponseChecker, seconds: float, *,
                threads: int = 2, expect_status: str = "cached"
                ) -> tuple[list[Outcome], float]:
    """Send ``sequence`` back to back from ``threads`` connections.

    Each connection sends its next request as soon as the previous one
    is answered, for ``seconds``.  Returns the outcomes and the elapsed
    time up to the last completion.
    """
    outcomes: list[Outcome] = []
    cursor = [0]
    lock = threading.Lock()
    start = time.perf_counter()
    stop = start + seconds

    def sender() -> None:
        while time.perf_counter() < stop:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            qid, body = sequence[index % len(sequence)]
            outcome = Outcome(qid, time.perf_counter())
            outcome.sent = outcome.due
            try:
                status, raw = post(port, body, timeout=60.0)
            except (OSError, http.client.HTTPException) as exc:
                outcome.error = f"transport:{type(exc).__name__}"
                status, raw = 0, b""
            outcome.done = time.perf_counter()
            if status == 200:
                matches, served = checker.check(qid, raw)
                outcome.wrong = not matches
                if served != expect_status:
                    outcome.error = f"status:{served}"
                outcome.ok = not outcome.error
            elif not outcome.error:
                outcome.error = f"http:{status}"
            with lock:
                outcomes.append(outcome)

    workers = [threading.Thread(target=sender, daemon=True)
               for __ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = max(o.done for o in outcomes) - start
    return outcomes, elapsed
