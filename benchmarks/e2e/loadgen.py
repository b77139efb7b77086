"""The load generator: a closed loop of HTTP clients, and readers of a
process tree's CPU time and memory.

Closed loop because a dashboard tab waits for its chart before the
next click: each client sends its next request only after the previous
response was read to the last byte, so a slower server receives less
load instead of a growing queue.  One ``HTTPConnection`` per request —
the server speaks HTTP/1.0 and closes after each response, and that
cost is the system's, so it is inside the timed region.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from truth import rows_of_response

__all__ = [
    "PassResult",
    "percentile",
    "run_pass",
    "send",
    "tree_cpu_seconds",
    "tree_peak_rss_mb",
]

Request = tuple[str, str, bytes]
Rows = Mapping[tuple, int]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` of the sample at or below it (``q`` in (0, 1])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class PassResult:
    """One pass over the request list."""

    latencies: list[float] = field(default_factory=list)
    #: ``time.perf_counter()`` at which each of those requests was sent.
    started: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    #: user+sys seconds the serving process tree spent meanwhile.
    cpu_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    verified: int = 0
    refused: int = 0
    #: First few failures, for the operator.
    failures: list[str] = field(default_factory=list)

    def absorb(self, other: "PassResult") -> None:
        """Add another client's (or chunk's) requests to this result."""
        self.latencies.extend(other.latencies)
        self.started.extend(other.started)
        self.elapsed += other.elapsed
        self.cpu_seconds += other.cpu_seconds
        self.attempted += other.attempted
        self.failed += other.failed
        self.verified += other.verified
        self.refused += other.refused
        self.failures.extend(other.failures[: 5 - len(self.failures)])


def _check(
    request: Request, status: int, body: bytes, expected: Rows | None
) -> tuple[str | None, bool]:
    """(why the response counts as failed or None, whether rows were verified)."""
    if status != 200:
        return f"{request[1]} answered {status}: {body[:120]!r}", False
    try:
        document = json.loads(body)
    except ValueError as exc:
        return f"{request[1]} answered unparseable JSON: {exc}", False
    if request[0] == "GET":
        if not isinstance(document.get("samples"), list):
            return f"{request[1]} answered no samples list", False
        return None, False
    if document.get("partial") is not False:
        return f"partial answer to {request[2]!r}", False
    if expected is None:
        return None, False
    if rows_of_response(document) != expected:
        return f"rows differ from ground truth for {request[2]!r}", True
    return None, True


def send(address: tuple[str, int], request: Request) -> tuple[int, bytes, float, float]:
    """One request on a connection of its own: (status, body, seconds,
    ``time.perf_counter()`` when it was sent).

    Timed from before connect to the last body byte; a transport error
    reports status 0.
    """
    method, path, payload = request
    started = time.perf_counter()
    try:
        connection = http.client.HTTPConnection(*address, timeout=120)
        try:
            connection.request(
                method,
                path,
                body=payload if method == "POST" else None,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = response.read()
            status = response.status
        finally:
            connection.close()
    except (OSError, http.client.HTTPException) as exc:
        status, body = 0, repr(exc).encode()
    return status, body, time.perf_counter() - started, started


def run_pass(
    address: tuple[str, int],
    requests: Sequence[Request],
    clients: int,
    truth: Mapping[int, Rows],
    until: Callable[[], bool] | None = None,
    gate: threading.Event | None = None,
) -> PassResult:
    """Replay ``requests`` once over ``clients`` closed-loop clients.

    With ``until`` the list is cycled instead, until ``until()`` turns
    true (the ingest workload: read for as long as the writer runs),
    and a client sends its next request only while ``gate`` is set.
    ``truth`` maps positions in ``requests`` to expected rows; every
    response is checked, and every response to those positions compared
    with them — after the clock has stopped.  Checked as they arrived,
    the 10 kB answers of the memoized workload cost the two clients
    (one interpreter lock between them) three times what sending the
    requests did, and the server waited for its load generator.
    """
    total = len(requests)
    turns = itertools.count()
    #: (position, status, body, seconds, sent at) of every response.
    answers: list[tuple[int, int, bytes, float, float]] = []

    def client() -> None:
        while True:
            if gate is not None:
                gate.wait()
            turn = next(turns)
            if until is None:
                if turn >= total:
                    break
            elif until():
                break
            position = turn % total
            answers.append((position, *send(address, requests[position])))

    threads = [
        # Daemons: a run that gives up must not wait for its clients.
        threading.Thread(target=client, name=f"e2e-client-{i}", daemon=True)
        for i in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result = PassResult(elapsed=time.perf_counter() - started)
    # An answer's bytes up to its wall-clock ``stats`` repeat when the
    # same request is answered the same: such an answer gets the verdict
    # of the first one (the memoized list holds 32 distinct requests).
    verdicts: dict[tuple[Request, bytes], tuple[str | None, bool]] = {}
    for position, status, body, seconds, started_at in answers:
        result.latencies.append(seconds)
        result.started.append(started_at)
        result.attempted += 1
        answer = (requests[position], body.partition(b'"stats"')[0])
        if status != 200 or answer not in verdicts:
            verdicts[answer] = _check(requests[position], status, body, truth.get(position))
        why, verified = verdicts[answer]
        result.verified += verified
        if status in (429, 503):
            result.refused += 1
        if why is not None:
            result.failed += 1
            if len(result.failures) < 5:
                result.failures.append(why)
    return result


def tree_cpu_seconds(pids: Sequence[int]) -> float:
    """user+sys CPU seconds consumed so far by ``pids``, threads that
    have exited included.

    Read from each process's CPU-time clock (the id ``clock_getcpuclockid``
    returns: ``~pid << 3 | CPUCLOCK_SCHED``), which counts nanoseconds;
    ``/proc/<pid>/stat`` counts 10 ms ticks, a fifth of what a short
    segment of requests costs.
    """
    return sum(time.clock_gettime((~pid << 3) | 2) for pid in pids)


def tree_peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the peak resident sets (``VmHWM``, the value ``ru_maxrss``
    reports) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
