"""Tiny urllib client for the fleet HTTP API (submit / poll / fetch / cancel).

Used by ``repro fleet submit`` and the service tests; deliberately dumb —
one function per API verb, JSON in, JSON (or CSV text) out, errors surfaced
as :class:`FleetClientError` with the server's message attached.

Transient failures are retried with the same deterministic jittered backoff
the campaign runner uses (:class:`repro.runtime.RetryPolicy`, re-exported as
``repro.faults.RetryPolicy``):

- connection refused / reset / remote hangup — the service is restarting or
  not up yet; the request never reached a handler, so a retry is safe for
  every verb;
- HTTP 429 (admission queue full) and 503 (draining for shutdown) — the
  server explicitly asked for a retry; ``Retry-After`` is honored as a
  *floor* under the backoff delay.

Any other HTTP error is a real answer and raises immediately.  Pass
``retry=None`` to observe the first failure (the queue-bound tests do).
:func:`wait_for_job` stacks a polling deadline on top, so a waiter survives
a service restart window longer than one request's retry budget.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from typing import Any

from repro.runtime import RetryPolicy

#: Job states after which polling stops.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: HTTP statuses that are an explicit "try again later" from the service.
RETRYABLE_STATUS = frozenset({429, 503})

#: Default request-level policy: ~5 quick attempts spanning a couple of
#: seconds — enough to ride out a service restart's bind window without
#: turning a genuinely-down service into a long hang.
DEFAULT_RETRY = RetryPolicy(
    max_attempts=5, backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=2.0
)


class FleetClientError(RuntimeError):
    """An HTTP call to the fleet service failed; the message says why."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


def _retry_after_s(exc: urllib.error.HTTPError) -> float:
    try:
        return float(exc.headers.get("Retry-After", "0"))
    except (TypeError, ValueError):
        return 0.0


def _request(
    url: str,
    data: bytes | None = None,
    timeout_s: float = 30.0,
    method: str | None = None,
    retry: RetryPolicy | None = DEFAULT_RETRY,
) -> str:
    """One HTTP exchange with transient-failure retries; returns the body."""
    verb = method if method is not None else ("POST" if data is not None else "GET")
    try:
        request = urllib.request.Request(
            url,
            data=data,
            headers={"Content-Type": "application/json"} if data is not None else {},
            method=verb,
        )
    except ValueError as exc:  # e.g. a --url missing the http:// scheme
        raise FleetClientError(f"bad service URL {url!r}: {exc}") from None
    attempts = retry.max_attempts if retry is not None else 1
    attempt = 0
    while True:
        attempt += 1
        try:
            with urllib.request.urlopen(request, timeout=timeout_s) as response:
                return response.read().decode()
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode(errors="replace").strip()
            try:
                detail = json.loads(detail).get("error", detail)
            except (json.JSONDecodeError, AttributeError):
                pass
            if exc.code in RETRYABLE_STATUS and attempt < attempts:
                assert retry is not None
                delay = max(
                    retry.backoff_s(attempt, key=url), _retry_after_s(exc)
                )
                time.sleep(delay)
                continue
            raise FleetClientError(
                f"{url}: HTTP {exc.code}: {detail}", status=exc.code
            ) from None
        except (
            urllib.error.URLError,
            ConnectionError,
            http.client.HTTPException,
            TimeoutError,
        ) as exc:
            reason = getattr(exc, "reason", exc)
            # GET/DELETE are idempotent and retry on any connection-level
            # failure.  A POST is only retried when the connection was
            # *refused* — nothing was listening, so the submit cannot have
            # been journaled; a reset mid-exchange is ambiguous (the job may
            # already be admitted) and must surface to the caller instead of
            # risking a double submit.
            refused = isinstance(reason, ConnectionRefusedError) or isinstance(
                exc, ConnectionRefusedError
            )
            if attempt < attempts and (verb != "POST" or refused):
                assert retry is not None
                time.sleep(retry.backoff_s(attempt, key=url))
                continue
            raise FleetClientError(f"{url}: {reason}") from None


def get_json(
    base_url: str,
    path: str,
    timeout_s: float = 30.0,
    retry: RetryPolicy | None = DEFAULT_RETRY,
) -> Any:
    return json.loads(
        _request(base_url.rstrip("/") + path, timeout_s=timeout_s, retry=retry)
    )


def submit_job(
    base_url: str,
    document: dict[str, Any],
    timeout_s: float = 30.0,
    retry: RetryPolicy | None = DEFAULT_RETRY,
) -> str:
    """POST a submit body; returns the new job id.

    A 429 (queue full) is retried under ``retry`` honoring ``Retry-After``;
    once the POST has been accepted the job id is durable server-side (the
    journal fsyncs before the 202), so the caller never double-submits by
    retrying a *rejected* request.
    """
    body = json.dumps(document).encode()
    reply = json.loads(
        _request(
            base_url.rstrip("/") + "/jobs", data=body, timeout_s=timeout_s, retry=retry
        )
    )
    return reply["job"]


def cancel_job(
    base_url: str,
    job_id: str,
    timeout_s: float = 30.0,
    retry: RetryPolicy | None = DEFAULT_RETRY,
) -> dict[str, Any]:
    """``DELETE /jobs/<id>``; returns the server's ``{"job", "status"}``."""
    return json.loads(
        _request(
            base_url.rstrip("/") + f"/jobs/{job_id}",
            timeout_s=timeout_s,
            method="DELETE",
            retry=retry,
        )
    )


def wait_for_job(
    base_url: str,
    job_id: str,
    timeout_s: float = 300.0,
    poll_s: float = 0.2,
) -> dict[str, Any]:
    """Poll ``GET /jobs/<id>`` until the job reaches a terminal state.

    Survives a service restart window: connection-level failures inside the
    deadline are treated as "the service is coming back" and polling simply
    continues — after a crash-restart the journal has the job again before
    the port answers, so the first successful poll picks up where the dead
    service left off.  A 404 is *not* forgiven: the journal fsyncs at
    admission, so an unknown id means the job really never existed.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            status = get_json(base_url, f"/jobs/{job_id}")
        except FleetClientError as exc:
            if exc.status is not None:
                raise  # a real HTTP answer (404, 500, ...) — not a blip
            if time.monotonic() >= deadline:
                raise FleetClientError(
                    f"job {job_id}: service unreachable through the "
                    f"{timeout_s:.0f}s deadline ({exc})"
                ) from None
            time.sleep(poll_s)
            continue
        if status["status"] in TERMINAL_STATES:
            return status
        if time.monotonic() >= deadline:
            raise FleetClientError(
                f"job {job_id} still {status['status']} after {timeout_s:.0f}s"
            )
        time.sleep(poll_s)


def fetch_results(base_url: str, job_id: str, timeout_s: float = 30.0) -> str:
    """The merged results.csv text of a finished job."""
    return _request(
        base_url.rstrip("/") + f"/jobs/{job_id}/results.csv", timeout_s=timeout_s
    )
