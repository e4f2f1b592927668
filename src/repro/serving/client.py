"""Thin blocking HTTP client for the serving layer.

One persistent (keep-alive) connection per :class:`ServingClient`, built
on :mod:`http.client` -- no third-party HTTP stack.  Tests, examples,
and the load benchmark all speak to the server through this class, so
the wire format has exactly one encoder/decoder pair on each side
(:mod:`repro.serving.protocol`).

Error contract: any non-2xx response raises :class:`ServingError`
carrying the HTTP status, the server's machine-readable ``error`` code,
and -- for 503 backpressure/draining responses -- the parsed
``Retry-After`` seconds, so callers can implement retry loops without
scraping message strings.
"""

from __future__ import annotations

import http.client
import socket
from typing import Any, Sequence
from urllib.parse import quote, urlencode

import numpy as np

from repro.serving.protocol import (
    CONTENT_TYPE_COLUMNAR,
    IngestSummary,
    decode_summary,
    encode_grid,
    parse_json,
)

__all__ = ["ServingClient", "ServingError"]


class ServingError(RuntimeError):
    """A non-2xx reply from the serving layer."""

    def __init__(
        self,
        status: int,
        code: str,
        detail: str,
        retry_after: float | None = None,
    ):
        super().__init__(f"HTTP {status} [{code}]: {detail}")
        self.status = status
        self.code = code
        self.detail = detail
        self.retry_after = retry_after

    @property
    def retriable(self) -> bool:
        """True for backpressure/draining rejections worth retrying."""
        return self.status == 503


class ServingClient:
    """Blocking client over one keep-alive connection.

    Not thread-safe (``http.client`` connections are not); concurrent
    load uses one client per thread.  Usable as a context manager.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._connection: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------ plumbing

    def _request(
        self,
        method: str,
        path: str,
        query: dict | None = None,
        body: bytes | None = None,
        content_type: str | None = None,
    ) -> tuple[int, dict, bytes]:
        if query:
            path = f"{path}?{urlencode(query)}"
        headers = {}
        if content_type is not None:
            headers["Content-Type"] = content_type
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            payload = response.read()
        except (
            http.client.HTTPException,
            ConnectionError,
            socket.timeout,
            OSError,
        ):
            # the connection is poisoned; reconnect on the next call
            self.close_connection()
            raise
        reply_headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        if reply_headers.get("connection", "").lower() == "close":
            self.close_connection()
        return response.status, reply_headers, payload

    @staticmethod
    def _raise_for_status(
        status: int, headers: dict, payload: bytes
    ) -> None:
        if 200 <= status < 300:
            return
        code, detail = "unknown", payload.decode("utf-8", "replace")
        try:
            parsed = parse_json(payload)
            if isinstance(parsed, dict):
                code = str(parsed.get("error", code))
                detail = str(parsed.get("detail", detail))
        except ValueError:
            pass
        retry_after: float | None = None
        if "retry-after" in headers:
            try:
                retry_after = float(headers["retry-after"])
            except ValueError:
                pass
        raise ServingError(status, code, detail, retry_after)

    def _get_json(self, path: str, query: dict | None = None) -> Any:
        status, headers, payload = self._request("GET", path, query=query)
        self._raise_for_status(status, headers, payload)
        return parse_json(payload)

    # ------------------------------------------------------------ endpoints

    def health(self) -> dict:
        """``GET /health`` -- parsed body even when the reply is 503."""
        status, _, payload = self._request("GET", "/health")
        parsed = parse_json(payload)
        if not isinstance(parsed, dict):  # pragma: no cover - server bug
            raise ServingError(status, "bad_health", "non-object health body")
        parsed["http_status"] = status
        return parsed

    def ingest(
        self,
        keys: Sequence[str],
        grid: np.ndarray,
        *,
        allow_partial: bool = False,
    ) -> IngestSummary:
        """``POST /v1/ingest`` one columnar ``(rounds, n_keys)`` grid."""
        query = {"allow_partial": "1"} if allow_partial else None
        status, headers, payload = self._request(
            "POST",
            "/v1/ingest",
            query=query,
            body=encode_grid(keys, grid),
            content_type=CONTENT_TYPE_COLUMNAR,
        )
        self._raise_for_status(status, headers, payload)
        return decode_summary(payload)

    def keys(self) -> list[str]:
        body = self._get_json("/v1/keys")
        return list(body["keys"])

    def series_stats(self, key: str) -> dict:
        return self._get_json(f"/v1/series/{quote(str(key), safe='')}/stats")

    def forecast(self, key: str, horizon: int = 1) -> np.ndarray:
        body = self._get_json(
            f"/v1/series/{quote(str(key), safe='')}/forecast",
            query={"h": str(int(horizon))},
        )
        return np.asarray(body["forecast"], dtype=float)

    def anomalies(
        self,
        *,
        limit: int | None = None,
        offset: int | None = None,
        cursor: str | None = None,
        sort: str | None = None,
    ) -> dict:
        """``GET /v1/anomalies`` -- returns the ``{items, page}`` body."""
        query: dict = {}
        if limit is not None:
            query["limit"] = str(int(limit))
        if offset is not None:
            query["offset"] = str(int(offset))
        if cursor is not None:
            query["cursor"] = cursor
        if sort is not None:
            query["sort"] = sort
        return self._get_json("/v1/anomalies", query=query or None)

    # ------------------------------------------------------------ lifecycle

    def close_connection(self) -> None:
        """Drop the keep-alive connection (a new one opens on next use)."""
        if self._connection is not None:
            try:
                self._connection.close()
            finally:
                self._connection = None

    def close(self) -> None:
        self.close_connection()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
