"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

Just enough of RFC 9112 for the serving tier: request line + headers +
``Content-Length`` bodies in, fixed-length JSON responses out, with
keep-alive.  No chunked transfer encoding, no pipelining guarantees
beyond strict request/response alternation, no TLS — this is the
paper's Figure-9 measurement surface, not a general web server; put a
real proxy in front for anything else.

Malformed inbound HTTP raises :class:`HttpProtocolError` (a
:class:`~repro.errors.ServerError`) carrying the status code the
connection handler should answer with before closing.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..errors import ServerError

__all__ = [
    "HttpProtocolError",
    "HttpRequest",
    "read_request",
    "render_response",
    "json_response",
    "error_body",
]

#: Request line + headers may not exceed this (defense against a client
#: dribbling an endless header section into the loop).
MAX_HEADER_BYTES = 32_768

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpProtocolError(ServerError):
    """Malformed inbound HTTP; ``status`` is the response to send
    before closing the connection."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed inbound request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        # HTTP/1.1 is persistent unless the client says close; HTTP/1.0
        # only when it asks for keep-alive — its clients otherwise wait
        # for the server to close, and a handler parked on one would
        # never read another request.
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def json(self) -> Any:
        """The body parsed as JSON; raises ``HttpProtocolError(400)``."""
        try:
            return json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as error:
            raise HttpProtocolError(
                f"request body is not valid JSON: {error}"
            ) from error


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Optional[HttpRequest]:
    """Read one request off the stream; ``None`` on clean EOF.

    Raises :class:`HttpProtocolError` for malformed framing (answer it,
    then close) and lets transport errors (``ConnectionError``,
    ``IncompleteReadError`` mid-message) propagate to the caller's
    connection teardown.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF between requests
        raise HttpProtocolError("connection closed mid-request") from error
    except asyncio.LimitOverrunError as error:
        raise HttpProtocolError(
            "request head exceeds the header limit", status=413
        ) from error
    if len(head) > MAX_HEADER_BYTES:
        raise HttpProtocolError(
            "request head exceeds the header limit", status=413
        )
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as error:  # pragma: no cover - latin-1 total
        raise HttpProtocolError("undecodable request head") from error
    lines = text.split("\r\n")
    request_line = lines[0]
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise HttpProtocolError(f"malformed request line {request_line!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpProtocolError(f"unsupported protocol {version!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise HttpProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise HttpProtocolError(
            "chunked transfer encoding is not supported", status=400
        )
    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError as error:
            raise HttpProtocolError(
                f"malformed Content-Length {raw_length!r}"
            ) from error
        if length < 0:
            raise HttpProtocolError(
                f"malformed Content-Length {raw_length!r}"
            )
        if length > max_body_bytes:
            raise HttpProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
                status=413,
            )
        if length:
            body = await reader.readexactly(length)
    # Strip any query string; routes are exact paths.
    path = target.split("?", 1)[0]
    return HttpRequest(
        method=method, path=path, headers=headers, body=body, version=version
    )


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    """Serialise one fixed-length response."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_response(
    status: int,
    payload: Any,
    *,
    keep_alive: bool = True,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    return render_response(
        status,
        json.dumps(payload).encode("utf-8"),
        keep_alive=keep_alive,
        extra_headers=extra_headers,
    )


def error_body(error_type: str, message: str, **extra: Any) -> Dict[str, Any]:
    """The wire form of every non-200 answer: mirrors the library's
    typed error taxonomy so a client can re-raise the right class."""
    payload: Dict[str, Any] = {"type": error_type, "message": message}
    payload.update(extra)
    return {"error": payload}
