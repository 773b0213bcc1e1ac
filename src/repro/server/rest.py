"""REST-like request routing.

Models the Flask RESTful interface of the paper's server (Section IV.B)
without sockets: requests are dataclasses, handlers are registered on
``(method, path)`` routes with ``<param>`` placeholders, and responses
carry a status code and JSON-serialisable body.  The uplink models in
:mod:`repro.comms` deliver :class:`Request` objects to a
:class:`Router`, preserving the architecture (app -> HTTP -> BMS)
while staying in-process.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.tracing import TRACEPARENT_HEADER, TraceContext, Tracer

__all__ = ["Request", "Response", "HttpError", "Router"]


@dataclass(frozen=True)
class Request:
    """An HTTP-like request.

    Attributes:
        method: GET/POST/PUT/DELETE.
        path: request path, e.g. ``"/sightings"``.
        body: JSON-like payload.
        time: client send time (simulation seconds), for latency
            accounting.
        headers: transport metadata (notably the ``traceparent``
            header carrying an encoded
            :class:`~repro.obs.tracing.TraceContext`).  Headers are
            observability-only: they are deliberately folded into the
            nominal fixed overhead of :attr:`size_bytes`, so tracing a
            run never changes its energy or traffic accounting.
    """

    method: str
    path: str
    body: Optional[Dict[str, Any]] = None
    time: float = 0.0
    headers: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.method not in ("GET", "POST", "PUT", "DELETE"):
            raise ValueError(f"unsupported method {self.method!r}")
        if not self.path.startswith("/"):
            raise ValueError(f"path must start with '/', got {self.path!r}")

    def trace_context(self) -> Optional[TraceContext]:
        """The decoded ``traceparent`` header, or ``None``.

        Malformed headers decode to ``None`` rather than raising: a
        bad trace header must never fail a request.
        """
        value = self.headers.get(TRACEPARENT_HEADER)
        if not value:
            return None
        try:
            return TraceContext.from_header(value)
        except ValueError:
            return None

    @property
    def size_bytes(self) -> int:
        """Approximate on-wire size (for the energy/traffic models)."""
        body = json.dumps(self.body) if self.body is not None else ""
        # Method + path + minimal headers ~ 120 bytes.
        return 120 + len(self.path) + len(body)


@dataclass(frozen=True)
class Response:
    """An HTTP-like response."""

    status: int
    body: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """True for 2xx statuses."""
        return 200 <= self.status < 300

    @property
    def size_bytes(self) -> int:
        """Approximate on-wire size."""
        body = json.dumps(self.body) if self.body is not None else ""
        return 80 + len(body)


class HttpError(Exception):
    """Raised by handlers to produce a non-2xx response.

    ``extra`` fields are merged into the error body alongside
    ``"error"`` — machine-readable hints (e.g. ``retry_after_s`` on
    429s) ride there.
    """

    def __init__(
        self,
        status: int,
        message: str,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.extra = dict(extra or {})


Handler = Callable[[Request, Dict[str, str]], Any]

_PARAM_RE = re.compile(r"<([a-zA-Z_][a-zA-Z0-9_]*)>")


def _compile_pattern(pattern: str) -> re.Pattern:
    """Compile a route pattern to a regex.

    Literal segments are escaped so metacharacters (``.``, ``+``, ...)
    in a route match only themselves; ``<name>`` placeholders become
    named groups matching one path segment.
    """
    parts: List[str] = []
    position = 0
    for placeholder in _PARAM_RE.finditer(pattern):
        parts.append(re.escape(pattern[position : placeholder.start()]))
        parts.append(f"(?P<{placeholder.group(1)}>[^/]+)")
        position = placeholder.end()
    parts.append(re.escape(pattern[position:]))
    return re.compile("^" + "".join(parts) + "$")


class Router:
    """Maps ``(method, path pattern)`` to handlers.

    Path patterns may contain ``<name>`` placeholders matching one path
    segment; matched values are passed to the handler as a dict.

    Example:
        >>> router = Router()
        >>> @router.route("GET", "/rooms/<room>")
        ... def get_room(request, params):
        ...     return {"room": params["room"]}
        >>> router.dispatch(Request("GET", "/rooms/kitchen")).body
        {'room': 'kitchen'}
    """

    def __init__(self) -> None:
        # Placeholder-free routes dispatch through a dict keyed by
        # (method, path); parameterised ones regex-scan within their
        # method bucket only.  First registration wins, matching the
        # old linear-scan semantics.
        self._static: Dict[Tuple[str, str], Handler] = {}
        self._dynamic: Dict[str, List[Tuple[re.Pattern, Handler]]] = {}
        self.requests_handled = 0
        #: When set (the BMS attaches its registry's tracer), every
        #: dispatch runs inside a ``server.request`` span, parented to
        #: the request's ``traceparent`` context when it arrives from
        #: another tracer.
        self.tracer: Optional[Tracer] = None

    def route(self, method: str, pattern: str) -> Callable[[Handler], Handler]:
        """Decorator registering a handler for ``method pattern``."""
        regex = _compile_pattern(pattern)

        def decorator(handler: Handler) -> Handler:
            if _PARAM_RE.search(pattern):
                self._dynamic.setdefault(method, []).append((regex, handler))
            else:
                self._static.setdefault((method, pattern), handler)
            return handler

        return decorator

    def allowed_methods(self, path: str) -> List[str]:
        """Methods with a route matching ``path``, sorted."""
        methods = {m for (m, p) in self._static if p == path}
        for method, routes in self._dynamic.items():
            if method in methods:
                continue
            if any(regex.match(path) for regex, _ in routes):
                methods.add(method)
        return sorted(methods)

    def dispatch(self, request: Request) -> Response:
        """Route a request to its handler and wrap the result.

        Handler return values become 200 responses; :class:`HttpError`
        maps to its status; any other exception becomes a 500 (an
        in-process server must not crash the whole simulation);
        unmatched paths yield 404, unless the path matches a route
        under a *different* method — then 405, with the error body
        naming the allowed methods.  Every dispatched request —
        matched or not — counts towards :attr:`requests_handled`.

        With a :attr:`tracer` attached, the dispatch is bracketed by a
        ``server.request`` span carrying method, path and the response
        status; a ``traceparent`` header parents the span into the
        caller's trace when no local span is open.
        """
        if self.tracer is None:
            return self._dispatch(request)
        context = request.trace_context()
        with self.tracer.span(
            "server.request",
            remote_parent=context.parent_span_id if context else None,
            method=request.method,
            path=request.path,
        ) as span:
            response = self._dispatch(request)
            span.attrs["status"] = response.status
        return response

    def _dispatch(self, request: Request) -> Response:
        self.requests_handled += 1
        handler = self._static.get((request.method, request.path))
        params: Dict[str, str] = {}
        if handler is None:
            for regex, candidate in self._dynamic.get(request.method, ()):
                match = regex.match(request.path)
                if match is not None:
                    handler = candidate
                    params = match.groupdict()
                    break
        if handler is None:
            allowed = self.allowed_methods(request.path)
            if allowed:
                return Response(
                    status=405,
                    body={
                        "error": (
                            f"method {request.method} not allowed for "
                            f"{request.path}; allowed: {', '.join(allowed)}"
                        ),
                        "allowed": allowed,
                    },
                )
            return Response(
                status=404,
                body={"error": f"no route for {request.method} {request.path}"},
            )
        try:
            result = handler(request, params)
        except HttpError as exc:
            body: Dict[str, Any] = {"error": exc.message}
            body.update(exc.extra)
            return Response(status=exc.status, body=body)
        except Exception as exc:  # noqa: BLE001 - server boundary
            return Response(
                status=500,
                body={"error": f"internal error: {type(exc).__name__}: {exc}"},
            )
        if isinstance(result, Response):
            return result
        return Response(status=200, body=result)
