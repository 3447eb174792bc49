"""Length-prefixed binary wire format of the serving network front door.

Every message on a connection is one *frame*::

    >BII  header  payload
    │ │└─ payload length (raw little-endian array bytes, may be 0)
    │ └── header length (serialized mapping)
    └──── header codec: always 0 (JSON); any other byte is a framing error

The header is a small mapping carrying the message ``kind`` plus its
metadata; bulk numerics (feature windows in, class ids out) travel in the
raw payload so a request's float32 matrix is never JSON-encoded.  Kinds:

* ``predict`` — ``request_id``, ``user_id``, optional ``deadline_ms``
  (end-to-end, relative — the server stamps the absolute scheduler-clock
  deadline on arrival), optional ``metadata``, ``shape``/``dtype`` of the
  payload feature matrix;
* ``response`` — the answer: ``request_id``, ``user_id``, ``device_id``,
  scheduler ``latency_ms``, server-measured ``e2e_ms``,
  ``deadline_missed``, and the per-window class ids as an int64 payload;
* ``error`` — a typed failure: ``request_id`` (when attributable),
  ``error`` (a :class:`~repro.exceptions.ServingError` subclass name from
  :data:`WIRE_ERRORS`; unknown names decode to the base class) and
  ``message``;
* ``stats`` — request/reply pair correlated by ``request_id``; the reply
  embeds the server's :class:`~repro.serving.report.RoutingReport` export
  plus its end-to-end counters under ``"stats"``;
* ``bye`` — polite half of a client close (EOF works too).

Framing violations — garbage prefixes, an unusable codec byte, lengths
past :data:`MAX_HEADER_BYTES`/:data:`MAX_PAYLOAD_BYTES`, or a connection
dropped mid-frame — raise :class:`~repro.exceptions.WireProtocolError`;
a clean EOF at a frame boundary reads as ``None``.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import (
    ClientClosedError,
    DeadlineExceededError,
    ExecutorError,
    InvalidRequestError,
    RequestCancelledError,
    RequestSheddedError,
    RoutingError,
    ServingError,
    WireProtocolError,
    WorkerDiedError,
)

__all__ = [
    "CODEC_JSON",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "WIRE_ERRORS",
    "encode_frame",
    "read_frame",
    "write_frame",
    "predict_frame",
    "decode_predict",
    "response_frame",
    "decode_response",
    "error_frame",
    "decode_error",
    "stats_request_frame",
    "stats_reply_frame",
    "bye_frame",
]

_PREFIX = struct.Struct(">BII")

#: The one header codec; the prefix byte stays so the frame layout is fixed.
CODEC_JSON = 0

#: A header is routing metadata, not a payload: anything this large is a
#: framing error, not a request.
MAX_HEADER_BYTES = 1 << 20
#: Upper bound on one frame's raw array payload.
MAX_PAYLOAD_BYTES = 256 << 20

#: Payload dtypes are pinned little-endian so frames are machine-portable.
_FEATURE_DTYPE = np.dtype("<f4")
_CLASS_ID_DTYPE = np.dtype("<i8")

#: Typed errors that travel by name; unknown names decode to ServingError.
WIRE_ERRORS: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        ServingError,
        InvalidRequestError,
        DeadlineExceededError,
        RoutingError,
        ExecutorError,
        WorkerDiedError,
        ClientClosedError,
        WireProtocolError,
        RequestSheddedError,
        RequestCancelledError,
    )
}


# ---------------------------------------------------------------------- #
# framing
# ---------------------------------------------------------------------- #
def _decode_header(raw: bytes, codec: int) -> Dict[str, Any]:
    if codec != CODEC_JSON:
        raise WireProtocolError(f"unknown header codec byte {codec}")
    try:
        header = json.loads(raw.decode("utf-8"))
    except Exception as exc:
        raise WireProtocolError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise WireProtocolError(
            f"frame header must decode to a mapping, got {type(header).__name__}"
        )
    return header


def encode_frame(header: Dict[str, Any], payload: bytes = b"") -> bytes:
    """One wire frame as bytes (prefix + header + payload)."""
    raw_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(raw_header) > MAX_HEADER_BYTES:
        raise WireProtocolError(
            f"frame header of {len(raw_header)} bytes exceeds the "
            f"{MAX_HEADER_BYTES}-byte bound"
        )
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise WireProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte bound"
        )
    return _PREFIX.pack(CODEC_JSON, len(raw_header), len(payload)) + raw_header + payload


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[Dict[str, Any], bytes]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    A connection dropped mid-frame, an oversized length, or an undecodable
    header raise :class:`~repro.exceptions.WireProtocolError` — the stream
    is no longer frame-aligned and must be closed.
    """
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireProtocolError(
            f"connection closed mid-prefix ({len(exc.partial)} of "
            f"{_PREFIX.size} bytes)"
        ) from exc
    codec, header_length, payload_length = _PREFIX.unpack(prefix)
    if header_length > MAX_HEADER_BYTES:
        raise WireProtocolError(
            f"frame announces a {header_length}-byte header "
            f"(bound: {MAX_HEADER_BYTES}); stream is not frame-aligned"
        )
    if payload_length > MAX_PAYLOAD_BYTES:
        raise WireProtocolError(
            f"frame announces a {payload_length}-byte payload "
            f"(bound: {MAX_PAYLOAD_BYTES}); stream is not frame-aligned"
        )
    try:
        raw_header = await reader.readexactly(header_length)
        payload = await reader.readexactly(payload_length) if payload_length else b""
    except asyncio.IncompleteReadError as exc:
        raise WireProtocolError("connection closed mid-frame") from exc
    return _decode_header(raw_header, codec), payload


async def write_frame(
    writer: asyncio.StreamWriter,
    header: Dict[str, Any],
    payload: bytes = b"",
) -> None:
    """Encode and send one frame, honouring the transport's backpressure."""
    writer.write(encode_frame(header, payload))
    await writer.drain()


# ---------------------------------------------------------------------- #
# message kinds
# ---------------------------------------------------------------------- #
def predict_frame(
    request_id: int,
    user_id: int,
    features: np.ndarray,
    *,
    deadline_ms: Optional[float] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[str, Any], bytes]:
    """A predict request's (header, payload) pair.

    ``deadline_ms`` is *relative* (milliseconds from server receipt); the
    feature matrix ships as little-endian float32 raw bytes.
    """
    features = np.ascontiguousarray(features, dtype=_FEATURE_DTYPE)
    if features.ndim == 1:
        features = features[None, :]
    header: Dict[str, Any] = {
        "kind": "predict",
        "request_id": int(request_id),
        "user_id": int(user_id),
        "shape": [int(dim) for dim in features.shape],
    }
    if deadline_ms is not None:
        header["deadline_ms"] = float(deadline_ms)
    if metadata is not None:
        header["metadata"] = metadata
    return header, features.tobytes()


def decode_predict(
    header: Dict[str, Any], payload: bytes
) -> Tuple[int, int, np.ndarray, Optional[float], Optional[Dict[str, Any]]]:
    """``(request_id, user_id, features, deadline_ms, metadata)`` of a frame.

    Framing-level problems (shape/payload mismatch) raise
    :class:`~repro.exceptions.WireProtocolError`; request-level problems
    (negative user id, empty feature batch, non-positive deadline) raise
    :class:`~repro.exceptions.InvalidRequestError` — both travel back as
    typed error frames without killing the connection.
    """
    try:
        request_id = int(header["request_id"])
        user_id = int(header["user_id"])
        shape = tuple(int(dim) for dim in header["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireProtocolError(f"malformed predict header: {exc}") from exc
    if len(shape) != 2:
        raise InvalidRequestError(
            f"predict frames carry a 2-D (n_windows, n_features) matrix, "
            f"got shape {shape}"
        )
    expected = shape[0] * shape[1] * _FEATURE_DTYPE.itemsize
    if len(payload) != expected:
        raise WireProtocolError(
            f"predict payload is {len(payload)} bytes but shape {shape} "
            f"needs {expected}"
        )
    features = np.frombuffer(payload, dtype=_FEATURE_DTYPE).reshape(shape)
    deadline_ms = header.get("deadline_ms")
    if deadline_ms is not None:
        deadline_ms = float(deadline_ms)
        if deadline_ms <= 0:
            raise InvalidRequestError(
                f"deadline_ms must be positive, got {deadline_ms}"
            )
    return request_id, user_id, features, deadline_ms, header.get("metadata")


def response_frame(
    request_id: int,
    user_id: int,
    class_ids: np.ndarray,
    *,
    device_id: int,
    latency_ms: float,
    e2e_ms: float,
    deadline_missed: bool,
) -> Tuple[Dict[str, Any], bytes]:
    """An answered request's (header, payload) pair (int64 class ids)."""
    class_ids = np.ascontiguousarray(class_ids, dtype=_CLASS_ID_DTYPE)
    header = {
        "kind": "response",
        "request_id": int(request_id),
        "user_id": int(user_id),
        "device_id": int(device_id),
        "latency_ms": float(latency_ms),
        "e2e_ms": float(e2e_ms),
        "deadline_missed": bool(deadline_missed),
        "n_windows": int(class_ids.shape[0]),
    }
    return header, class_ids.tobytes()


def decode_response(header: Dict[str, Any], payload: bytes) -> Dict[str, Any]:
    """A response frame's fields, with ``class_ids`` decoded from the payload."""
    try:
        n_windows = int(header["n_windows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireProtocolError(f"malformed response header: {exc}") from exc
    if len(payload) != n_windows * _CLASS_ID_DTYPE.itemsize:
        raise WireProtocolError(
            f"response payload is {len(payload)} bytes but announces "
            f"{n_windows} class ids"
        )
    return {
        "request_id": int(header["request_id"]),
        "user_id": int(header.get("user_id", -1)),
        "device_id": int(header.get("device_id", -1)),
        "latency_ms": float(header.get("latency_ms", 0.0)),
        "e2e_ms": float(header.get("e2e_ms", 0.0)),
        "deadline_missed": bool(header.get("deadline_missed", False)),
        "class_ids": np.frombuffer(payload, dtype=_CLASS_ID_DTYPE),
    }


def error_frame(
    error: BaseException, request_id: Optional[int] = None
) -> Tuple[Dict[str, Any], bytes]:
    """A typed failure as a frame; the class travels by registry name."""
    name = type(error).__name__
    if name not in WIRE_ERRORS:
        # Non-registry (or non-serving) failures degrade to the base class
        # on the peer but keep their message.
        name = "ServingError"
    header: Dict[str, Any] = {
        "kind": "error",
        "error": name,
        "message": str(error),
    }
    if request_id is not None:
        header["request_id"] = int(request_id)
    return header, b""


def decode_error(header: Dict[str, Any]) -> ServingError:
    """Rebuild the typed exception carried by an error frame."""
    error_class = WIRE_ERRORS.get(str(header.get("error")), ServingError)
    return error_class(str(header.get("message", "unspecified serving error")))


def stats_request_frame(request_id: int) -> Tuple[Dict[str, Any], bytes]:
    return {"kind": "stats", "request_id": int(request_id)}, b""


def stats_reply_frame(
    request_id: int, stats: Dict[str, Any]
) -> Tuple[Dict[str, Any], bytes]:
    return {"kind": "stats", "request_id": int(request_id), "stats": stats}, b""


def bye_frame() -> Tuple[Dict[str, Any], bytes]:
    return {"kind": "bye"}, b""
