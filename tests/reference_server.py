"""Reference push server: ``decode_frame`` plus the documented state machine.

Cross-checks ``ObexServer.serve_push``.  Every frame is decoded in full
with ``decode_frame`` before any state is read, and the reassembly rules
are restated here from the ``serve_push`` docstring and the wire layout in
``pidsim.obexlite``:

* bytes after the declared frame are a length mismatch, refused before
  the frame's headers are read;
* a powered-off device raises ``PoweredOffError`` and keeps its state;
* CONNECT and DISCONNECT end any open sequence: Success;
* any opcode other than PUT and PUT_FINAL: BadRequest, state kept;
* a refusing device ends any open sequence: Forbidden;
* a Name opens a sequence (only one, non-empty, before the end); a Body
  adds a chunk to an open sequence; an EndOfBody adds the last chunk of
  an open sequence, in a final frame only; Length and ConnectionId are
  metadata;
* a final frame that took an EndOfBody puts the joined chunks in the
  inbox: Success;
* a non-final frame that leaves a sequence open: Continue;
* anything else ends the sequence: BadRequest.
"""

from pidsim.errors import PoweredOffError, ProtocolError
from pidsim.obexlite import (
    BAD_REQUEST,
    CONNECT,
    CONTINUE,
    DISCONNECT,
    FORBIDDEN,
    KNOWN_OPCODES,
    PUT,
    PUT_FINAL,
    SUCCESS,
    Body,
    EndOfBody,
    Name,
    ObexFrame,
    decode_frame,
    encode_frame,
)


def _reply(opcode: int) -> bytes:
    return encode_frame(ObexFrame(opcode))


def decode_one(raw: bytes) -> ObexFrame:
    """``decode_frame`` on input that must hold exactly one frame."""
    if len(raw) >= 3:
        total = raw[1] << 8 | raw[2]
        if raw[0] in KNOWN_OPCODES and 3 <= total < len(raw):
            raise ProtocolError(
                f"length-mismatch: declared {total} bytes, have {len(raw)}")
    frame, rest = decode_frame(raw)
    assert rest == b""
    return frame


class ReferenceServer:
    """The receiving side of a push, one decoded frame at a time."""

    def __init__(self, device) -> None:
        self.device = device
        self.name = None
        self.chunks = []

    def _end(self, opcode: int) -> bytes:
        self.name, self.chunks = None, []
        return _reply(opcode)

    def serve(self, raw: bytes) -> bytes:
        frame = decode_one(raw)
        device = self.device
        if not device.powered:
            raise PoweredOffError(f"{device.mac} is powered off")
        if frame.opcode in (CONNECT, DISCONNECT):
            return self._end(SUCCESS)
        if frame.opcode not in (PUT, PUT_FINAL):
            return _reply(BAD_REQUEST)
        if device.refuse_push:
            return self._end(FORBIDDEN)
        final = frame.opcode == PUT_FINAL
        name, chunks, ended = self.name, list(self.chunks), False
        for header in frame.headers:
            if ended:
                ok = not isinstance(header, (Name, Body, EndOfBody))
            elif isinstance(header, Name):
                ok, name = name is None and header.text != "", header.text
            elif isinstance(header, (Body, EndOfBody)):
                ended = isinstance(header, EndOfBody)
                ok = name is not None and (final or not ended)
                chunks.append(header.data)
            else:
                ok = True
            if not ok:
                return self._end(BAD_REQUEST)
        if ended:
            device.inbox[name] = b"".join(chunks)
            return self._end(SUCCESS)
        if final or name is None:
            return self._end(BAD_REQUEST)
        self.name, self.chunks = name, chunks
        return _reply(CONTINUE)
