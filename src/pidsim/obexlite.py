"""Framed file-push protocol: bit-exact codec plus client/server sessions.

Wire layout (normative; big-endian throughout)::

    frame   = opcode(1) length(2) [connect-block] header*
    length  = total frame length in bytes, opcode and length field included
    connect-block (only for opcode CONNECT) = version(1)=0x10 flags(1)=0x00
                                              max_packet(2)

    opcodes:   CONNECT=0x80  DISCONNECT=0x81  PUT=0x02  PUT_FINAL=0x82
    responses: CONTINUE=0x90 SUCCESS=0xA0 BAD_REQUEST=0xC0 FORBIDDEN=0xC3

    headers:
        0x01 Name          id(1) vlen(2) value   ascii text, no terminator
        0xC3 Length        id(1) uint32          total payload byte count
        0x48 Body          id(1) vlen(2) value   payload chunk
        0x49 EndOfBody     id(1) vlen(2) value   final payload chunk
        0xCB ConnectionId  id(1) uint32

A push is a PUT sequence: the first frame carries Name + Length + a chunk,
middle frames carry Body chunks, the final-bit frame carries EndOfBody.
When the whole payload fits in one frame the sequence is a single
PUT_FINAL carrying Name + Length + EndOfBody.

``encode_frame``, ``decode_frame`` and ``ObexFrame`` are the normative codec.
A file's PUT sequence is encoded once, as a ``PutSequence``: the bytes of
every frame, from ``wire_frames``, each checked against the packet size.
A push attempt is one call, ``PushSession.push_file(sequence)``: CONNECT,
the PUT sequence, DISCONNECT after a delivery, and the link closed on
every path; it encodes nothing, so every attempt replays the same frames.
The session offers the server the sequence's payload, and a server that
reassembles exactly those bytes stores that one object in its inbox.  The
first server whose joined chunks equal the payload records them on the
sequence; a later server whose chunks equal that record, one by one, for
the same offered object stores the payload without joining, since equal
chunks join to equal bytes.
The session and the server exchange raw frames: ``ObexServer.serve_push``
takes the bytes of one frame and returns the bytes of its response.  The
CONNECT and DISCONNECT frames are module constants; ``wire_frames``
encodes only the opening frame with ``encode_frame`` and writes every
continuation frame as a fixed 6-byte prefix plus a view of the payload,
the same bytes ``encode_frame`` gives for ``put_frames``.
``decode_frame`` and the server share one prefix check (``_frame_prefix``)
and one header walker (``_headers``), which walks the whole frame and
returns its headers as a list, so a malformed frame raises before the
server's state changes.  ``serve_push`` then runs the reassembly state
machine itself.  In front of that parser, a shape guard takes a
well-formed continuation frame (PUT, one Body header) in the one
``serve_push`` call, with the same answer.  A frame's parse is kept in a
memo that the ``PutSequence`` owns and every member's server shares, so
each frame of a sequence is checked once per sequence, the first time any
server receives it, and the memo goes when the sequence does.  The
session reads a reply that is the module's own Continue frame by
identity and any other reply, ``bytes`` or ``bytearray``, by its frame
prefix, so a malformed one still raises.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import PoweredOffError, ProtocolError, SimError
from .simnet import LinkHandle, RadioDevice, SimTime, SimWorld, transfer_duration

CONNECT = 0x80
DISCONNECT = 0x81
PUT = 0x02
PUT_FINAL = 0x82
CONTINUE = 0x90
SUCCESS = 0xA0
BAD_REQUEST = 0xC0
FORBIDDEN = 0xC3

KNOWN_OPCODES = frozenset({CONNECT, DISCONNECT, PUT, PUT_FINAL,
                           CONTINUE, SUCCESS, BAD_REQUEST, FORBIDDEN})

HDR_NAME = 0x01
HDR_LENGTH = 0xC3
HDR_BODY = 0x48
HDR_END_OF_BODY = 0x49
HDR_CONNECTION_ID = 0xCB

FRAME_PREFIX = 3        # opcode + 2-byte length field
VALUE_HEADER_PREFIX = 3  # header id + 2-byte value length
U32_HEADER_SIZE = 5      # header id + 4-byte value
CONNECT_BLOCK_SIZE = 4
OBEX_VERSION = 0x10
MAX_FRAME_LENGTH = 0xFFFF
DEFAULT_MAX_PACKET = 1024


@dataclass(frozen=True)
class Name:
    text: str


@dataclass(frozen=True)
class Length:
    value: int


@dataclass(frozen=True)
class Body:
    data: bytes


@dataclass(frozen=True)
class EndOfBody:
    data: bytes


@dataclass(frozen=True)
class ConnectionId:
    value: int


ObexHeader = Union[Name, Length, Body, EndOfBody, ConnectionId]


@dataclass(frozen=True)
class ConnectInfo:
    version: int = OBEX_VERSION
    flags: int = 0x00
    max_packet: int = DEFAULT_MAX_PACKET


@dataclass(frozen=True)
class ObexFrame:
    opcode: int
    headers: tuple[ObexHeader, ...] = ()
    connect: ConnectInfo | None = None


# -- codec -------------------------------------------------------------------


def _ascii_name(text: str) -> bytes:
    try:
        return text.encode("ascii")
    except UnicodeEncodeError:
        raise ProtocolError(f"name is not ASCII: {text!r}") from None


def _encode_header(header: ObexHeader) -> bytes:
    if isinstance(header, Name):
        raw, hid = _ascii_name(header.text), HDR_NAME
    elif isinstance(header, Body):
        raw, hid = header.data, HDR_BODY
    elif isinstance(header, EndOfBody):
        raw, hid = header.data, HDR_END_OF_BODY
    elif isinstance(header, Length):
        if not 0 <= header.value <= 0xFFFFFFFF:
            raise ProtocolError("length header out of uint32 range")
        return bytes([HDR_LENGTH]) + header.value.to_bytes(4, "big")
    elif isinstance(header, ConnectionId):
        if not 0 <= header.value <= 0xFFFFFFFF:
            raise ProtocolError("connection id out of uint32 range")
        return bytes([HDR_CONNECTION_ID]) + header.value.to_bytes(4, "big")
    else:
        raise ProtocolError(f"unknown header type: {header!r}")
    if len(raw) > 0xFFFF:
        raise ProtocolError("oversize-frame: header value exceeds 65535 bytes")
    return bytes([hid]) + len(raw).to_bytes(2, "big") + raw


def encode_frame(frame: ObexFrame) -> bytes:
    if frame.opcode not in KNOWN_OPCODES:
        raise ProtocolError(f"unknown-opcode: {frame.opcode:#04x}")
    if (frame.opcode == CONNECT) != (frame.connect is not None):
        raise ProtocolError("connect block is required exactly for CONNECT frames")
    body = bytearray()
    if frame.connect is not None:
        info = frame.connect
        if not (0 <= info.version <= 0xFF and 0 <= info.flags <= 0xFF):
            raise ProtocolError("connect version/flags out of byte range")
        if not 0 <= info.max_packet <= 0xFFFF:
            raise ProtocolError("connect max_packet out of range")
        body += bytes([info.version, info.flags])
        body += info.max_packet.to_bytes(2, "big")
    for header in frame.headers:
        body += _encode_header(header)
    total = FRAME_PREFIX + len(body)
    if total > MAX_FRAME_LENGTH:
        raise ProtocolError(f"oversize-frame: {total} bytes exceeds {MAX_FRAME_LENGTH}")
    return bytes([frame.opcode]) + total.to_bytes(2, "big") + bytes(body)


_PREFIX = struct.Struct(">BH")  # opcode, declared length


def _frame_prefix(data: bytes | memoryview,
                  whole: bool = False) -> tuple[int, int, int]:
    """Check a frame's prefix; return (opcode, declared length, header offset).

    With ``whole``, ``data`` must hold exactly the one frame.
    """
    size = len(data)
    if size < FRAME_PREFIX:
        raise ProtocolError("truncated-frame: need at least 3 bytes")
    opcode, total = _PREFIX.unpack_from(data)
    if opcode not in KNOWN_OPCODES:
        raise ProtocolError(f"unknown-opcode: {opcode:#04x}")
    if total < FRAME_PREFIX:
        raise ProtocolError("length-mismatch: declared length below minimum")
    if size < total:
        raise ProtocolError(f"truncated-frame: declared {total} bytes, have {size}")
    if whole and size > total:
        raise ProtocolError(f"length-mismatch: declared {total} bytes, have {size}")
    if opcode != CONNECT:
        return opcode, total, FRAME_PREFIX
    if total < FRAME_PREFIX + CONNECT_BLOCK_SIZE:
        raise ProtocolError("length-mismatch: connect block missing")
    return opcode, total, FRAME_PREFIX + CONNECT_BLOCK_SIZE


_HEADER_TYPES = {HDR_NAME: Name, HDR_LENGTH: Length, HDR_BODY: Body,
                 HDR_END_OF_BODY: EndOfBody, HDR_CONNECTION_ID: ConnectionId}


def _headers(view: memoryview, pos: int,
             total: int) -> list[tuple[int, str | int | memoryview]]:
    """The headers in ``view[pos:total]`` as (header id, value) pairs.

    A Name value is its ASCII text, a uint32 header its int, and a
    Body/EndOfBody value a view of the frame, so no chunk is copied here.
    The whole frame is walked before any pair is returned, so a malformed
    header raises before a caller has acted on the ones ahead of it.
    """
    found = []
    while pos < total:
        hid = view[pos]
        if hid in (HDR_NAME, HDR_BODY, HDR_END_OF_BODY):
            if pos + VALUE_HEADER_PREFIX > total:
                raise ProtocolError("length-mismatch: header prefix overruns frame")
            start = pos + VALUE_HEADER_PREFIX
            pos = start + (view[pos + 1] << 8 | view[pos + 2])
            if pos > total:
                raise ProtocolError("length-mismatch: header value overruns frame")
            if hid != HDR_NAME:
                found.append((hid, view[start:pos]))
                continue
            try:
                text = str(view[start:pos], "ascii")
            except UnicodeDecodeError:
                raise ProtocolError("name is not ASCII") from None
            found.append((hid, text))
        elif hid in (HDR_LENGTH, HDR_CONNECTION_ID):
            if pos + U32_HEADER_SIZE > total:
                raise ProtocolError("length-mismatch: header value overruns frame")
            found.append(
                (hid, int.from_bytes(view[pos + 1:pos + U32_HEADER_SIZE], "big")))
            pos += U32_HEADER_SIZE
        else:
            raise ProtocolError(f"unknown-header-id: {hid:#04x}")
    return found


# A frame's parse as ``ObexServer`` keeps it: a continuation frame's chunk,
# or any other frame's (opcode, headers).
_Parse = Union[memoryview,
               tuple[int, tuple[tuple[int, Union[str, int, memoryview]], ...]]]


def decode_frame(data: bytes) -> tuple[ObexFrame, bytes]:
    """Decode one frame; returns (frame, remainder-after-the-frame)."""
    opcode, total, pos = _frame_prefix(data)
    connect = None
    if opcode == CONNECT:
        connect = ConnectInfo(data[3], data[4], data[5] << 8 | data[6])
    headers = tuple(
        _HEADER_TYPES[hid](bytes(value) if isinstance(value, memoryview) else value)
        for hid, value in _headers(memoryview(data), pos, total))
    return ObexFrame(opcode, headers, connect), data[total:]


# -- chunking ------------------------------------------------------------


def first_frame_capacity(name: str, max_packet: int) -> int:
    """Payload bytes that fit in the sequence-opening frame."""
    overhead = (FRAME_PREFIX
                + VALUE_HEADER_PREFIX + len(_ascii_name(name))
                + U32_HEADER_SIZE
                + VALUE_HEADER_PREFIX)
    return max_packet - overhead


def continuation_capacity(max_packet: int) -> int:
    """Payload bytes that fit in each Body/EndOfBody-only frame."""
    return max_packet - FRAME_PREFIX - VALUE_HEADER_PREFIX


def _sequence(name: str, payload: bytes,
              max_packet: int) -> tuple[ObexFrame, int, range]:
    """(opening frame, continuation capacity, continuation chunk offsets).

    The opening frame holds Name + Length + the first chunk; the offsets
    are empty exactly when it is final.
    """
    if not name:
        raise ValueError("file name must be non-empty")
    first_cap = first_frame_capacity(name, max_packet)
    if first_cap < 0:
        raise ProtocolError("name too long for the packet size")
    # first_cap >= 0 needs max_packet >= 14 + len(name), and the name is not
    # empty, so every continuation frame holds at least 9 payload bytes.
    cont_cap = continuation_capacity(max_packet)
    head = (Name(name), Length(len(payload)))
    if len(payload) <= first_cap:
        opening = ObexFrame(PUT_FINAL, head + (EndOfBody(payload),))
    else:
        opening = ObexFrame(PUT, head + (Body(payload[:first_cap]),))
    return opening, cont_cap, range(first_cap, len(payload), cont_cap)


def put_frames(name: str, payload: bytes, max_packet: int) -> list[ObexFrame]:
    """Split a named payload into the PUT frame sequence for ``max_packet``.

    Linear in ``len(payload)``: every chunk is sliced once at its own
    offset, so the bytes copied add up to the payload size.
    """
    opening, cont_cap, starts = _sequence(name, payload, max_packet)
    frames = [opening]
    frames += [ObexFrame(PUT, (Body(payload[at:at + cont_cap]),))
               for at in starts[:-1]]
    if starts:
        frames.append(ObexFrame(PUT_FINAL, (EndOfBody(payload[starts[-1]:]),)))
    return frames


def _chunk_prefix(opcode: int, hid: int, size: int) -> bytes:
    """Frame prefix plus value-header prefix of a frame holding one chunk."""
    total = FRAME_PREFIX + VALUE_HEADER_PREFIX + size
    return bytes([opcode]) + total.to_bytes(2, "big") \
        + bytes([hid]) + size.to_bytes(2, "big")


def wire_frames(name: str, payload: bytes, max_packet: int) -> Iterator[bytes]:
    """The bytes of ``encode_frame(f) for f in put_frames(...)``, lazily.

    Only the opening frame goes through ``encode_frame``.  Each continuation
    frame is a fixed 6-byte prefix plus a view of the payload, so the
    payload itself is sliced only for the opening frame.
    """
    opening, cont_cap, starts = _sequence(name, payload, max_packet)
    yield encode_frame(opening)
    if not starts:
        return
    view = memoryview(payload)
    body = _chunk_prefix(PUT, HDR_BODY, cont_cap)
    for at in starts[:-1]:
        yield body + view[at:at + cont_cap]
    last = starts[-1]
    yield _chunk_prefix(PUT_FINAL, HDR_END_OF_BODY, len(payload) - last) \
        + view[last:]


@dataclass(frozen=True)
class PutSequence:
    """A named file's PUT sequence as the bytes of its frames, with the
    payload they carry.

    Encode it once per file with ``PutSequence.encode``; every push attempt
    then sends these same frames and offers ``payload`` to the server, which
    stores that one object in each inbox it delivers to (see
    ``ObexServer``).  ``payload`` is exactly ``bytes``, so no inbox shares a
    buffer that can change.  The sequence also holds the servers' parse of
    its frames, so each frame is checked once per sequence, by the first
    server it reaches, and the first reassembly a server joined and found
    equal to ``payload``; neither is part of the sequence's value.
    """

    name: str
    payload: bytes
    frames: tuple[bytes, ...]
    _parsed: dict[bytes, _Parse] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    _checked: list[tuple[bytes, list[memoryview]]] = field(
        default_factory=list, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("a PUT sequence needs at least one frame")
        if type(self.payload) is not bytes:
            raise TypeError("a PUT sequence's payload must be bytes")

    @property
    def size(self) -> int:
        """Payload bytes."""
        return len(self.payload)

    @classmethod
    def encode(cls, name: str, payload: bytes) -> PutSequence:
        """``wire_frames`` at ``DEFAULT_MAX_PACKET``, each frame checked
        against the packet size.  The payload is kept as ``bytes(payload)``,
        which copies nothing when it is ``bytes`` already and copies any
        other buffer, such as a ``bytearray``."""
        frames = tuple(wire_frames(name, payload, DEFAULT_MAX_PACKET))
        for raw in frames:
            if len(raw) > DEFAULT_MAX_PACKET:
                raise ProtocolError("frame exceeds the packet size")
        return cls(name, bytes(payload), frames)


# -- server side ------------------------------------------------------------


_RESPONSES = {opcode: encode_frame(ObexFrame(opcode))
              for opcode in (CONTINUE, SUCCESS, BAD_REQUEST, FORBIDDEN)}
_CONTINUE_FRAME = _RESPONSES[CONTINUE]
_CONNECT_FRAME = encode_frame(ObexFrame(CONNECT, (), ConnectInfo()))
_DISCONNECT_FRAME = encode_frame(ObexFrame(DISCONNECT))
# opcode, declared length, then the first header's id and value length
_CONTINUATION = struct.Struct(">BHBH")


class ObexServer:
    """Receiving side: reassembles PUT sequences into the device inbox.

    ``offered`` is the payload the client sends, or None; ``PushSession``
    sets it.  When a reassembled payload equals it, the inbox stores the
    offered object itself, so one file pushed to many devices is held once.

    ``parsed`` maps the bytes of each frame served to its parse: a
    continuation frame's chunk, or any other frame's opcode and headers.
    ``checked`` holds at most one ``(offered, chunks)`` pair: the first
    reassembly whose join equalled ``offered``.  ``PushSession`` sets both
    to the ``PutSequence``'s own, so the servers of every member share
    them for one sequence; a server built on its own starts with empty ones.
    """

    def __init__(self, device: RadioDevice) -> None:
        self.device = device
        self.offered: bytes | None = None
        self.parsed: dict[bytes, _Parse] = {}
        self.checked: list[tuple[bytes, list[memoryview]]] = []
        self._name: str | None = None
        self._chunks: list[memoryview] = []

    def _reset(self) -> None:
        self._name = None
        self._chunks = []

    def _reassembled(self, chunks: list[memoryview]) -> bytes:
        """What ``chunks`` reassemble to: ``offered`` when they join to it,
        else their join.

        Chunks equal, one by one, to a reassembly recorded in ``checked``
        for this same ``offered`` object join to equal bytes, so they are
        not joined again.  The views a memo hands out are the same objects
        for every server, so that compare is one identity test per chunk.
        Any other chunks are joined and compared; the first such list whose
        join equals an ``offered`` of type ``bytes`` is recorded, unless a
        chunk is a view of a buffer that can change.
        """
        offered, checked = self.offered, self.checked
        if checked and checked[0][0] is offered and chunks == checked[0][1]:
            return offered
        received = b"".join(chunks)
        if received != offered:
            return received
        if not checked and type(offered) is bytes \
                and {type(chunk.obj) for chunk in chunks} <= {bytes}:
            checked.append((offered, chunks))
        return offered  # frees the joined copy now

    def serve_push(self, raw: bytes) -> bytes:
        """Handle the bytes of one client frame; return the response's bytes.

        ``raw`` must hold exactly one frame; a malformed one raises the
        ``ProtocolError`` that ``decode_frame`` raises for it, before the
        server's state is touched.  The response is Continue for non-final
        PUT, Success after the final one (at which point the reassembled
        payload lands in the device inbox: the ``offered`` object when the
        two are equal, else the reassembled bytes), Forbidden when the device
        refuses pushes, BadRequest on a malformed sequence.

        A frame's parse depends on its bytes alone, so a ``bytes`` frame is
        looked up in ``parsed`` first, and parsed only when it is not there.
        A ``bytearray`` or ``memoryview`` frame is parsed every time and
        never stored: it is not hashable, or it can change.  To parse, a
        shape guard stands in front of the one parser: a PUT frame whose
        declared length is ``len(raw)`` and that holds exactly one Body
        header is a well-formed continuation, and its chunk is its parse.
        The guard is not a second parser: it accepts only frames the full
        parser accepts and raises no ``ProtocolError`` of its own.  Every
        other frame is parsed in full.  A frame that raises is not stored.
        A chunk sent while a sequence is open is taken straight after the
        power and refusal checks; sent to an idle server, it is answered
        like the one Body header it is.
        """
        keyed = type(raw) is bytes
        entry = self.parsed.get(raw) if keyed else None
        if entry is None:
            if len(raw) >= _CONTINUATION.size:
                opcode, total, hid, size = _CONTINUATION.unpack_from(raw)
                if opcode == PUT and hid == HDR_BODY and total == len(raw) \
                        and size == total - _CONTINUATION.size:
                    entry = memoryview(raw)[_CONTINUATION.size:]
            if entry is None:
                view = memoryview(raw)
                opcode, total, pos = _frame_prefix(view, whole=True)
                entry = opcode, tuple(_headers(view, pos, total))
            if keyed:
                self.parsed[raw] = entry
        device = self.device
        if not device.powered:
            raise PoweredOffError(f"{device.mac} is powered off")
        if type(entry) is memoryview:
            if self._name is not None:
                if device.refuse_push:
                    self._reset()
                    return _RESPONSES[FORBIDDEN]
                self._chunks.append(entry)
                return _RESPONSES[CONTINUE]
            entry = PUT, ((HDR_BODY, entry),)
        opcode, headers = entry
        if opcode in (CONNECT, DISCONNECT):
            self._reset()
            return _RESPONSES[SUCCESS]
        if opcode not in (PUT, PUT_FINAL):
            return _RESPONSES[BAD_REQUEST]
        if device.refuse_push:
            self._reset()
            return _RESPONSES[FORBIDDEN]

        name, chunks = self._name, self._chunks
        final = opcode == PUT_FINAL
        end_seen = False
        for hid, value in headers:
            if hid == HDR_NAME:
                if name is not None or end_seen or not value:
                    break
                name = value
            elif hid == HDR_BODY:
                if name is None or end_seen:
                    break
                chunks.append(value)
            elif hid == HDR_END_OF_BODY:
                if name is None or end_seen or not final:
                    break
                chunks.append(value)
                end_seen = True
            # Length and ConnectionId are advisory metadata.
        else:
            # EndOfBody is taken only after a Name and only in a final frame.
            if end_seen:
                device.inbox[name] = self._reassembled(chunks)
                self._reset()
                return _RESPONSES[SUCCESS]
            if not final and name is not None:
                self._name = name
                return _RESPONSES[CONTINUE]
        self._reset()
        return _RESPONSES[BAD_REQUEST]


# -- client side -------------------------------------------------------------


@dataclass(frozen=True)
class TransferOutcome:
    status: str  # delivered | refused | link-lost | connect-failed
    file_name: str
    payload_bytes: int
    frames_sent: int
    started_at: SimTime
    finished_at: SimTime

    @property
    def duration(self) -> SimTime:
        return self.finished_at - self.started_at

    @property
    def delivered(self) -> bool:
        return self.status == "delivered"


class PushSession:
    """One client push over an open piconet link.

    ``push_file`` runs the whole OBEX session: CONNECT, the PUT sequence,
    DISCONNECT after a delivery, and the link is closed on every path.
    Every frame fits ``DEFAULT_MAX_PACKET``, the packet size both ends use.
    The controller opens a fresh link and session per attempt.
    """

    def __init__(self, world: SimWorld, link: LinkHandle) -> None:
        self.world = world
        self.link = link
        self.server = ObexServer(world.device(link.slave))

    def _exchange(self, frames: tuple[bytes, ...]) -> tuple[int, int]:
        """Send ``frames`` in order until a reply is not Continue; return
        (frames sent, the last reply's opcode).

        A reply that is the module's own Continue frame is read by
        identity.  Any other reply, of any buffer type, is read through the
        frame prefix check, so a malformed one raises ``ProtocolError``.
        """
        serve = self.server.serve_push
        sent = 0
        for raw in frames:
            resp = serve(raw)
            sent += 1
            if resp is _CONTINUE_FRAME:
                continue
            opcode = _frame_prefix(resp, whole=True)[0]
            if opcode != CONTINUE:
                return sent, opcode
        return sent, CONTINUE

    def push_file(self, seq: PutSequence) -> TransferOutcome:
        """Send one encoded file and close the link; advances sim time by
        the transfer duration.

        Departures processed inside that window close the link and fail the
        transfer; nothing reaches the inbox unless the final frame is
        acknowledged with Success.
        """
        try:
            if not self.link.open:
                raise SimError("link is closed")
            self.server.offered = seq.payload
            self.server.parsed = seq._parsed
            self.server.checked = seq._checked
            self._exchange((_CONNECT_FRAME,))
            outcome = self._put(seq)
            if outcome.delivered:
                self._exchange((_DISCONNECT_FRAME,))
            return outcome
        finally:
            if self.link.open:
                self.world.disconnect(self.link)

    def _put(self, seq: PutSequence) -> TransferOutcome:
        """The PUT sequence of ``push_file``, on a connected session."""
        world = self.world
        slave = self.link.slave
        device = self.server.device
        name, size = seq.name, seq.size
        started = world.now
        world.emit("transfer_started", mac=slave, file=name, bytes=size)

        if device.refuse_push:
            # Refusal comes back on the first frame: only the session
            # overhead is spent, and only that frame is sent.
            world.advance(started + world.params.session_overhead)
            if device.powered:  # else it went off before replying: link lost
                sent, resp = self._exchange(seq.frames[:1])
                assert resp == FORBIDDEN
                world.emit("transfer_failed", mac=slave, file=name, reason="refused")
                return TransferOutcome("refused", name, size, sent,
                                       started, world.now)
        else:
            world.advance(started + transfer_duration(size, world.params))
        lost = not (self.link.open and device.powered
                    and device.present_at(world.now))
        if not lost and device.drop_transfers > 0:
            device.drop_transfers -= 1
            world.disconnect(self.link, reason="link-lost")
            lost = True
        loss = world.loss_probability
        if not lost and loss > 0 and world.rng.random() < loss:
            world.disconnect(self.link, reason="link-lost")
            lost = True
        if lost:
            world.emit("transfer_failed", mac=slave, file=name, reason="link-lost")
            return TransferOutcome("link-lost", name, size, 0,
                                   started, world.now)

        sent, resp = self._exchange(seq.frames)
        if sent < len(seq.frames) or resp != SUCCESS:
            world.emit("transfer_failed", mac=slave, file=name,
                       reason=f"response_{resp:#04x}")
            return TransferOutcome("link-lost", name, size, sent,
                                   started, world.now)
        world.emit("transfer_completed", mac=slave, file=name,
                   bytes=size, frames=sent)
        return TransferOutcome("delivered", name, size, sent,
                               started, world.now)
