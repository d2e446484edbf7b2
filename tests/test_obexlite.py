"""Push protocol: codec bijection, chunking, server reassembly, sessions."""

import gc
import itertools
import random
import sys
import weakref

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pidsim import obexlite
from pidsim.errors import PoweredOffError, ProtocolError
from pidsim.obexlite import (
    BAD_REQUEST,
    CONNECT,
    CONTINUE,
    DEFAULT_MAX_PACKET,
    DISCONNECT,
    FORBIDDEN,
    PUT,
    PUT_FINAL,
    SUCCESS,
    Body,
    ConnectInfo,
    ConnectionId,
    EndOfBody,
    Length,
    Name,
    ObexFrame,
    ObexServer,
    PushSession,
    PutSequence,
    continuation_capacity,
    decode_frame,
    encode_frame,
    first_frame_capacity,
    put_frames,
    wire_frames,
)
from pidsim.pidctl import Roster, run_proactive
from .conftest import LOCAL, ftp_record, make_device, make_world, mac
from .reference_obex import reference_decode
from .reference_server import ReferenceServer, decode_one

# -- golden frames, hand-derived from the layout table -----------------------

GOLDEN = [
    # default CONNECT: opcode, len=7, version 0x10, flags 0x00, max packet 0x0400
    ("80000710000400", ObexFrame(CONNECT, (), ConnectInfo())),
    # bare DISCONNECT and response frames are prefix-only
    ("810003", ObexFrame(DISCONNECT)),
    ("900003", ObexFrame(CONTINUE)),
    ("A00003", ObexFrame(SUCCESS)),
    ("C00003", ObexFrame(BAD_REQUEST)),
    ("C30003", ObexFrame(FORBIDDEN)),
    # PUT-final "a.txt", Length 0, empty EndOfBody:
    #   82 0013 | 01 0005 "a.txt" | C3 00000000 | 49 0000
    ("820013010005612E747874C30000000049" + "0000",
     ObexFrame(PUT_FINAL, (Name("a.txt"), Length(0), EndOfBody(b"")))),
    # PUT with one two-byte Body chunk: 02 0008 | 48 0002 "hi"
    ("02000848" + "00026869", ObexFrame(PUT, (Body(b"hi"),))),
    # ConnectionId 0xDEADBEEF: 02 0008 | CB DEADBEEF
    ("020008CBDEADBEEF", ObexFrame(PUT, (ConnectionId(0xDEADBEEF),))),
    # CONNECT with the largest max packet the 16-bit field holds
    ("8000071000FFFF", ObexFrame(CONNECT, (), ConnectInfo(max_packet=0xFFFF))),
]


def _plain(frame: ObexFrame):
    kinds = {Name: "name", Length: "length", Body: "body",
             EndOfBody: "end_of_body", ConnectionId: "connection_id"}
    headers = []
    for h in frame.headers:
        value = getattr(h, "text", None)
        if value is None:
            value = getattr(h, "data", None)
        if value is None:
            value = h.value
        headers.append((kinds[type(h)], value))
    connect = None
    if frame.connect is not None:
        connect = (frame.connect.version, frame.connect.flags,
                   frame.connect.max_packet)
    return {"opcode": frame.opcode, "connect": connect, "headers": headers}


@pytest.mark.parametrize("hex_text,frame", GOLDEN)
def test_golden_encode_bytes(hex_text, frame):
    assert encode_frame(frame) == bytes.fromhex(hex_text)


@pytest.mark.parametrize("hex_text,frame", GOLDEN)
def test_golden_reference_decoder_agrees(hex_text, frame):
    plain, rest = reference_decode(bytes.fromhex(hex_text))
    assert rest == b""
    assert plain == _plain(frame)


@pytest.mark.parametrize("hex_text,frame", GOLDEN)
def test_golden_decode_round_trip(hex_text, frame):
    decoded, rest = decode_frame(bytes.fromhex(hex_text))
    assert decoded == frame
    assert rest == b""


# -- codec properties ---------------------------------------------------------

_names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=0, max_size=30)
_headers = st.one_of(
    st.builds(Name, _names),
    st.builds(Length, st.integers(0, 2**32 - 1)),
    st.builds(Body, st.binary(max_size=120)),
    st.builds(EndOfBody, st.binary(max_size=120)),
    st.builds(ConnectionId, st.integers(0, 2**32 - 1)),
)
_connects = st.builds(ConnectInfo, st.integers(0, 255), st.integers(0, 255),
                      st.integers(0, 65_535))


@st.composite
def frames(draw):
    opcode = draw(st.sampled_from(sorted(
        {CONNECT, DISCONNECT, PUT, PUT_FINAL, CONTINUE, SUCCESS,
         BAD_REQUEST, FORBIDDEN})))
    headers = tuple(draw(st.lists(_headers, max_size=6)))
    connect = draw(_connects) if opcode == CONNECT else None
    return ObexFrame(opcode, headers, connect)


@given(frames())
def test_decode_encode_identity(frame):
    raw = encode_frame(frame)
    decoded, rest = decode_frame(raw)
    assert decoded == frame
    assert rest == b""


@given(frames())
def test_encode_decode_identity_on_valid_bytes(frame):
    raw = encode_frame(frame)
    assert encode_frame(decode_frame(raw)[0]) == raw


@given(frames())
def test_reference_decoder_cross_check(frame):
    plain, rest = reference_decode(encode_frame(frame))
    assert rest == b""
    assert plain == _plain(frame)


@given(frames(), st.binary(min_size=1, max_size=16))
def test_decode_reports_remainder(frame, garbage):
    decoded, rest = decode_frame(encode_frame(frame) + garbage)
    assert decoded == frame
    assert rest == garbage


# -- codec error cases ---------------------------------------------------------


def test_decode_rejects_short_input():
    for raw in (b"", b"\x90", b"\x90\x00"):
        with pytest.raises(ProtocolError, match="truncated-frame"):
            decode_frame(raw)


def test_decode_rejects_truncated_frame():
    raw = encode_frame(ObexFrame(PUT, (Body(b"abcdef"),)))
    with pytest.raises(ProtocolError, match="truncated-frame"):
        decode_frame(raw[:-1])


def test_decode_rejects_unknown_opcode():
    with pytest.raises(ProtocolError, match="unknown-opcode"):
        decode_frame(bytes([0x55, 0x00, 0x03]))


def test_decode_rejects_unknown_header_id():
    # prefix + bogus header id 0x7F
    raw = bytes([PUT, 0x00, 0x04, 0x7F])
    with pytest.raises(ProtocolError, match="unknown-header-id"):
        decode_frame(raw)


def test_decode_rejects_declared_length_below_minimum():
    with pytest.raises(ProtocolError, match="length-mismatch"):
        decode_frame(bytes([PUT, 0x00, 0x02]) + b"xx")


def test_decode_rejects_header_overrun():
    # Body header claims 5 value bytes but the frame ends after 2.
    raw = bytes([PUT, 0x00, 0x08, 0x48, 0x00, 0x05]) + b"ab"
    with pytest.raises(ProtocolError, match="length-mismatch"):
        decode_frame(raw)


# Every malformed frame above, plus the cases only raw bytes can hold.
MALFORMED = [
    ("empty", b"", "truncated-frame"),
    ("one-byte", b"\x90", "truncated-frame"),
    ("two-bytes", b"\x90\x00", "truncated-frame"),
    ("truncated", encode_frame(ObexFrame(PUT, (Body(b"abcdef"),)))[:-1],
     "truncated-frame"),
    ("unknown-opcode", bytes([0x55, 0x00, 0x03]), "unknown-opcode"),
    ("unknown-header-id", bytes([PUT, 0x00, 0x04, 0x7F]), "unknown-header-id"),
    ("below-minimum", bytes([PUT, 0x00, 0x02]) + b"xx", "length-mismatch"),
    ("header-value-overrun", bytes([PUT, 0x00, 0x08, 0x48, 0x00, 0x05]) + b"ab",
     "length-mismatch"),
    ("header-prefix-overrun", bytes([PUT, 0x00, 0x05, 0x48, 0x00]),
     "length-mismatch"),
    ("u32-overrun", bytes([PUT, 0x00, 0x06, 0xC3, 0x00, 0x00]),
     "length-mismatch"),
    ("connect-block-missing", bytes([CONNECT, 0x00, 0x03]), "length-mismatch"),
    ("non-ascii-name", bytes([PUT, 0x00, 0x08, 0x01, 0x00, 0x02]) + "é".encode(),
     "name is not ASCII"),
]


@pytest.mark.parametrize("raw,match", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_serve_push_rejects_malformed_frames_like_decode_frame(raw, match):
    with pytest.raises(ProtocolError, match=match) as decoded:
        decode_frame(raw)
    # The server is mid-sequence: a rejected frame must leave it untouched.
    server = _server()
    opening, final = put_frames("f.bin", bytes(100), 96)
    assert _respond(server, opening).opcode == CONTINUE
    with pytest.raises(ProtocolError, match=match) as served:
        server.serve_push(raw)
    assert str(served.value) == str(decoded.value)
    assert _respond(server, final).opcode == SUCCESS
    assert server.device.inbox == {"f.bin": bytes(100)}


def test_serve_push_rejects_bytes_after_the_declared_frame():
    raw = encode_frame(ObexFrame(PUT_FINAL, (Name("f"), EndOfBody(b"x")))) + b"\x00"
    assert decode_frame(raw)[1] == b"\x00"
    server = _server()
    with pytest.raises(ProtocolError, match="length-mismatch"):
        server.serve_push(raw)
    assert server.device.inbox == {}


@given(st.binary(max_size=64))
@example(encode_frame(ObexFrame(PUT, (Body(b"ab"),))))
@example(encode_frame(ObexFrame(PUT, (Body(b"ab"),))) + b"\x00")
@example(encode_frame(ObexFrame(PUT, (Body(b"ab"), Name("")))))
@example(bytes([PUT, 0x00, 0x09, 0x48, 0x00, 0x02]) + b"ab\x7f")
@example(bytes([PUT, 0x00, 0x04, 0x7F, 0x00]))
def test_serve_push_rejects_exactly_what_decode_frame_rejects(raw):
    # ``decode_one`` is ``decode_frame`` with the whole-frame length check
    # first: bytes after the declared frame are refused before any header.
    try:
        decode_one(raw)
    except ProtocolError as exc:
        want = str(exc)
    else:
        want = None
    server = _server()
    opening, final = put_frames("f.bin", bytes(100), 96)
    assert _respond(server, opening).opcode == CONTINUE
    try:
        resp = server.serve_push(raw)
    except ProtocolError as exc:
        got = str(exc)
    else:
        got = None
        assert resp in {encode_frame(ObexFrame(op))
                        for op in (CONTINUE, SUCCESS, BAD_REQUEST)}
    assert got == want
    if got is not None:
        # A rejected frame leaves the mid-sequence server untouched.
        assert _respond(server, final).opcode == SUCCESS
        assert server.device.inbox == {"f.bin": bytes(100)}


def test_encode_rejects_unknown_opcode():
    with pytest.raises(ProtocolError, match="unknown-opcode"):
        encode_frame(ObexFrame(0x11))


def test_encode_rejects_non_ascii_name():
    with pytest.raises(ProtocolError, match="ASCII"):
        encode_frame(ObexFrame(PUT, (Name("café.txt"),)))


def test_encode_rejects_oversize_frame():
    headers = tuple(Body(b"x" * 60_000) for _ in range(2))
    with pytest.raises(ProtocolError, match="oversize-frame"):
        encode_frame(ObexFrame(PUT, headers))
    # a frame of the largest declared length encodes; a header value that
    # fills its 16-bit field overflows the frame, and one byte more its field
    largest = obexlite.MAX_FRAME_LENGTH
    overhead = obexlite.FRAME_PREFIX + obexlite.VALUE_HEADER_PREFIX
    body = Body(bytes(largest - overhead))
    assert len(encode_frame(ObexFrame(PUT, (body,)))) == largest
    for size, message in [(0xFFFF, f"{0xFFFF + overhead} bytes exceeds 65535"),
                          (0x10000, "header value exceeds 65535 bytes")]:
        with pytest.raises(ProtocolError, match=f"^oversize-frame: {message}$"):
            encode_frame(ObexFrame(PUT, (Body(bytes(size)),)))


def test_encode_requires_connect_block_exactly_for_connect():
    with pytest.raises(ProtocolError):
        encode_frame(ObexFrame(CONNECT))
    with pytest.raises(ProtocolError):
        encode_frame(ObexFrame(PUT, (), ConnectInfo()))


# -- chunking -----------------------------------------------------------------


def test_empty_payload_single_final_frame():
    frames_out = put_frames("cpi.txt", b"", 1024)
    assert len(frames_out) == 1
    frame = frames_out[0]
    assert frame.opcode == PUT_FINAL
    assert frame.headers == (Name("cpi.txt"), Length(0), EndOfBody(b""))


def test_one_byte_over_first_capacity_gives_two_frames():
    cap = first_frame_capacity("cpi.txt", 1024)
    assert len(put_frames("cpi.txt", b"x" * cap, 1024)) == 1
    frames_out = put_frames("cpi.txt", b"x" * (cap + 1), 1024)
    assert len(frames_out) == 2
    assert frames_out[0].opcode == PUT
    assert frames_out[1].opcode == PUT_FINAL
    assert frames_out[1].headers == (EndOfBody(b"x"),)


def test_every_put_frame_fits_max_packet():
    rng = random.Random(5)
    for max_packet in (64, 100, 1024):
        for _ in range(40):
            payload = rng.randbytes(rng.randrange(0, 4 * max_packet))
            for frame in put_frames("f.bin", payload, max_packet):
                assert len(encode_frame(frame)) <= max_packet


def _frame_count(name: str, size: int, max_packet: int) -> int:
    """Frames in the PUT sequence of ``size`` bytes: an independent ceiling."""
    first_cap = first_frame_capacity(name, max_packet)
    if size <= first_cap:
        return 1
    cont_cap = continuation_capacity(max_packet)
    return 1 + (size - first_cap + cont_cap - 1) // cont_cap


def test_frame_count_formula_brute_force():
    """Sweep every payload size across four packets' worth of boundaries."""
    name = "notes.txt"
    for max_packet in (96, 255, 1024):
        for size in range(0, 4 * max_packet + 1):
            frames_out = put_frames(name, bytes(size), max_packet)
            assert len(frames_out) == _frame_count(name, size, max_packet), \
                (max_packet, size)


def _respond(server: ObexServer, frame: ObexFrame) -> ObexFrame:
    """Send one frame's bytes to ``server``; decode the response's bytes."""
    response, rest = decode_frame(server.serve_push(encode_frame(frame)))
    assert rest == b""
    return response


def test_reassembly_equals_original_across_sizes():
    """Body/EndOfBody chunks concatenate back to the payload for every size
    in 0..4*max_packet (server-side reassembly, compact packet)."""
    max_packet = 96
    rng = random.Random(11)
    device = make_device(mac(1))
    server = ObexServer(device)
    for size in range(0, 4 * max_packet + 1):
        payload = rng.randbytes(size)
        responses = [_respond(server, f)
                     for f in put_frames("blob.bin", payload, max_packet)]
        assert all(r.opcode == CONTINUE for r in responses[:-1])
        assert responses[-1].opcode == SUCCESS
        assert device.inbox["blob.bin"] == payload


def test_name_too_long_for_packet():
    with pytest.raises(ProtocolError, match="name too long"):
        put_frames("x" * 100, b"", 64)


@pytest.mark.parametrize("name", ["n", "name.bin"])
def test_the_smallest_packet_for_a_name_is_14_bytes_more(name):
    # Frame, Name, Length and Body prefixes: the opening frame then holds
    # no payload, and each continuation frame 8 + len(name) bytes.
    smallest = 14 + len(name)
    payload = bytes(range(40))
    frames = put_frames(name, payload, smallest)
    assert first_frame_capacity(name, smallest) == 0
    assert frames[0].headers[2] == Body(b"")
    assert all(len(encode_frame(f)) <= smallest for f in frames)
    assert len(frames) == 1 + -(-len(payload) // (8 + len(name)))
    wired = list(wire_frames(name, payload, smallest))
    assert wired == [encode_frame(f) for f in frames]
    server = _server()
    assert [decode_frame(server.serve_push(raw))[0].opcode
            for raw in wired][-1] == SUCCESS
    assert server.device.inbox == {name: payload}
    for chunker in (put_frames, wire_frames):
        with pytest.raises(ProtocolError, match="name too long"):
            list(chunker(name, payload, smallest - 1))


def test_non_ascii_name_capacity_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="name is not ASCII"):
        first_frame_capacity("h\u00e9.txt", 1024)
    with pytest.raises(ProtocolError, match="name is not ASCII"):
        put_frames("h\u00e9.txt", b"x", 1024)


class SliceCounter(bytes):
    """A payload that adds up the length of every slice it hands out.

    Slices are counters sharing the same tally, so a chunker that re-slices
    the remainder of a slice is charged for every copy it makes.
    """

    def __new__(cls, data: bytes, tally: list[int] | None = None):
        obj = super().__new__(cls, data)
        obj.tally = tally if tally is not None else [0]
        return obj

    def __getitem__(self, key):
        piece = super().__getitem__(key)
        if not isinstance(key, slice):
            return piece
        self.tally[0] += len(piece)
        return SliceCounter(piece, self.tally)


def _resliced_put_frames(name, payload, max_packet):
    """The former chunker, which re-sliced the remainder after every chunk."""
    first_cap = first_frame_capacity(name, max_packet)
    cont_cap = continuation_capacity(max_packet)
    if len(payload) <= first_cap:
        return [ObexFrame(PUT_FINAL,
                          (Name(name), Length(len(payload)), EndOfBody(payload)))]
    frames_out = [ObexFrame(PUT, (Name(name), Length(len(payload)),
                                  Body(payload[:first_cap])))]
    rest = payload[first_cap:]
    while len(rest) > cont_cap:
        frames_out.append(ObexFrame(PUT, (Body(rest[:cont_cap]),)))
        rest = rest[cont_cap:]
    frames_out.append(ObexFrame(PUT_FINAL, (EndOfBody(rest),)))
    return frames_out


def test_put_frames_identical_to_reslicing_chunker():
    rng = random.Random(3)
    for max_packet in (64, 96, 1024):
        payload = rng.randbytes(3 * max_packet)
        for size in range(0, len(payload) + 1):
            assert put_frames("a.bin", payload[:size], max_packet) \
                == _resliced_put_frames("a.bin", payload[:size], max_packet)


def test_put_frames_slices_each_payload_byte_once():
    payload = SliceCounter(bytes(8 << 20))
    frames_out = put_frames("big.bin", payload, 1024)
    assert len(frames_out) == _frame_count("big.bin", len(payload), 1024)
    assert payload.tally[0] <= len(payload)


@st.composite
def pushes(draw):
    """(name, payload, max_packet): up to ~5 packets, chunk edges included."""
    name = draw(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                        min_size=1, max_size=30))
    # from the smallest packet whose opening frame holds the name
    max_packet = draw(st.integers(-first_frame_capacity(name, 0), 1024))
    first_cap = first_frame_capacity(name, max_packet)
    cont_cap = continuation_capacity(max_packet)
    edge = first_cap + draw(st.integers(0, 4)) * cont_cap
    size = draw(st.one_of(st.integers(0, 5 * max_packet),
                          st.sampled_from([max(edge - 1, 0), edge, edge + 1])))
    payload = random.Random(draw(st.integers(0, 2**32))).randbytes(size)
    return name, payload, max_packet


@given(pushes())
def test_wire_frames_are_the_codec_bytes_and_reassemble(push):
    name, payload, max_packet = push
    wire = list(wire_frames(name, payload, max_packet))
    assert wire == [encode_frame(f) for f in put_frames(name, payload, max_packet)]
    server = _server()
    codes = [decode_frame(server.serve_push(raw))[0].opcode for raw in wire]
    assert codes == [CONTINUE] * (len(wire) - 1) + [SUCCESS]
    assert server.device.inbox == {name: payload}


def test_multi_megabyte_chunks_join_to_payload():
    payload = random.Random(8).randbytes(3 << 20)
    frames_out = put_frames("big.bin", payload, 1024)
    assert len(frames_out) == _frame_count("big.bin", len(payload), 1024)
    assert [f.opcode for f in frames_out] \
        == [PUT] * (len(frames_out) - 1) + [PUT_FINAL]
    chunks = [h.data for f in frames_out for h in f.headers
              if isinstance(h, (Body, EndOfBody))]
    assert b"".join(chunks) == payload


# -- server behavior -----------------------------------------------------------


def _server(**device_kwargs):
    return ObexServer(make_device(mac(1), **device_kwargs))


def test_serve_push_three_frame_sequence():
    server = _server()
    payload = bytes(range(200))
    seq = put_frames("f.bin", payload, 96)
    assert len(seq) >= 3
    codes = [_respond(server, f).opcode for f in seq]
    assert codes[:-1] == [CONTINUE] * (len(seq) - 1)
    assert codes[-1] == SUCCESS
    assert server.device.inbox["f.bin"] == payload


def test_serve_push_end_of_body_without_name_is_bad_request():
    server = _server()
    resp = _respond(server, ObexFrame(PUT_FINAL, (EndOfBody(b"x"),)))
    assert resp.opcode == BAD_REQUEST
    assert server.device.inbox == {}


def test_serve_push_body_before_name_is_bad_request():
    server = _server()
    resp = _respond(server, ObexFrame(PUT, (Body(b"x"),)))
    assert resp.opcode == BAD_REQUEST


def test_serve_push_empty_name_is_bad_request():
    server = _server()
    resp = _respond(server, ObexFrame(PUT_FINAL, (Name(""), EndOfBody(b""))))
    assert resp.opcode == BAD_REQUEST


def test_serve_push_end_of_body_must_be_final():
    server = _server()
    resp = _respond(server, ObexFrame(PUT, (Name("f"), EndOfBody(b"x"))))
    assert resp.opcode == BAD_REQUEST


def test_serve_push_final_without_end_of_body_is_bad_request():
    server = _server()
    assert _respond(server, ObexFrame(PUT, (Name("f"), Body(b"a")))).opcode == CONTINUE
    resp = _respond(server, ObexFrame(PUT_FINAL, (Body(b"b"),)))
    assert resp.opcode == BAD_REQUEST


def test_serve_push_refusing_device_forbidden_on_first_frame():
    server = _server(refuse_push=True)
    first = put_frames("f.bin", b"data", 1024)[0]
    assert _respond(server, first).opcode == FORBIDDEN
    assert server.device.inbox == {}


def test_serve_push_requires_power():
    server = _server(powered=False)
    with pytest.raises(PoweredOffError):
        _respond(server, ObexFrame(CONNECT, (), ConnectInfo()))


def test_serve_push_aborted_sequence_leaves_no_inbox_entry():
    server = _server()
    seq = put_frames("f.bin", bytes(300), 96)
    _respond(server, seq[0])
    assert server.device.inbox == {}
    # a Name mid-sequence is malformed; the server rejects and resets
    first_retry = put_frames("g.bin", b"ok", 96)[0]
    assert _respond(server, first_retry).opcode == BAD_REQUEST
    assert server.device.inbox == {}
    # after the reset a complete fresh sequence goes through
    done = [_respond(server, f) for f in put_frames("g.bin", b"ok", 96)]
    assert done[-1].opcode == SUCCESS
    assert server.device.inbox == {"g.bin": b"ok"}


def _near_continuations(chunk: bytes, opcode: int, hid: int, extra: int,
                        second: bytes, cut: int) -> dict[str, bytes]:
    """A valid PUT/Body continuation frame and its one-edit mutations."""
    valid = encode_frame(ObexFrame(PUT, (Body(chunk),)))

    def edit(at: int, value: bytes, raw: bytes = valid) -> bytes:
        return raw[:at] + value + raw[at + len(value):]

    size, declared = len(chunk), len(valid)
    with_second = valid + second
    return {
        "valid": valid,
        "opcode-put-final": edit(0, bytes([PUT_FINAL])),
        "opcode-drawn": edit(0, bytes([opcode])),
        "declared+1": edit(1, (declared + 1).to_bytes(2, "big")),
        "declared-1": edit(1, (declared - 1).to_bytes(2, "big")),
        "header-end-of-body": edit(3, bytes([obexlite.HDR_END_OF_BODY])),
        "header-name": edit(3, bytes([obexlite.HDR_NAME])),
        "header-drawn": edit(3, bytes([hid])),
        "body+1": edit(4, (size + 1).to_bytes(2, "big")),
        "body-1": edit(4, ((size - 1) % 0x10000).to_bytes(2, "big")),
        "empty-body": encode_frame(ObexFrame(PUT, (Body(b""),))),
        "trailing-byte": valid + bytes([extra]),
        "second-header": edit(1, len(with_second).to_bytes(2, "big"),
                              with_second),
        "truncated": valid[:cut % len(valid)],
    }


SECOND_HEADERS = [
    encode_frame(ObexFrame(PUT, (header,)))[3:]
    for header in (Body(b"x"), Body(b""), EndOfBody(b"e"), Name("n"),
                   Name(""), Length(5), ConnectionId(7))
] + [bytes([0x7F])]

SERVER_STATES = [(warm, opened, condition) for warm in (False, True)
                 for opened in (False, True)
                 for condition in ("ready", "refusing", "powered-off")]


def _served(serve, raw: bytes):
    """The response bytes of ``serve(raw)``, or what it raised."""
    try:
        return serve(raw)
    except (ProtocolError, PoweredOffError) as exc:
        return type(exc), str(exc)


@given(chunk=st.binary(max_size=40) | st.text("abc\x00\x7f", max_size=8).map(
           str.encode),
       opcode=st.integers(0, 0xFF), hid=st.integers(0, 0xFF),
       extra=st.integers(0, 0xFF), second=st.sampled_from(SECOND_HEADERS),
       cut=st.integers(0, 0xFF),
       offer=st.sampled_from(["none", "equal", "one-byte", "longer"]))
def test_serve_push_answers_near_continuation_frames_like_the_reference(
        chunk, opcode, hid, extra, second, cut, offer):
    """Every frame one edit away from a continuation frame, sent to a
    server idle or mid-sequence, ready, refusing or powered off, gets the
    reference's response or exception, and leaves the same state behind.
    The server is offered nothing, the valid sequence's payload, or bytes
    that differ from it; its inbox still equals the reference's.  The
    server starts with no parsed frames, or with the memo and the recorded
    reassembly of another server, offered the same object, that was sent
    the valid sequence and then the frame under test inside one."""
    opening = encode_frame(ObexFrame(PUT, (Name("f.bin"), Length(3),
                                           Body(b"ab"))))
    final = encode_frame(ObexFrame(PUT_FINAL, (EndOfBody(b"z"),)))
    frames = _near_continuations(chunk, opcode, hid, extra, second, cut)
    sent = b"ab" + chunk + b"z"
    offered = {"none": None, "equal": sent, "one-byte": sent[:-1] + b"y",
               "longer": sent + b"z"}[offer]
    for warm, opened, condition in SERVER_STATES:
        for label, raw in frames.items():
            server = _server()
            server.offered = offered
            if warm:
                warmer = _server()
                warmer.offered = offered
                warmer.parsed, warmer.checked = server.parsed, server.checked
                for frame in (opening, frames["valid"], final,
                              opening, raw, final):
                    _served(warmer.serve_push, frame)
                # the valid sequence's join is recorded iff it is the offer
                assert [rec for rec, _ in server.checked] \
                    == ([offered] if offer == "equal" else [])
            reference = ReferenceServer(make_device(mac(1)))
            servers = [(server.serve_push, server.device),
                       (reference.serve, reference.device)]
            results = []
            for serve, device in servers:
                if opened:
                    assert serve(opening) == encode_frame(ObexFrame(CONTINUE))
                device.refuse_push = condition == "refusing"
                device.powered = condition != "powered-off"
                got = _served(serve, raw)
                device.refuse_push, device.powered = False, True
                results.append((got, _served(serve, final), device.inbox))
            assert results[0] == results[1], (warm, opened, condition, label,
                                              raw)
            assert all(type(v) is bytes for v in server.device.inbox.values())
            if (label, opened, condition) == ("valid", True, "ready"):
                assert results[0][0] == encode_frame(ObexFrame(CONTINUE))
                assert results[0][2] == {"f.bin": sent}
                assert (server.device.inbox["f.bin"] is offered) \
                    == (offer == "equal")


# -- the parse memo --------------------------------------------------------------


def _session_frames(payload: bytes) -> list[bytes]:
    """Every frame of one push of ``payload``: CONNECT, the PUT sequence
    and DISCONNECT."""
    return [encode_frame(ObexFrame(CONNECT, (), ConnectInfo())),
            *PutSequence.encode("f.bin", payload).frames,
            encode_frame(ObexFrame(DISCONNECT))]


def _answers(server: ObexServer, frames) -> tuple[list, dict]:
    """What ``server`` answers to each frame in turn, and its inbox after."""
    return [_served(server.serve_push, raw) for raw in frames], \
        server.device.inbox


@pytest.mark.parametrize("order", list(itertools.permutations(
    ["ready", "refusing", "powered-off"])))
def test_one_memo_serves_ready_refusing_and_powered_off_servers_alike(order):
    payload = random.Random(10).randbytes(3000)
    frames = _session_frames(payload)
    memo = {}
    for condition in order:
        answers = []
        for parsed in (memo, {}):
            server = _server(refuse_push=condition == "refusing",
                             powered=condition != "powered-off")
            server.offered = payload
            server.parsed = parsed
            answers.append(_answers(server, frames))
        assert answers[0] == answers[1], condition
    assert len(memo) == len(set(frames)) == len(frames)


@pytest.mark.parametrize("wrap", [
    bytearray, memoryview, lambda raw: memoryview(bytearray(raw))],
    ids=["bytearray", "memoryview", "writable-memoryview"])
def test_a_frame_that_is_not_bytes_is_served_like_its_bytes_but_not_kept(wrap):
    payload = random.Random(11).randbytes(3000)
    frames = _session_frames(payload)
    plain = _server()
    plain.offered = payload
    expected = _answers(plain, frames)
    assert expected[1] == {"f.bin": payload}
    # a fresh memo, or one already holding every frame's bytes
    for parsed in ({}, plain.parsed):
        kept = dict(parsed)
        server = _server()
        server.offered = payload
        server.parsed = parsed
        assert _answers(server, map(wrap, frames)) == expected
        assert parsed.keys() == kept.keys()
        assert all(parsed[raw] is entry for raw, entry in kept.items())
        assert all(type(raw) is bytes for raw in parsed)


def test_a_run_checks_each_frame_once_and_keeps_no_parse(monkeypatch):
    """The members' servers share the sequence's memo: it ends with one
    entry per distinct frame sent, no frame's headers are walked twice,
    and nothing of it outlives the run."""
    sequences, sent, memos, walked = [], [], [], []

    def encode(name, payload, _encode=PutSequence.encode):
        sequences.append(_encode(name, payload))
        return sequences[-1]

    def serve_push(self, raw, _serve=ObexServer.serve_push):
        sent.append(raw)
        memos.append(self.parsed)
        return _serve(self, raw)

    def headers(view, pos, total, _headers=obexlite._headers):
        walked.append(bytes(view))
        return _headers(view, pos, total)

    monkeypatch.setattr(PutSequence, "encode", encode)
    monkeypatch.setattr(ObexServer, "serve_push", serve_push)
    monkeypatch.setattr(obexlite, "_headers", headers)
    w = make_world(n_others=4, ftp=True)
    w.device(mac(2)).drop_transfers = 1
    payload = random.Random(12).randbytes(20_000)
    report = run_proactive(w, _ftp_roster(4), ("f.bin", payload), local=LOCAL)
    assert report.delivered_count == 4
    [seq] = sequences
    memo = seq._parsed
    assert all(parsed is memo for parsed in memos)
    assert len(sent) > 4 * len(seq.frames)
    assert set(memo) == set(sent)
    assert len(walked) == len(set(walked)) == 4  # CONNECT, opening, final, DISCONNECT
    chunk = weakref.ref(memo[seq.frames[1]])
    del sequences[:], memos[:], seq, memo
    gc.collect()
    assert chunk() is None


def test_only_chunks_equal_to_the_recorded_reassembly_skip_the_join():
    """A server stores the offer unjoined only when its chunks equal, one
    by one, a reassembly recorded for that same offered object."""
    payload = random.Random(13).randbytes(5000)
    seq = PutSequence.encode("f.bin", payload)
    twin = PutSequence.encode("f.bin", bytes(bytearray(payload)))
    assert twin.payload is not seq.payload

    def deliver(offered, frames, checked=seq._checked):
        server = _server()
        server.offered, server.parsed, server.checked = \
            offered, seq._parsed, checked
        codes = [decode_frame(server.serve_push(raw))[0].opcode
                 for raw in frames]
        assert codes[-1] == SUCCESS
        return server.device.inbox["f.bin"]

    assert deliver(payload, seq.frames) is payload
    [(recorded, chunks)] = seq._checked
    assert recorded is payload and len(chunks) == len(seq.frames)
    # the memo's own views, so a later match is one identity test per chunk
    assert all(chunk is seq._parsed[raw]
               for chunk, raw in zip(chunks[1:-1], seq.frames[1:-1]))
    # another sequence's frames of equal bytes, or writable copies of them
    writable = [bytearray(raw) for raw in seq.frames]
    assert deliver(payload, twin.frames) is payload
    assert deliver(payload, writable) is payload
    # an offer that is another object is joined and compared
    assert deliver(twin.payload, seq.frames) is twin.payload
    other = payload[:-1] + bytes([payload[-1] ^ 1])
    kept = deliver(other, seq.frames)
    assert kept == payload and kept is not other
    # chunks that differ from the recorded ones are joined, not matched
    writable[-1][-1] ^= 1
    changed = deliver(payload, writable)
    assert type(changed) is bytes and changed == other
    [(same, still)] = seq._checked
    assert same is recorded and still is chunks
    # views of a buffer that can change, or an offer that can, are never
    # recorded: a later change to either would go unseen
    checked = []
    assert deliver(payload, [bytearray(raw) for raw in seq.frames],
                   checked) is payload
    offer = bytearray(payload)
    assert deliver(offer, twin.frames, checked) is offer
    assert checked == []


# -- shared inboxes -------------------------------------------------------------


def _ftp_roster(members: int) -> Roster:
    return Roster("NCP-101", frozenset(mac(i) for i in range(1, members + 1)),
                  course_start=240_000)


def test_every_inbox_is_the_payload_that_was_sent():
    payload = random.Random(5).randbytes(1 << 20)
    w = make_world(n_others=4, ftp=True)
    report = run_proactive(w, _ftp_roster(4), ("big.bin", payload), local=LOCAL)
    assert report.delivered_count == 4
    for i in range(1, 5):
        assert w.device(mac(i)).inbox["big.bin"] is payload


@pytest.mark.parametrize("change", ["equal", "one-byte", "shorter", "longer"])
def test_a_server_stores_the_offer_only_when_it_reassembles_it(change):
    payload = random.Random(6).randbytes(5000)
    offered = {"equal": bytes(bytearray(payload)),
               "one-byte": payload[:-1] + bytes([payload[-1] ^ 1]),
               "shorter": payload[:-1], "longer": payload + b"\0"}[change]
    server = _server()
    server.offered = offered
    codes = [decode_frame(server.serve_push(raw))[0].opcode
             for raw in wire_frames("f.bin", payload, DEFAULT_MAX_PACKET)]
    assert codes[-1] == SUCCESS
    stored = server.device.inbox["f.bin"]
    assert stored == payload and type(stored) is bytes
    assert (stored is offered) == (change == "equal")


def test_a_bytearray_payload_is_copied_once_and_never_shared():
    payload = bytearray(random.Random(7).randbytes(64 << 10))
    sent = bytes(payload)
    w = make_world(n_others=3, ftp=True)
    report = run_proactive(w, _ftp_roster(3), ("f.bin", payload), local=LOCAL)
    assert report.delivered_count == 3
    payload[:] = bytes(len(payload))
    payload += b"more"
    inboxes = [w.device(mac(i)).inbox["f.bin"] for i in range(1, 4)]
    assert all(type(v) is bytes and v == sent for v in inboxes)
    assert inboxes[1] is inboxes[0] and inboxes[2] is inboxes[0]
    with pytest.raises(TypeError, match="must be bytes"):
        PutSequence("f.bin", bytearray(b"ab"), (b"frame",))


# -- client sessions ------------------------------------------------------------


def _linked_world(**target_kwargs):
    w = make_world(n_others=0, seed=3)
    target_kwargs.setdefault("services", [ftp_record(mac(1))])
    w.add_device(make_device(mac(1), "target", 2.0, 0.0, **target_kwargs))
    link = w.connect(LOCAL, mac(1))
    return w, link


def _recording_sends(monkeypatch):
    """Record the bytes of every frame a session sends."""
    sent = []

    def serve_push(self, raw, _serve=ObexServer.serve_push):
        sent.append(raw)
        return _serve(self, raw)

    monkeypatch.setattr(ObexServer, "serve_push", serve_push)
    return sent


def _push(session, name, payload):
    return session.push_file(PutSequence.encode(name, payload))


def test_push_file_stores_payload_verbatim(monkeypatch):
    w, link = _linked_world()
    sent = _recording_sends(monkeypatch)
    payload = b"A" * 5000
    outcome = _push(PushSession(w, link), "cpi.txt", payload)
    assert outcome.delivered
    assert w.device(mac(1)).inbox["cpi.txt"] == payload
    assert outcome.frames_sent == len(put_frames("cpi.txt", payload, 1024))
    assert outcome.duration == 100 + -(-5000 * 8 * 1000 // 3_000_000)
    # one call is the whole session: CONNECT, the PUT sequence, DISCONNECT
    assert [raw[0] for raw in sent] \
        == [CONNECT] + [PUT] * (outcome.frames_sent - 1) + [PUT_FINAL, DISCONNECT]
    assert not link.open


def test_push_file_empty_payload_one_frame():
    w, link = _linked_world()
    outcome = _push(PushSession(w, link), "cpi.txt", b"")
    assert outcome.delivered and outcome.frames_sent == 1
    assert w.device(mac(1)).inbox["cpi.txt"] == b""
    assert not link.open


def test_push_file_refused_no_inbox_entry(monkeypatch):
    w, link = _linked_world(refuse_push=True)
    sent = _recording_sends(monkeypatch)
    outcome = _push(PushSession(w, link), "cpi.txt", b"data")
    assert outcome.status == "refused"
    assert w.device(mac(1)).inbox == {}
    # refusal comes back on the first frame: only session overhead elapsed
    assert outcome.duration == w.params.session_overhead
    # a failed push sends no DISCONNECT, but the link is closed
    assert [raw[0] for raw in sent] == [CONNECT, PUT_FINAL]
    assert not link.open


def test_put_sequence_is_the_wire_frames_checked_against_the_packet_size():
    payload = random.Random(4).randbytes(5000)
    seq = PutSequence.encode("cpi.txt", payload)
    assert seq.name == "cpi.txt" and seq.size == len(payload)
    assert list(seq.frames) == list(wire_frames("cpi.txt", payload,
                                                DEFAULT_MAX_PACKET))
    assert max(map(len, seq.frames)) == DEFAULT_MAX_PACKET
    with pytest.raises(ValueError, match="non-empty"):
        PutSequence.encode("", b"abc")


def test_put_sequence_refuses_no_frames():
    with pytest.raises(ValueError, match="at least one frame"):
        PutSequence("f", 0, ())
    # encode always yields the opening frame, even for an empty payload
    assert len(PutSequence.encode("f", b"").frames) == 1


def test_refused_push_sends_only_the_opening_frame(monkeypatch):
    w, link = _linked_world(refuse_push=True)
    encoded = []

    def recording_encode(frame, _encode=obexlite.encode_frame):
        encoded.append(frame)
        return _encode(frame)

    monkeypatch.setattr(obexlite, "encode_frame", recording_encode)
    payload = SliceCounter(bytes(64 << 10))
    seq = PutSequence.encode("cpi.txt", payload)
    assert len(seq.frames) > 1
    sent = _recording_sends(monkeypatch)
    outcome = PushSession(w, link).push_file(seq)
    assert outcome.status == "refused" and outcome.frames_sent == 1
    assert outcome.duration == w.params.session_overhead
    assert sent[1:] == [seq.frames[0]] and sent[1] is seq.frames[0]
    # only the opening frame goes through the codec, and only when the
    # sequence is encoded: the push itself encodes and slices nothing
    assert [f.opcode for f in encoded] == [PUT]
    assert payload.tally[0] == first_frame_capacity("cpi.txt", 1024)


def test_put_sequence_slices_the_payload_only_for_the_opening_frame():
    w, link = _linked_world()
    payload = SliceCounter(random.Random(9).randbytes(100 << 10))
    seq = PutSequence.encode("cpi.txt", payload)
    assert payload.tally[0] <= first_frame_capacity("cpi.txt", DEFAULT_MAX_PACKET)
    outcome = PushSession(w, link).push_file(seq)
    assert outcome.delivered
    assert w.device(mac(1)).inbox["cpi.txt"] == payload
    assert payload.tally[0] <= first_frame_capacity("cpi.txt", DEFAULT_MAX_PACKET)


def test_push_file_link_lost_when_target_departs_mid_transfer(monkeypatch):
    w = make_world(n_others=0, seed=3)
    w.add_device(make_device(mac(1), "target", 2.0, 0.0, departure=150,
                             services=[ftp_record(mac(1))]))
    link = w.connect(LOCAL, mac(1))
    sent = _recording_sends(monkeypatch)
    # 375 kB takes 1100 ms > the 150 ms the device sticks around
    outcome = _push(PushSession(w, link), "big.bin", bytes(375_000))
    assert outcome.status == "link-lost"
    assert outcome.frames_sent == 0 and [raw[0] for raw in sent] == [CONNECT]
    assert w.device(mac(1)).inbox == {}
    assert not link.open


def test_push_file_scripted_drop_consumes_one_failure():
    w, link = _linked_world(drop_transfers=1)
    outcome = _push(PushSession(w, link), "f.bin", b"abc")
    assert outcome.status == "link-lost"
    assert w.device(mac(1)).inbox == {}
    assert not link.open
    # the drop budget is spent: a fresh session succeeds
    link2 = w.connect(LOCAL, mac(1))
    assert _push(PushSession(w, link2), "f.bin", b"abc").delivered


def test_push_file_closes_the_link_when_it_raises():
    w, link = _linked_world()
    w.device(mac(1)).powered = False  # the server raises on CONNECT
    with pytest.raises(PoweredOffError):
        _push(PushSession(w, link), "cpi.txt", b"abc")
    assert not link.open
    assert w.device(mac(1)).inbox == {}


class _StubServer:
    """A real server whose replies ``reply(put_number, response)`` may
    replace, counting the PUT frames it is sent from 0."""

    def __init__(self, device, reply):
        self.inner = ObexServer(device)
        self.device = device
        self.reply = reply
        self.puts = 0

    def serve_push(self, raw):
        resp = self.inner.serve_push(raw)
        if raw[0] not in (PUT, PUT_FINAL):
            return resp
        self.puts += 1
        return self.reply(self.puts - 1, resp)


def test_push_file_fails_on_a_bad_request_mid_sequence():
    w, link = _linked_world()
    session = PushSession(w, link)
    bad = encode_frame(ObexFrame(BAD_REQUEST))
    session.server = _StubServer(
        session.server.device, lambda n, resp: bad if n == 3 else resp)
    outcome = _push(session, "cpi.txt", bytes(10_000))
    assert outcome.status == "link-lost" and outcome.frames_sent == 4
    failed = [e for e in w.log if e.name == "transfer_failed"]
    assert [dict(e.fields)["reason"] for e in failed] == ["response_0xc0"]
    assert not any(e.name == "transfer_completed" for e in w.log)
    assert w.device(mac(1)).inbox == {}
    assert not link.open


def test_push_file_rejects_a_reply_with_a_trailing_byte():
    w, link = _linked_world()
    session = PushSession(w, link)
    session.server = _StubServer(session.server.device,
                                 lambda n, resp: resp + b"\x00")
    with pytest.raises(ProtocolError,
                       match="^length-mismatch: declared 3 bytes, have 4$"):
        _push(session, "cpi.txt", bytes(10_000))
    assert session.server.puts == 1
    assert not link.open


def _bytearray_replies(session, change):
    """Make every reply of ``session``'s server, CONNECT and DISCONNECT
    included, come back as ``change(bytearray(reply))``; return the list
    the replies are kept in."""
    serve, replies = session.server.serve_push, []

    def serve_push(raw):
        replies.append(change(bytearray(serve(raw))))
        return replies[-1]

    session.server.serve_push = serve_push
    return replies


def test_a_bytearray_reply_is_read_like_its_bytes():
    w, link = _linked_world()
    session = PushSession(w, link)
    replies = _bytearray_replies(session, lambda resp: resp)
    outcome = _push(session, "cpi.txt", bytes(10_000))
    assert outcome.delivered
    assert len(replies) == outcome.frames_sent + 2  # CONNECT, DISCONNECT
    assert all(type(resp) is bytearray for resp in replies)
    assert w.device(mac(1)).inbox["cpi.txt"] == bytes(10_000)
    assert not link.open

    w, link = _linked_world()
    session = PushSession(w, link)
    replies = _bytearray_replies(session, lambda resp: resp + b"\x00")
    with pytest.raises(ProtocolError,
                       match="^length-mismatch: declared 3 bytes, have 4$"):
        _push(session, "cpi.txt", bytes(10_000))
    assert len(replies) == 1  # the CONNECT reply
    assert w.device(mac(1)).inbox == {}
    assert not link.open


def test_a_continue_reply_that_is_another_object_still_reads_as_continue():
    w, link = _linked_world()
    session = PushSession(w, link)
    cont = encode_frame(ObexFrame(CONTINUE))
    copies = []

    def reply(n, resp):
        if resp == cont:
            copies.append(bytes(bytearray(resp)))
            return copies[-1]
        return resp

    session.server = _StubServer(session.server.device, reply)
    outcome = _push(session, "cpi.txt", bytes(10_000))
    assert outcome.delivered
    assert outcome.frames_sent == session.server.puts == len(copies) + 1
    assert all(copy == cont and copy is not cont for copy in copies)
    assert w.device(mac(1)).inbox["cpi.txt"] == bytes(10_000)


def _counted_push(session: PushSession, seq: PutSequence) -> tuple[int, int]:
    """(Python calls, frames sent) of one delivered ``session.push_file(seq)``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection during the push would resume finalizers of other tests'
    # garbage (unclosed generators, __del__) and count their calls as the
    # push's; collect first and hold the collector off while counting.
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        outcome = session.push_file(seq)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    assert outcome.delivered
    return calls, outcome.frames_sent


def _counted_pushes(size: int) -> list[tuple[int, int]]:
    """``_counted_push`` of a fresh sequence of ``size`` random bytes, to
    one member and then to a second one: the first push is the first time
    any server sees each frame, the second finds them all parsed."""
    w = make_world(n_others=2, ftp=True)
    seq = PutSequence.encode("cpi.txt", random.Random(size).randbytes(size))
    return [_counted_push(PushSession(w, w.connect(LOCAL, mac(i))), seq)
            for i in (1, 2)]


def test_each_continuation_frame_costs_one_python_call():
    # serve_push alone, on a frame's first sighting as on a later one: its
    # shape guard takes the chunk without the prefix check or the header
    # walk, the frame is encoded already and the response is looked up,
    # not parsed.  A random payload makes every continuation frame a new
    # one, so no frame's first parse is hidden behind an equal frame's.
    small, large = _counted_pushes(50_000), _counted_pushes(200_000)
    for (calls_1, frames_1), (calls_2, frames_2) in zip(small, large):
        assert frames_2 > frames_1
        assert (calls_2 - calls_1) / (frames_2 - frames_1) <= 1
