#!/usr/bin/env python3
"""Demo 2: the framed push protocol on the wire.

Splits a payload into PUT frames, hex-dumps each one, checks that the
decoder reads the bytes back, sends the bytes to the receiving side,
decodes its response bytes, and shows the reassembled file landing in
the device inbox.
"""

from pidsim import MacId, ObexServer, RadioDevice, decode_frame, encode_frame
from pidsim.obexlite import put_frames

OPCODES = {0x80: "CONNECT", 0x81: "DISCONNECT", 0x02: "PUT", 0x82: "PUT-final",
           0x90: "Continue", 0xA0: "Success", 0xC0: "BadRequest",
           0xC3: "Forbidden"}


def main():
    print("=" * 70)
    print("Demo 2: push protocol frames")
    print("=" * 70)

    payload = b"week one notes: " + bytes(range(64)) * 3
    max_packet = 96  # small on purpose so the split is visible
    frames = put_frames("notes.bin", payload, max_packet)
    print(f"\n{len(payload)} payload bytes at max packet {max_packet} "
          f"-> {len(frames)} frames\n")

    device = RadioDevice(MacId("00179A2300A1"), "receiver")
    server = ObexServer(device)

    for i, frame in enumerate(frames, start=1):
        raw = encode_frame(frame)
        print(f"frame {i}: {OPCODES[frame.opcode]}, {len(raw)} bytes")
        for off in range(0, len(raw), 24):
            print("   ", raw[off:off + 24].hex(" "))
        decoded, rest = decode_frame(raw)
        assert decoded == frame and rest == b""
        response, rest = decode_frame(server.serve_push(raw))
        assert rest == b""
        print(f"    -> response {OPCODES[response.opcode]}")

    stored = device.inbox["notes.bin"]
    print(f"\ninbox now holds 'notes.bin' ({len(stored)} bytes), "
          f"intact: {stored == payload}")


if __name__ == "__main__":
    main()
