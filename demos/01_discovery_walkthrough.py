#!/usr/bin/env python3
"""Demo 1: device inquiry and service discovery, built up by hand.

Creates a small office world, runs one inquiry window, queries the
discovered devices for their service records, and filters down to the
devices that can accept a file push.
"""

from pidsim import (
    ConnectionUrl,
    MacId,
    RadioDevice,
    ServiceRecord,
    SimWorld,
    filter_ftp,
    search_services,
    start_inquiry,
)

LOCAL = MacId("001122334455")


def record(mac, sid, name, channel=9, path="srv/"):
    return ServiceRecord(sid, name, ConnectionUrl("btgoep", mac, channel, path))


def main():
    print("=" * 70)
    print("Demo 1: inquiry and service discovery")
    print("=" * 70)

    world = SimWorld(seed=2024)
    world.add_device(RadioDevice(LOCAL, "demo-client", position=(0.0, 0.0)))

    laptop = MacId("00179A2300A1")
    phone = MacId("00179A2300B2")
    mouse = MacId("00179A2300C3")
    world.add_device(RadioDevice(laptop, "demo laptop", position=(3.0, 1.0),
                                 services=[
        record(laptop, 1, "OBEX", path="obex/"),
        record(laptop, 2, "File Transfer Service", path="ftp/"),
    ]))
    world.add_device(RadioDevice(phone, "demo phone", position=(5.0, -2.0),
                                 services=[
        record(phone, 1, "file transfer", channel=5, path="ftp/"),
    ]))
    world.add_device(RadioDevice(mouse, "demo mouse", position=(1.0, 0.5)))

    print("\nStarting inquiry (the window lasts 16 simulated seconds)...")
    discovered = start_inquiry(world, LOCAL)
    print(f"Discovered {len(discovered)} devices:")
    for mac, at in discovered:
        print(f"  t={at:>6} ms  {world.device(mac).friendly_name}  ({mac})")

    print("\nQuerying each one for service records (2 s per device)...")
    catalog = search_services(world, LOCAL, [mac for mac, _ in discovered])
    for mac in catalog.with_services():
        print(f"  {world.device(mac).friendly_name}:")
        for rec in catalog.services[mac]:
            print(f"    {rec.service_id}. {rec.service_name} -> "
                  f"{rec.connection_url.render()}")
    for mac in catalog.empty:
        print(f"  {world.device(mac).friendly_name}: no services")

    ftp = filter_ftp(catalog)
    print(f"\nPush-capable devices: "
          f"{[world.device(m).friendly_name for m in sorted(ftp)]}")

    print("\nEvent log so far:")
    for event in world.log:
        print(" ", event.line())


if __name__ == "__main__":
    main()
