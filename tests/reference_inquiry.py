"""Reference inquiry: the straightforward walk ``simnet.start_inquiry`` replaced.

One ``randrange`` per other device in MAC order, then, for each answer in
(instant, MAC) order, one ``advance`` to its instant and the initiator's
and the device's state read there, and one ``emit`` per discovery.  It
uses only the world's public calls, so no helper is shared with the code
under test.  Slow, and kept only as an oracle.
"""

from pidsim.errors import PoweredOffError
from pidsim.simnet import in_range


def reference_inquiry(world, initiator):
    start = world.now
    duration = world.params.inquiry_duration
    ini = world.device(initiator)
    if not ini.powered:
        raise PoweredOffError(f"initiator {initiator} is powered off")
    world.emit("inquiry_started", initiator=initiator)
    answers = []
    for mac in sorted(world.devices):
        if mac == initiator:
            continue
        at = start + 1 + world.rng.randrange(duration)
        if world.devices[mac].present_at(at):
            answers.append((at, mac))
    discovered = []
    for at, mac in sorted(answers):
        world.advance(at)
        dev = world.devices[mac]
        if ini.powered and ini.present_at(at) and dev.powered \
                and dev.discoverable and in_range(ini, dev, world.params):
            discovered.append((mac, at))
            world.emit("device_discovered", mac=mac, name=dev.friendly_name)
    world.advance(start + duration)
    world.emit("inquiry_completed", initiator=initiator, count=len(discovered),
               macs=",".join(sorted(mac for mac, _ in discovered)))
    return discovered
