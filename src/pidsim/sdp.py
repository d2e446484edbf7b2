"""Service records, per-device service search, and connection URLs.

A service is addressed by a connection URL of the form
``<scheme>://<MAC>:<channel>/<path>``; the scheme is carried but never
interpreted.  The file-transfer filter matches on the service name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PoweredOffError
from .simnet import MacId, SimWorld

# Case-insensitive fragment a service name must contain to count as the
# file-transfer profile.
FTP_NAME_FRAGMENT = "file transfer"


@dataclass(frozen=True)
class ConnectionUrl:
    scheme: str
    mac: MacId
    channel: int
    path: str

    def __post_init__(self) -> None:
        self._check()
        object.__setattr__(self, "mac", MacId(self.mac))

    def _check(self) -> None:
        scheme = self.scheme
        if not scheme or ":" in scheme or "/" in scheme:
            raise ValueError(f"bad scheme: {scheme!r}")
        if self.channel < 1:
            raise ValueError("channel must be a positive integer")

    def render(self) -> str:
        return f"{self.scheme}://{self.mac}:{self.channel}/{self.path}"


@dataclass(frozen=True)
class ServiceRecord:
    service_id: int
    service_name: str
    connection_url: ConnectionUrl

    def __post_init__(self) -> None:
        self._check()

    def _check(self) -> None:
        if self.service_id < 1:
            raise ValueError("service_id must be >= 1")

    @classmethod
    def _from_checked(cls, service_id: int, service_name: str, scheme: str,
                      mac: MacId, channel: int, path: str) -> ServiceRecord:
        """The record ``ServiceRecord(service_id, service_name,
        ConnectionUrl(scheme, mac, channel, path))`` builds from a MAC
        already canonical: the URL's scheme and channel are checked, then
        the id, and the MAC is not checked again.  Both objects get their
        fields in ``__init__``'s order, which keeps CPython's fast
        attribute layout."""
        set_field = object.__setattr__
        url = object.__new__(ConnectionUrl)
        set_field(url, "scheme", scheme)
        set_field(url, "mac", mac)
        set_field(url, "channel", channel)
        set_field(url, "path", path)
        url._check()
        record = object.__new__(cls)
        set_field(record, "service_id", service_id)
        set_field(record, "service_name", service_name)
        set_field(record, "connection_url", url)
        record._check()
        return record

    def is_ftp(self) -> bool:
        return FTP_NAME_FRAGMENT in self.service_name.lower()


@dataclass
class ServiceCatalog:
    """Outcome of one service search: records per target, plus the targets
    that answered with nothing and the ones that were gone mid-search."""

    services: dict[MacId, list[ServiceRecord]] = field(default_factory=dict)
    empty: list[MacId] = field(default_factory=list)
    departed: list[MacId] = field(default_factory=list)

    def with_services(self) -> list[MacId]:
        return sorted(self.services)


def search_services(world: SimWorld, initiator: MacId, targets) -> ServiceCatalog:
    """Query ``targets`` (a prior inquiry's discoveries) for their records.

    Every target is resolved before the clock moves, so an unknown MAC
    fails the whole search at once.  Targets are then queried one at a
    time in MAC order, each consuming ``service_search_per_device`` of sim
    time; a target that is absent when its turn completes is reported
    under ``departed``.
    """
    per_device = world.params.service_search_per_device
    ini = world.device(initiator)
    if not ini.powered:
        raise PoweredOffError(f"initiator {initiator} is powered off")
    devices = [world.device(mac) for mac in sorted(targets)]
    catalog = ServiceCatalog()
    for dev in devices:
        world.advance(world.now + per_device)
        mac = dev.mac
        if not dev.present_at(world.now) or not dev.powered:
            catalog.departed.append(mac)
            world.emit("service_search_completed", mac=mac, status="departed")
            continue
        records = sorted(dev.services, key=lambda r: r.service_id)
        if records:
            catalog.services[mac] = records
            world.emit("services_discovered", mac=mac, count=len(records))
        else:
            catalog.empty.append(mac)
        world.emit("service_search_completed", mac=mac, services=len(records),
                   status="ok")
    return catalog


def filter_ftp(catalog: ServiceCatalog) -> dict[MacId, ServiceRecord]:
    """Per device, the lowest-id record whose name matches the file-transfer
    profile; devices without a match are absent from the result."""
    out: dict[MacId, ServiceRecord] = {}
    for mac in sorted(catalog.services):
        for record in sorted(catalog.services[mac], key=lambda r: r.service_id):
            if record.is_ftp():
                out[mac] = record
                break
    return out
