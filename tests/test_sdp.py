"""Service search, file-transfer filtering, connection URLs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pidsim.errors import UnknownDeviceError
from pidsim.sdp import (
    ConnectionUrl,
    ServiceCatalog,
    ServiceRecord,
    filter_ftp,
    search_services,
)
from pidsim.simnet import MacId, start_inquiry

from .conftest import LOCAL, ftp_record, make_device, make_world, mac, plain_record


# -- URLs -------------------------------------------------------------------


def test_connection_url_validation():
    with pytest.raises(ValueError):
        ConnectionUrl("", MacId("00179A235EDD"), 1, "x")
    with pytest.raises(ValueError):
        ConnectionUrl("a:b", MacId("00179A235EDD"), 1, "x")
    with pytest.raises(ValueError):
        ConnectionUrl("http", MacId("00179A235EDD"), 0, "x")


# -- service records and catalogs ---------------------------------------------


def test_service_record_requires_positive_id():
    with pytest.raises(ValueError):
        ServiceRecord(0, "x", ConnectionUrl("http", MacId("00179A235EDD"), 1, ""))


def _office_world(seed=8):
    """Local client plus five devices with record counts 0/0/1/4/7."""
    w = make_world(n_others=0, seed=seed)
    counts = {mac(1): 0, mac(2): 0, mac(3): 1, mac(4): 4, mac(5): 7}
    for m, n in counts.items():
        records = [plain_record(m, service_id=i + 1, name=f"Service {i + 1}")
                   for i in range(n)]
        if n == 7:
            records[3] = ftp_record(m, service_id=4)
        w.add_device(make_device(m, f"dev-{m[-2:]}", 2.0, 0.0, services=records))
    return w


def test_search_services_counts_one_four_seven():
    w = _office_world()
    found = [m for m, _ in start_inquiry(w, LOCAL)]
    catalog = search_services(w, LOCAL, found)
    assert len(catalog.services) == 3
    assert sorted(len(v) for v in catalog.services.values()) == [1, 4, 7]
    assert sorted(catalog.empty) == [mac(1), mac(2)]
    assert catalog.departed == []


def test_search_services_consumes_time_per_target():
    w = _office_world()
    found = [m for m, _ in start_inquiry(w, LOCAL)]
    before = w.now
    search_services(w, LOCAL, found)
    assert w.now == before + 5 * w.params.service_search_per_device


def test_search_services_queries_in_mac_order():
    w = _office_world()
    found = [m for m, _ in start_inquiry(w, LOCAL)]
    search_services(w, LOCAL, found)
    done = [dict(e.fields)["mac"] for e in w.log
            if e.name == "service_search_completed"]
    assert done == sorted(done)


def test_search_services_empty_targets():
    w = _office_world()
    before = w.now
    catalog = search_services(w, LOCAL, [])
    assert catalog.services == {} and catalog.empty == [] and catalog.departed == []
    assert w.now == before


def test_search_services_departed_mid_search():
    w = make_world(n_others=0, seed=2)
    # Departs while the earlier target is still being queried.
    w.add_device(make_device(mac(1), "stays", 1.0, 0.0,
                             services=[ftp_record(mac(1))]))
    w.add_device(make_device(mac(2), "leaves", 2.0, 0.0, departure=3_000,
                             services=[ftp_record(mac(2))]))
    catalog = search_services(w, LOCAL, [mac(1), mac(2)])
    assert mac(1) in catalog.services
    assert catalog.departed == [mac(2)]
    assert mac(2) not in catalog.services
    assert w.log[-1].line() == (f"t=4000 seq=3 ev=service_search_completed "
                                f"mac={mac(2)} status=departed")


def test_failed_search_leaves_nothing_queued():
    w = _office_world()
    with pytest.raises(UnknownDeviceError):
        search_services(w, LOCAL, [mac(1), mac(99)])
    assert w.now == 0
    assert w._queue == []
    w.advance(10 * w.params.service_search_per_device)
    assert w.log == []


def test_catalog_records_mac_matches_device_mac():
    w = _office_world()
    found = [m for m, _ in start_inquiry(w, LOCAL)]
    catalog = search_services(w, LOCAL, found)
    for m, records in catalog.services.items():
        assert all(r.connection_url.mac == m for r in records)


# -- filter_ftp ----------------------------------------------------------------


def test_filter_ftp_selects_only_the_laptop_record():
    w = _office_world()
    found = [m for m, _ in start_inquiry(w, LOCAL)]
    catalog = search_services(w, LOCAL, found)
    ftp = filter_ftp(catalog)
    assert list(ftp) == [mac(5)]
    assert ftp[mac(5)].service_id == 4
    assert ftp[mac(5)].service_name == "File Transfer Service"


def test_filter_ftp_empty_catalog():
    assert filter_ftp(ServiceCatalog()) == {}


def test_filter_ftp_prefers_lower_service_id():
    m = mac(7)
    catalog = ServiceCatalog(services={m: [
        ftp_record(m, service_id=9),
        ftp_record(m, service_id=4),
        plain_record(m, service_id=1),
    ]})
    assert filter_ftp(catalog)[m].service_id == 4


def test_filter_ftp_matches_case_insensitively():
    m = mac(7)
    for name in ("FILE TRANSFER", "File Transfer Profile", "obex file transfer"):
        catalog = ServiceCatalog(services={m: [
            ServiceRecord(1, name, ConnectionUrl("http", m, 1, ""))]})
        assert m in filter_ftp(catalog)
    catalog = ServiceCatalog(services={m: [plain_record(m, name="Remote File")]})
    assert filter_ftp(catalog) == {}


@given(st.lists(st.tuples(st.integers(0, 9),
                          st.lists(st.tuples(st.booleans(), st.integers(1, 50)),
                                   max_size=5, unique_by=lambda t: t[1])),
                max_size=10, unique_by=lambda t: t[0]))
def test_filter_ftp_brute_force(devices):
    """Output domain, predicate satisfaction, and no missed matches."""
    catalog = ServiceCatalog()
    for idx, specs in devices:
        m = mac(idx)
        records = []
        for is_ftp, sid in specs:
            name = "File Transfer Service" if is_ftp else f"Other {sid}"
            records.append(ServiceRecord(sid, name, ConnectionUrl("http", m, 1, "")))
        if records:
            catalog.services[m] = records
        else:
            catalog.empty.append(m)
    out = filter_ftp(catalog)
    assert set(out) <= set(catalog.services)
    for m, record in out.items():
        assert record.is_ftp()
        matching = [r for r in catalog.services[m] if r.is_ftp()]
        assert record.service_id == min(r.service_id for r in matching)
    for m, records in catalog.services.items():
        if m not in out:
            assert not any(r.is_ftp() for r in records)
