"""pidsim: deterministic short-range radio simulation and proactive delivery.

A seeded discrete-event world of radio devices, neighbor inquiry, service
search with file-transfer filtering, a bit-exact framed push protocol, a
roster-driven delivery loop, and the page/ream/tree savings arithmetic.
"""

from .errors import (
    OutOfRangeError,
    PiconetFullError,
    PoweredOffError,
    ProtocolError,
    ScenarioError,
    SimError,
    UnknownDeviceError,
)
from .metrics import (
    CourseUsage,
    SavingsSummary,
    campus_pages,
    pages_per_course,
    pages_to_reams,
    pages_to_trees,
    savings_report,
)
from .obexlite import (
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
    TransferOutcome,
    decode_frame,
    encode_frame,
    put_frames,
)
from .pidctl import (
    DeliveryReport,
    Roster,
    SessionState,
    StepConfig,
    StepReport,
    choose_push_target,
    run_proactive,
    run_stepped,
)
from .scenario import Scenario, load_scenario, shipped_fixture_names, shipped_fixture_path
from .sdp import (
    ConnectionUrl,
    ServiceCatalog,
    ServiceRecord,
    filter_ftp,
    search_services,
)
from .simnet import (
    LinkHandle,
    MacId,
    RadioDevice,
    RadioParams,
    SimTime,
    SimWorld,
    in_range,
    start_inquiry,
    transfer_duration,
)

__version__ = "0.1.0"
