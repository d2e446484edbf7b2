"""Exception types shared across the package."""


class SimError(Exception):
    """Base class for everything this package raises on purpose."""


class UnknownDeviceError(SimError):
    """A MAC that is not registered in the world."""


class PoweredOffError(SimError):
    """Operation requires a powered device."""


class OutOfRangeError(SimError):
    """Peer is beyond radio range (or not present at all)."""


class PiconetFullError(SimError):
    """A master already has the maximum number of active slaves."""


class ProtocolError(SimError):
    """Framing or session-sequence violation in the push protocol."""


class ScenarioError(SimError):
    """Scenario file failed to parse or validate."""
