"""Exception types raised by the qtbs library."""


class QtbsError(Exception):
    """Base class for all qtbs errors."""


class NetworkFormatError(QtbsError, ValueError):
    """A network document or constructed network is malformed."""


class DuplicateIdError(NetworkFormatError):
    """Two links, flows or routers share an identifier."""


class UnknownLinkError(NetworkFormatError):
    """A flow or a network edit references a link that does not exist."""


class CapacityError(NetworkFormatError):
    """A link capacity is missing, non-finite or not strictly positive."""


class ReservedIdError(NetworkFormatError):
    """An input document uses an identifier reserved by the library."""


class UnknownVertexError(QtbsError, KeyError):
    """A link or flow id is not present in the solution under query."""

    def __str__(self) -> str:
        # ``KeyError`` would print only the quoted id.
        return f"unknown link or flow id {self.args[0]!r}"


class RoutingError(QtbsError):
    """Base class for routing failures."""


class MissingEndpointsError(RoutingError):
    """Routing requires src/dst router annotations on every link."""


class UnreachableError(RoutingError):
    """No path exists between the requested routers."""


class PlanError(QtbsError):
    """Base class for planner failures."""


class DuplicateShaperError(PlanError):
    """A shaping plan tries to install two shapers on the same flow."""


class AlreadyFoldedError(PlanError):
    """Capacity tapering requested on a structure with a single flow level."""


class SolverError(QtbsError):
    """Internal solver failure; indicates a bug or an invalid network."""
