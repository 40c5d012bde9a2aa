"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the more specific categories below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class SchemaError(ReproError):
    """A database, observation, or attribute definition is malformed.

    Raised for duplicate attribute names, observations whose length does not
    match the attribute list, values outside the declared value domain, and
    similar structural problems.
    """


class DiscretizationError(ReproError):
    """A discretizer was configured or applied incorrectly.

    Examples: ``k < 2`` for an equi-depth discretizer, an empty series, or a
    value that falls outside every configured interval of an explicit-interval
    discretizer.
    """


class HypergraphError(ReproError):
    """A directed hypergraph operation violated a structural invariant.

    Raised for hyperedges with empty tail or head sets, overlapping tail and
    head sets, references to unknown vertices, or weights outside ``[0, 1]``
    where the association semantics require them.
    """


class RuleError(ReproError):
    """An mva-type association rule is malformed.

    Raised when the antecedent and consequent share attributes, reference
    attributes missing from the database, or use values outside the value
    domain.
    """


class ConfigurationError(ReproError):
    """An association-hypergraph build or experiment configuration is invalid."""


class ClassificationError(ReproError):
    """The association-based classifier was given inconsistent inputs.

    Raised, for instance, when the evidence attributes overlap the target
    attributes or when no hyperedge supports any prediction and the caller
    requested strict behaviour.
    """


class NotFittedError(ReproError):
    """A model was used before :meth:`fit` was called."""


class EngineError(ReproError):
    """The incremental association engine was misused.

    Raised for appends whose schema does not match the engine's attributes,
    snapshots in an unknown format, and queries over unknown attributes.
    """


class SnapshotVersionError(EngineError):
    """A persisted index snapshot does not match the model it claims to serve.

    Raised when an ``.npz`` index sidecar's model-version stamp (or edge/row
    counts) disagrees with the JSON rows it sits next to.  Loading such a
    sidecar must fail loudly instead of silently recompiling or — worse —
    serving stale arrays.
    """


class StorageError(ReproError):
    """The log-structured storage layer was misused or hit an I/O problem.

    Raised for re-initializing an already-initialized durability directory,
    appending to a closed :class:`~repro.storage.DurableEngine`, rows whose
    values cannot be encoded into write-ahead-log records, and similar
    operational failures that are *not* data corruption.
    """


class StorageRaceError(StorageError):
    """A log reader raced a concurrent writer operation; retry the read.

    Raised when a read-only scan of a write-ahead log observes transient
    states a live leader legitimately produces — a segment deleted between
    listing and open (compaction), a listing that straddles an in-progress
    ``delete_segments_before``, a file growing under the reader.  None of
    these are corruption: the caller should re-poll (and possibly re-read
    the manifest) instead of failing.  Only read paths raise this; the
    single writer never races itself.
    """


class StorageCorruptionError(StorageError):
    """Persisted durability state failed an integrity check.

    Raised when opening a durability directory finds a manifest, base
    snapshot, delta file, or write-ahead-log segment that cannot be decoded
    or whose stamp/CRC disagrees with the state it claims to describe.
    Recovery must either serve a provably consistent prefix of the history
    or raise this error — never silently serve wrong arrays.
    """


class ServeError(ReproError):
    """The serving tier was misused or asked for something it cannot do.

    Base class for tenant-lifecycle failures in :mod:`repro.serve`; the
    transport layers map subclasses to distinct typed error-envelope codes
    and HTTP statuses.
    """


class TenantNotFoundError(ServeError):
    """A request named a dataset id the tenant manager is not hosting.

    Raised only when the tenant is neither resident nor recoverable from
    its durable directory — an evicted tenant transparently re-opens
    instead.
    """


class TenantExistsError(ServeError):
    """A create request named a dataset id that already has state.

    Raised when the tenant is resident or its durable directory is
    already initialized; open it instead of re-creating it.
    """


class RequestValidationError(ServeError):
    """A serve request failed schema validation before reaching the engine.

    Raised by :mod:`repro.serve.schemas` for missing required fields,
    wrong field types, and unknown operations; transports map it to the
    ``bad_request`` envelope code.
    """


class TenantOverloadedError(ServeError):
    """A tenant's append queue is full; the request was shed, not queued.

    Raised when an append would push a tenant's writer queue past its
    configured ``max_queue_depth`` — the admission-control brick that
    keeps a saturating client from growing the queue (and every later
    caller's latency) without bound.  Transports map it to the
    ``overloaded`` envelope code with HTTP 503; clients should back off
    and retry.
    """


class TenantUnavailableError(ServeError):
    """Appended rows are logged durably but no published snapshot holds them.

    Raised to every append waiting on a snapshot publish that failed: the
    rows are in the tenant's write-ahead log, so a re-open recovers them,
    but reads cannot see them yet.  The tenant's writer keeps running and
    its next applied batch publishes again.  Transports map it to the
    ``tenant_unavailable`` envelope code with HTTP 503.
    """


class ObservabilityError(ReproError):
    """The metrics/tracing layer was misused.

    Raised for instrument-kind collisions (asking for a counter under a
    name already registered as a histogram), invalid histogram boundaries,
    decreasing counters, and merges across mismatched bucket layouts.
    """


class MissingDistanceError(HypergraphError):
    """A similarity-graph distance was read before it was recorded.

    Carries the offending node pair so callers (and error messages) can say
    exactly which distance is missing.
    """

    def __init__(self, first, second) -> None:
        self.pair = (first, second)
        super().__init__(
            f"no distance recorded for pair ({first!r}, {second!r})"
        )
