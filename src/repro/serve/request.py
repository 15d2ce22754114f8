"""Request and result records for the multi-tenant scheduler.

A :class:`RegionRequest` is one tenant's unit of work: a pipelined
:class:`~repro.core.region.TargetRegion`, the host arrays it binds, and
the kernel — plus serving metadata (priority, optional deadline).  The
scheduler owns the request from :meth:`~repro.serve.RegionScheduler.submit`
until its :class:`RequestResult` appears in the final
:class:`~repro.serve.ServeReport`.

Each request must own its ``arrays`` dict: the scheduler streams chunks
of them to the device and writes outputs back in place, so sharing one
array between two in-flight requests would race (exactly as it would on
real hardware).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.kernel import RegionKernel
from repro.core.region import TargetRegion

__all__ = ["RegionRequest", "RequestResult"]


@dataclass
class RegionRequest:
    """One tenant's offload-region request.

    Attributes
    ----------
    tenant:
        Tenant name (attribution only; fairness uses ``priority``).
    region:
        The pipelined region to execute.
    arrays:
        Host arrays keyed by clause variable names (owned by this
        request for its lifetime).
    kernel:
        The region kernel.
    priority:
        Non-negative weight; higher is served sooner and receives a
        proportionally larger share of chunk-issue slots.
    deadline:
        Optional deadline in virtual seconds on the serving device's
        clock.  With ``ServeConfig(enforce_deadlines=True)`` (the
        default) a provably unreachable deadline cancels the request
        at the next chunk boundary and sheds it from the queue; with
        enforcement off the result merely records whether it was met.
    arrival:
        Virtual arrival time (defaults to region start); queue wait is
        measured from it.
    label:
        Human-readable tag (e.g. the application name).
    shards:
        Number of devices to shard this region across (>= 1, default
        1).  With ``shards > 1`` the scheduler splits the region's
        loop over up to that many healthy pool devices on a shared
        virtual clock (halo exchange and shared-PCIe contention
        modelled); fewer devices than requested degrade gracefully to
        however many fit, down to ordinary single-device service.
    integrity:
        Per-request integrity-verification override: ``"off"``,
        ``"checksum"``, or ``"vote"`` (see ``docs/faults.md``).
        ``None`` (the default) inherits ``ServeConfig.integrity``, so
        one tenant can pay for verification without slowing the rest
        of the pool.
    """

    tenant: str
    region: TargetRegion
    arrays: Dict[str, object]
    kernel: RegionKernel
    priority: int = 0
    deadline: Optional[float] = None
    arrival: float = 0.0
    label: str = ""
    shards: int = 1
    integrity: Optional[str] = None

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ValueError("priority must be >= 0")
        if not isinstance(self.shards, int) or isinstance(self.shards, bool) \
                or self.shards < 1:
            raise ValueError("shards must be an int >= 1")
        if self.integrity is not None:
            from repro.integrity import validate_integrity

            validate_integrity(self.integrity)


@dataclass
class RequestResult:
    """Outcome of serving one request.

    All times are virtual seconds on the clock of the device that
    served the request.  ``queue_wait`` covers submit → admission
    (including any planning the admission performed); ``service``
    covers admission → completion (staging, pipeline, drain).

    ``status`` is one of:

    - ``"ok"`` — completed (``migrated=True`` when it failed over from
      a lost device and completed elsewhere);
    - ``"failed"`` — planning or execution failed terminally;
    - ``"cancelled"`` — in-flight region cut at a chunk boundary once
      its deadline became provably unreachable;
    - ``"shed"`` — dropped while still waiting (deadline already
      passed, or deterministic load shedding under ``max_waiting``).
    """

    request_id: int
    tenant: str
    label: str
    status: str  # "ok" | "failed" | "cancelled" | "shed"
    priority: int
    device: int = -1
    admitted: float = 0.0
    finished: float = 0.0
    queue_wait: float = 0.0
    service: float = 0.0
    cache_hit: bool = False
    chunk_size: int = 0
    num_streams: int = 0
    nchunks: int = 0
    device_bytes: int = 0
    overtaken: int = 0
    busy: Dict[str, float] = field(default_factory=dict)
    commands: int = 0
    deadline: Optional[float] = None
    deadline_met: Optional[bool] = None
    error: str = ""
    #: whether the request failed over from a lost device
    migrated: bool = False
    #: faulted commands absorbed (injected + poisoned) serving this request
    faults: int = 0
    #: recovery replays performed (chunk replays + blocking reissues)
    retries: int = 0
    #: integrity checks performed serving this request
    verified: int = 0
    #: silent corruptions detected (and recomputed) serving this request
    corruptions: int = 0
    #: loop re-splits (device loss or straggler) while sharded
    resplits: int = 0
    #: devices the region was sharded across (1 = ordinary service)
    shards: int = 1
    #: all devices that served this request (``[device]`` when not sharded)
    devices: tuple = ()

    @property
    def ok(self) -> bool:
        """Whether the request completed successfully."""
        return self.status == "ok"

    @property
    def latency(self) -> float:
        """Submit-to-finish virtual latency (queue wait + service).

        This is the quantity per-tenant SLO latency objectives are
        judged against — what the tenant actually waited.
        """
        return self.queue_wait + self.service

    def to_state(self) -> Dict[str, object]:
        """Full-fidelity JSON-safe encoding for the serve journal.

        Unlike :meth:`to_dict` (a digest that drops zero-valued
        optional fields), this round-trips *every* field exactly, so a
        resumed run can reconstruct the record bit-for-bit and the
        journal byte-compare can vouch for it.
        """
        from dataclasses import fields as _fields

        state: Dict[str, object] = {}
        for f in _fields(self):
            v = getattr(self, f.name)
            if f.name == "devices":
                v = list(v)
            elif f.name == "busy":
                v = dict(v)
            state[f.name] = v
        return state

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe digest."""
        d: Dict[str, object] = {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "label": self.label,
            "status": self.status,
            "priority": self.priority,
            "device": self.device,
            "admitted_s": self.admitted,
            "finished_s": self.finished,
            "queue_wait_s": self.queue_wait,
            "service_s": self.service,
            "cache_hit": self.cache_hit,
            "chunk_size": self.chunk_size,
            "num_streams": self.num_streams,
            "nchunks": self.nchunks,
            "device_bytes": int(self.device_bytes),
            "overtaken": self.overtaken,
            "busy_s": dict(self.busy),
            "commands": self.commands,
        }
        if self.deadline is not None:
            d["deadline_s"] = self.deadline
            d["deadline_met"] = self.deadline_met
        if self.error:
            d["error"] = self.error
        if self.migrated:
            d["migrated"] = True
        if self.faults or self.retries:
            d["faults"] = self.faults
            d["retries"] = self.retries
        if self.verified or self.corruptions:
            d["verified"] = self.verified
            d["corruptions"] = self.corruptions
        if self.resplits:
            d["resplits"] = self.resplits
        if self.shards > 1:
            d["shards"] = self.shards
            d["devices"] = list(self.devices)
        return d
