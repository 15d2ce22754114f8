"""``repro.integrity`` — silent-failure defense policies and checksums.

Fail-stop faults (PR 2/4) announce themselves: a command retires with
an error and a typed exception surfaces at a sync point.  *Silent*
faults do not — a DMA delivers a flipped bit, a kernel miscomputes, a
device slows to a crawl — and the only defense is to *check*.  This
module holds the pieces shared by the executor, the sharded issuer,
and the serving layer:

* the integrity **modes** (``off`` / ``checksum`` / ``vote``) and
  their validation;
* the **byte comparison** used for chunk-granular transfer
  verification, halo-seam checks and vote checks: :func:`same_bytes`
  answers "do these two views hold identical bytes?" exactly, with no
  hashing, because both sides of every check live in this process;
* the **digest** primitive (BLAKE2b over the raw bytes of an array
  view), kept as public API for callers that need a fingerprint to
  store or send rather than a yes/no answer; and
* the verification **cost model**: checksums are not free — every
  verify command occupies the device for
  ``nbytes / CHECKSUM_BYTES_PER_SECOND`` virtual seconds, so overlap
  math and speedup numbers stay honest.

Mode semantics:

``off``
    No verification.  Zero extra commands; results are bit-identical
    to builds without this module.
``checksum``
    Every H2D/D2H piece is re-read on a dedicated verify stream after
    the transfer retires (the modelled device-side checksum), and the
    device copy is compared byte for byte against the host copy.
    Catches transfer bit flips (and halo-seam corruption in sharded
    runs) but **not** kernel miscomputes — a checksum of
    wrong-but-self-consistent data matches itself.
``vote``
    Checksum verification *plus* dual execution: each chunk's kernel
    is re-run into scratch on the verify stream and the two outputs
    compared.  Catches miscomputes at the cost of ~2x kernel time.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

__all__ = [
    "CHECKSUM_BYTES_PER_SECOND",
    "INTEGRITY_CHECKSUM",
    "INTEGRITY_MODES",
    "INTEGRITY_OFF",
    "INTEGRITY_VOTE",
    "digest",
    "same_bytes",
    "validate_integrity",
    "verify_cost",
]

INTEGRITY_OFF = "off"
INTEGRITY_CHECKSUM = "checksum"
INTEGRITY_VOTE = "vote"

#: all accepted integrity modes, in increasing strength
INTEGRITY_MODES = (INTEGRITY_OFF, INTEGRITY_CHECKSUM, INTEGRITY_VOTE)

#: modelled digest throughput: a memory-bound device-side checksum
#: kernel reads the data once at something close to memory bandwidth
CHECKSUM_BYTES_PER_SECOND = 64e9


def validate_integrity(mode: Optional[str], field: str = "integrity") -> str:
    """Validate an integrity mode string (``None`` means ``off``).

    Raises :class:`~repro.gpu.errors.InvalidValueError` naming the
    offending field for anything not in :data:`INTEGRITY_MODES`.
    """
    from repro.gpu.errors import InvalidValueError

    if mode is None:
        return INTEGRITY_OFF
    if mode not in INTEGRITY_MODES:
        raise InvalidValueError(
            f"{field} must be one of {', '.join(INTEGRITY_MODES)}, got {mode!r}"
        )
    return mode


def digest(view) -> bytes:
    """BLAKE2b digest of an array view's raw bytes.

    Copies non-contiguous views once; byte-exact, so it distinguishes
    ``0.0`` from ``-0.0`` and NaN payloads — corruption that value
    comparison can miss.
    """
    arr = np.ascontiguousarray(view)
    return hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


def same_bytes(a, b) -> bool:
    """Whether two array views hold byte-identical data.

    Exactly ``a.tobytes() == b.tobytes()``, without materializing
    either side as a ``bytes`` object: non-contiguous views are copied
    once (the rule :func:`digest` follows too), then the raw bytes are
    compared.  Byte-exact like :func:`digest` — ``0.0`` differs from
    ``-0.0`` and distinct NaN payloads differ — and stronger than
    comparing digests, because it has no collisions.
    """
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    if a.nbytes != b.nbytes:
        return False
    return np.array_equal(
        a.reshape(-1).view(np.uint8), b.reshape(-1).view(np.uint8)
    )


def verify_cost(nbytes: int) -> float:
    """Virtual seconds one verify command occupies for ``nbytes``."""
    return nbytes / CHECKSUM_BYTES_PER_SECOND
