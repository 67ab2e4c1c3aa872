"""Shared-memory kernel plane: one kernel image, many worker processes.

The distributed pipeline's unit of dispatch is an s-block, but every block
needs the *same* read-only inputs: the kernel's CSR projection (the arrays a
:class:`~repro.smp.kernel.UEvaluator` works from) and, for the factored
engine, the per-distribution pair slices.  Pickling those into each worker
would copy a 5.9M-edge kernel once per process — the scalar-era behaviour
this module removes.

A :class:`KernelPlane` serialises the arrays once into a single contiguous
buffer — a POSIX shared-memory segment for same-host pools, or an mmap'd
file under the checkpoint directory for `semimarkov serve` worker fleets —
and hands out a tiny picklable :class:`PlaneHandle`.  ``handle.attach()``
reconstructs a fully functional :class:`~repro.smp.kernel.SMPKernel` /
:class:`~repro.smp.kernel.UEvaluator` (factored slices prefilled) whose
arrays are zero-copy views straight into the buffer: attaching costs one
header unpickle regardless of kernel size, and N workers share one physical
copy of the kernel.

Layout::

    magic  "SMPPLANE1"
    u64    header length (little endian)
    bytes  pickled header {n_states, digest, distributions, factored, arrays}
    ...    64-byte-aligned array payload (offsets recorded in the header)

Only the distribution objects travel through pickle — a handful of small
parameter holders — never the edge arrays.
"""
from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import struct
import tempfile
import weakref
import zlib
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from .. import faults
from ..obs.metrics import note_corrupt_artifact
from .factored import FactoredUEvaluator
from .kernel import SMPKernel, UEvaluator, kernel_content_digest

__all__ = [
    "KernelPlane",
    "PlaneHandle",
    "PlaneIntegrityError",
    "AttachedPlane",
    "PlaneStore",
]


class PlaneIntegrityError(ValueError):
    """A plane's payload does not match the checksum recorded in its header."""

_MAGIC = b"SMPPLANE1"
_ALIGN = 64

#: arrays always exported: the CSR projection a UEvaluator runs on
_CSR_ARRAYS = ("indptr", "indices", "csr_probs", "csr_dist_index", "csr_rows")


def _align_up(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _collect_arrays(evaluator: UEvaluator, include_factored: bool) -> dict:
    arrays = {
        "indptr": evaluator._indptr,
        "indices": evaluator._indices,
        "csr_probs": evaluator._csr_probs,
        "csr_dist_index": evaluator._csr_dist_index,
        "csr_rows": evaluator._csr_rows,
    }
    if include_factored:
        factored = evaluator.factored()
        pair_src, pair_dist, pair_of_edge = factored._row_pairs()
        arrays.update(
            pair_src=pair_src,
            pair_dist=pair_dist,
            pair_of_edge=pair_of_edge,
            dist_row_sums=factored.dist_row_sums(),
        )
    return {name: np.ascontiguousarray(a) for name, a in arrays.items()}


def _plan(evaluator: UEvaluator, include_factored: bool):
    """Lay the arrays out and pickle the header; returns everything build needs."""
    arrays = _collect_arrays(evaluator, include_factored)
    entries = []
    offset = 0
    crc = 0
    for name, a in arrays.items():
        offset = _align_up(offset)
        entries.append((name, a.dtype.str, a.shape, offset))
        offset += a.nbytes
        crc = zlib.crc32(a.data, crc)
    header = {
        "n_states": evaluator.kernel.n_states,
        "digest": kernel_content_digest(evaluator.kernel),
        "distributions": evaluator.kernel.distributions,
        "factored": bool(include_factored),
        "arrays": entries,
        "payload_bytes": offset,
        # CRC32 over the array bytes in layout order (alignment gaps are not
        # covered — they are never read); verified on every attach.
        "crc32": crc,
    }
    header_bytes = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    payload_start = _align_up(len(_MAGIC) + 8 + len(header_bytes))
    total = payload_start + offset
    return arrays, entries, header_bytes, payload_start, total


def _write_into(buf, arrays, entries, header_bytes, payload_start) -> None:
    """Fill ``buf`` with the plane image.

    All numpy views over ``buf`` are local to this function so the caller
    can close the backing afterwards without dangling exports.
    """
    buf[: len(_MAGIC)] = _MAGIC
    struct.pack_into("<Q", buf, len(_MAGIC), len(header_bytes))
    start = len(_MAGIC) + 8
    buf[start : start + len(header_bytes)] = header_bytes
    for (name, dtype, shape, offset), a in zip(entries, arrays.values()):
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf,
                          offset=payload_start + offset)
        view[...] = a
        del view


def _read_header(buf) -> tuple[dict, int]:
    if bytes(buf[: len(_MAGIC)]) != _MAGIC:
        raise ValueError("not a kernel plane (bad magic)")
    (header_len,) = struct.unpack_from("<Q", buf, len(_MAGIC))
    start = len(_MAGIC) + 8
    header = pickle.loads(bytes(buf[start : start + header_len]))
    return header, _align_up(start + header_len)


def _verify_payload(buf, header: dict, payload_start: int) -> None:
    """Check the payload CRC recorded at build time (pre-checksum planes pass)."""
    expected = header.get("crc32")
    if expected is None:
        return
    crc = 0
    for _, dtype, shape, offset in header["arrays"]:
        nbytes = int(np.dtype(dtype).itemsize * int(np.prod(shape, dtype=np.int64)))
        start = payload_start + offset
        crc = zlib.crc32(buf[start : start + nbytes], crc)
    if crc != expected:
        raise PlaneIntegrityError(
            f"kernel plane payload checksum mismatch for digest "
            f"{header.get('digest', '?')[:12]} (stored {expected:#010x}, "
            f"computed {crc:#010x})"
        )


class AttachedPlane:
    """A kernel plane mapped into this process: views + reconstructed objects.

    ``kernel`` / ``evaluator`` are ordinary :class:`SMPKernel` /
    :class:`UEvaluator` objects whose arrays alias the plane buffer
    (``OWNDATA`` is false on every one of them); the factored engine, when
    exported, is prefilled the same way.  Keep the object alive for as long
    as the evaluator is in use — it owns the mapping.
    """

    def __init__(self, buf, owner, header: dict, payload_start: int):
        self._owner = owner  # the SharedMemory or mmap keeping the buffer alive
        self._buf = buf
        self.digest: str = header["digest"]
        self.factored: bool = header["factored"]
        n = header["n_states"]
        self.arrays: dict[str, np.ndarray] = {}
        for name, dtype, shape, offset in header["arrays"]:
            self.arrays[name] = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=buf,
                offset=payload_start + offset,
            )
        v = self.arrays
        self.kernel = SMPKernel._from_csr(
            n, v["indptr"], v["indices"], v["csr_probs"], v["csr_dist_index"],
            v["csr_rows"], header["distributions"], content_digest=self.digest,
        )
        self.evaluator = UEvaluator._from_parts(
            self.kernel, v["indptr"], v["indices"], v["csr_probs"],
            v["csr_dist_index"], v["csr_rows"],
        )
        if self.factored:
            factored = FactoredUEvaluator(self.evaluator)
            factored._row_pair_cache = (
                v["pair_src"], v["pair_dist"], v["pair_of_edge"],
            )
            factored._row_pair_count = int(v["pair_src"].size)
            factored._dist_row_sums = v["dist_row_sums"]
            self.evaluator._factored = factored

    def close(self) -> None:
        """Drop the views and release the mapping (best effort).

        A worker that holds live evaluator references cannot fully release a
        shared-memory buffer (numpy exports pin it); process exit reclaims it
        regardless, so ``BufferError`` here is ignored.
        """
        self.arrays.clear()
        self.kernel = self.evaluator = None
        self._buf = None
        owner, self._owner = self._owner, None
        if owner is not None:
            try:
                owner.close()
            except BufferError:
                pass


@dataclass(frozen=True)
class PlaneHandle:
    """A picklable reference to a built plane — bytes, not arrays.

    ``kind`` is ``"shm"`` (ref is a POSIX shared-memory name) or ``"file"``
    (ref is a path).  This is all that ever crosses a process boundary.
    """

    kind: str
    ref: str

    def attach(self) -> AttachedPlane:
        faults.fire("plane.attach", kind=self.kind, ref=self.ref)
        if self.kind == "shm":
            # Python's resource tracker registers the segment on *attach*
            # (not just create) and would unlink it when the first attaching
            # process exits, yanking the plane out from under every sibling
            # worker and the owner (bpo-38119).  Ownership stays with the
            # builder: suppress registration for the duration of the attach.
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register

            def _register_except_shm(name, rtype):
                if rtype != "shared_memory":
                    original_register(name, rtype)

            resource_tracker.register = _register_except_shm
            try:
                shm = shared_memory.SharedMemory(name=self.ref)
            finally:
                resource_tracker.register = original_register
            buf = shm.buf
            try:
                header, payload_start = _read_header(buf)
                _verify_payload(buf, header, payload_start)
            except BaseException:
                shm.close()
                raise
            return AttachedPlane(buf, shm, header, payload_start)
        if self.kind == "file":
            with open(self.ref, "rb") as f:
                mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            buf = memoryview(mapped)
            try:
                header, payload_start = _read_header(buf)
                _verify_payload(buf, header, payload_start)
            except BaseException:
                buf.release()
                mapped.close()
                raise
            return AttachedPlane(buf, mapped, header, payload_start)
        raise ValueError(f"unknown plane backing {self.kind!r}")


class KernelPlane:
    """Owner side of a plane: builds the buffer and controls its lifetime."""

    def __init__(self, handle: PlaneHandle, digest: str, nbytes: int, shm=None):
        self._handle = handle
        self.digest = digest
        self.nbytes = nbytes
        self._shm = shm
        self._unlinked = False
        if shm is not None:
            # Belt and braces: if the owner forgets to unlink, reclaim the
            # segment at GC / interpreter exit instead of leaking /dev/shm.
            self._finalizer = weakref.finalize(self, KernelPlane._reclaim, shm)
        else:
            self._finalizer = None

    @staticmethod
    def _reclaim(shm) -> None:  # pragma: no cover - exit-path safety net
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass

    @classmethod
    def build(
        cls,
        evaluator: UEvaluator,
        *,
        backing: str = "shm",
        path: str | os.PathLike | None = None,
        include_factored: bool | None = None,
    ) -> "KernelPlane":
        """Serialise ``evaluator``'s kernel into a shared buffer.

        ``include_factored=None`` exports the factored slices only when the
        evaluator has already built its factored engine (callers that know
        the resolved engine pass an explicit bool).  ``backing="file"``
        writes atomically to ``path`` (temp file + rename), so concurrent
        exporters of the same digest are safe.
        """
        if include_factored is None:
            include_factored = getattr(evaluator, "_factored", None) is not None
        arrays, entries, header_bytes, payload_start, total = _plan(
            evaluator, include_factored
        )
        digest = kernel_content_digest(evaluator.kernel)
        faults.fire("plane.export", digest=digest, backing=backing)
        if backing == "shm":
            shm = shared_memory.SharedMemory(create=True, size=total)
            _write_into(shm.buf, arrays, entries, header_bytes, payload_start)
            faults.corrupt_buffer(
                "plane.export", shm.buf, start=payload_start, digest=digest
            )
            return cls(PlaneHandle("shm", shm.name), digest, total, shm=shm)
        if backing == "file":
            if path is None:
                raise ValueError("file backing requires a path")
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".plane.tmp")
            try:
                with os.fdopen(fd, "r+b") as f:
                    f.truncate(total)
                    mapped = mmap.mmap(f.fileno(), total, access=mmap.ACCESS_WRITE)
                    try:
                        _write_into(mapped, arrays, entries, header_bytes,
                                    payload_start)
                        faults.corrupt_buffer(
                            "plane.export", mapped, start=payload_start,
                            digest=digest,
                        )
                        mapped.flush()
                    finally:
                        mapped.close()
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            return cls(PlaneHandle("file", str(path)), digest, total)
        raise ValueError(f"unknown plane backing {backing!r}")

    def handle(self) -> PlaneHandle:
        return self._handle

    def close(self) -> None:
        """Release the owner's mapping (shm only; file planes live on disk)."""
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - no owner-side views exist
                pass

    def unlink(self) -> None:
        """Destroy the backing.  Safe to call more than once."""
        if self._unlinked:
            return
        self._unlinked = True
        if self._finalizer is not None:
            self._finalizer.detach()
        if self._shm is not None:
            self.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        elif self._handle.kind == "file":
            try:
                os.unlink(self._handle.ref)
            except FileNotFoundError:
                pass


class PlaneStore:
    """Content-addressed plane files under a directory (``<digest>.<eng>.plane``).

    The file-backed sibling of the shm path: `semimarkov serve` exports each
    registered kernel once, and worker processes — including ones started
    later, or on a checkpoint-sharing host — attach by digest.  Export is
    idempotent and atomic; the factored and csr-only variants of one kernel
    coexist because their filenames differ.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, digest: str, *, factored: bool = False) -> Path:
        return self.directory / f"{digest}.{'fac' if factored else 'csr'}.plane"

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a failed-integrity plane aside so the digest rebuilds fresh."""
        with contextlib.suppress(OSError):
            os.replace(path, path.with_name(path.name + ".corrupt"))
        note_corrupt_artifact("plane")

    @classmethod
    def _valid(cls, path: Path) -> bool:
        """Integrity-check an existing plane file; quarantines on failure.

        Export idempotence reuses a file that is already on disk, so a
        corrupted plane would otherwise be re-served forever — to the
        exporter *and* to every worker attaching by digest.
        """
        try:
            with open(path, "rb") as f:
                mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            try:
                buf = memoryview(mapped)
                try:
                    header, payload_start = _read_header(buf)
                    _verify_payload(buf, header, payload_start)
                finally:
                    buf.release()
            finally:
                mapped.close()
        except Exception:  # truncated/garbled files fail header or CRC reads
            cls._quarantine(path)
            return False
        return True

    def export(
        self, evaluator: UEvaluator, *, include_factored: bool | None = None
    ) -> PlaneHandle:
        if include_factored is None:
            include_factored = getattr(evaluator, "_factored", None) is not None
        digest = kernel_content_digest(evaluator.kernel)
        path = self.path_for(digest, factored=include_factored)
        if not path.exists() or not self._valid(path):
            KernelPlane.build(
                evaluator, backing="file", path=path,
                include_factored=include_factored,
            )
        return PlaneHandle("file", str(path))

    def attach(self, digest: str, *, factored: bool = False) -> AttachedPlane:
        path = self.path_for(digest, factored=factored)
        if not path.exists() and not factored:
            # A factored export is a superset: fall back to it.
            path = self.path_for(digest, factored=True)
        if not path.exists():
            raise FileNotFoundError(f"no plane exported for digest {digest}")
        try:
            return PlaneHandle("file", str(path)).attach()
        except PlaneIntegrityError:
            self._quarantine(path)
            raise FileNotFoundError(
                f"plane for digest {digest} failed its checksum and was "
                f"quarantined; re-export it"
            ) from None

    def digests(self) -> list[str]:
        return sorted({p.name.split(".")[0] for p in self.directory.glob("*.plane")})

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.directory.glob("*.plane"))
