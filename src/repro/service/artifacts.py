"""Checksummed, versioned model artifacts for warm-start serving.

Fitting a sampling-based predictor is the expensive part -- drawing the
sample, bulk loading the mini index, growing the leaves by Theorem 1's
compensation factor.  Counting a workload against the fitted geometry
is cheap.  A :class:`FittedModel` snapshots the boundary between the
two: the compensation-grown :class:`~repro.kernels.geometry.LeafGeometry`
plus the exact configuration that produced it.  Saving and reloading
one must be *bit-identical*: the geometry arrays round-trip as raw
little-endian float64 bytes, so a prediction from a loaded model equals
a prediction from the fitted one to the last bit (the
persistence-equality contract, in the spirit of error-bounded index
artifacts a la FITing-Tree: a saved model is a verifiable contract, not
a cache you hope is right).

The on-disk format is deliberately paranoid, because a warm-start
artifact is exactly the kind of file that silently rots in a model
store and then serves wrong answers for weeks:

* magic ``RPRO`` + explicit format version -- a version this build does
  not speak raises :class:`~repro.errors.ArtifactCorruptError`
  (``reason="version"``), it is never "probably close enough";
* a JSON metadata section and one binary section per geometry array,
  each carrying its own CRC32, verified on load *before* anything is
  returned;
* a whole-file CRC32 footer catching truncation and any flip the
  section checks might miss.

Loading stops at the first failed check; the caller (usually an
:class:`ArtifactStore`) rebuilds from data and overwrites the bad file.
"""

from __future__ import annotations

import io
import json
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.counting import PredictionResult, count_accesses
from ..core.minindex import MiniIndexModel
from ..errors import ArtifactCorruptError, InputValidationError
from ..kernels.batch import BatchPlan
from ..kernels.geometry import LeafGeometry
from ..kernels.registry import get_kernel
from ..workload.queries import KNNWorkload, RangeWorkload

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactStore",
    "FittedModel",
    "fit_model",
    "load_artifact",
    "save_artifact",
]

_MAGIC = b"RPRO"
#: bump on any incompatible layout change; loaders refuse other versions
ARTIFACT_VERSION = 1

#: geometry arrays in serialization order: (attribute, stored dtype)
_ARRAYS = (
    ("lower", "<f8"),
    ("upper", "<f8"),
    ("n_points", "<i8"),
    ("virtual_n", "<i8"),
)


@dataclass(frozen=True)
class FittedModel:
    """A fitted predictor: frozen geometry plus its fitting record.

    ``geometry`` is the compensation-grown leaf-page layout predictions
    count against; ``meta`` records how it was fitted (dataset shape,
    page capacities, memory budget, sampling seed, zeta, ...) so a
    loaded artifact is auditable and a cache key can be validated.
    ``predict`` is pure counting -- no disk, no randomness -- which is
    what makes warm serving cheap and the reload guarantee exact.
    """

    geometry: LeafGeometry
    meta: dict = field(default_factory=dict)

    def predict(
        self, workload: KNNWorkload | RangeWorkload
    ) -> PredictionResult:
        """Count the workload against the fitted geometry."""
        per_query = count_accesses(self.geometry, workload)
        return PredictionResult(
            per_query=per_query,
            detail={
                "warm": True,
                "n_mini_leaves": self.geometry.k,
                "kernel": get_kernel().name,
            },
        )

    def predict_many(
        self,
        workloads: "list[KNNWorkload] | list[RangeWorkload]",
    ) -> list[PredictionResult]:
        """One fused kernel dispatch answering several workloads.

        The service coalescer's fast path: the members' queries are
        concatenated under a :class:`~repro.kernels.batch.BatchPlan`,
        counted in a *single* kernel call, and carved back per member.
        Every kernel counts each query independently of its neighbours,
        so member ``m``'s counts are bit-identical to a stand-alone
        ``predict(workloads[m])`` -- and the fused dispatch's charged
        cost (zero here: warm counting touches no disk) is attributed
        across members exactly via ``BatchPlan.attribute``.  Workloads
        must all be k-NN or all be range: mixed shapes cannot share a
        kernel call.
        """
        if not workloads:
            return []
        if len({isinstance(w, KNNWorkload) for w in workloads}) > 1:
            raise InputValidationError(
                "predict_many cannot mix k-NN and range workloads in "
                "one fused dispatch"
            )
        impl = get_kernel()
        plan = BatchPlan.for_members(
            [str(m) for m in range(len(workloads))],
            [w.n_queries for w in workloads],
            kernel=impl.name,
            n_leaves=self.geometry.k,
        )
        if isinstance(workloads[0], KNNWorkload):
            fused = impl.count_knn(
                self.geometry,
                np.concatenate([w.queries for w in workloads], axis=0),
                np.concatenate([w.radii for w in workloads]),
            )
        else:
            fused = impl.count_range(
                self.geometry,
                np.concatenate([w.lower for w in workloads], axis=0),
                np.concatenate([w.upper for w in workloads], axis=0),
            )
        detail = {
            "warm": True,
            "n_mini_leaves": self.geometry.k,
            "kernel": impl.name,
        }
        return [
            PredictionResult(per_query=part, detail=dict(detail))
            for part in plan.split(fused)
        ]


def fit_model(
    points: np.ndarray,
    *,
    c_data: int,
    c_dir: int,
    memory: int = 10_000,
    seed: int = 0,
    config=None,
) -> FittedModel:
    """Fit a warm-start model: sample, build, compensate, freeze.

    The sampling fraction is ``min(1, memory / n)`` -- the same default
    the facade uses for its mini method -- and the RNG is seeded
    explicitly, so fitting twice with the same arguments yields
    bit-identical geometry (and therefore bit-identical artifacts).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InputValidationError(
            f"points must be a non-empty (n, d) matrix, got {points.shape}"
        )
    n, dim = points.shape
    fraction = min(1.0, memory / n)
    model = MiniIndexModel(c_data, c_dir, config=config)
    geometry, detail = model.fit_geometry(
        points, fraction, np.random.default_rng(seed)
    )
    meta = {
        "n": int(n),
        "dim": int(dim),
        "c_data": int(c_data),
        "c_dir": int(c_dir),
        "memory": int(memory),
        "seed": int(seed),
        **detail,
    }
    return FittedModel(geometry=geometry, meta=meta)


# ----------------------------------------------------------------------
# Binary format
# ----------------------------------------------------------------------

def _pack_section(name: str, payload: bytes) -> bytes:
    """``name | length | payload | crc32(payload)`` with fixed-width
    little-endian framing."""
    name_bytes = name.encode("utf-8")
    return (
        struct.pack("<I", len(name_bytes))
        + name_bytes
        + struct.pack("<Q", len(payload))
        + payload
        + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    )


class _Reader:
    """Cursor over artifact bytes; every read is bounds-checked so a
    truncated file fails as ``reason="header"``, never as an
    :class:`IndexError` escaping to the caller."""

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.offset = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise ArtifactCorruptError(
                self.path, "header",
                detail=f"truncated while reading {what} "
                       f"({self.offset + n} needed, {len(self.data)} present)",
            )
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def take_u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def take_u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def take_section(self) -> tuple[str, bytes]:
        name_len = self.take_u32("section name length")
        if name_len > 4096:
            raise ArtifactCorruptError(
                self.path, "header",
                detail=f"implausible section name length {name_len}",
            )
        name = self.take(name_len, "section name").decode(
            "utf-8", errors="replace"
        )
        payload_len = self.take_u64(f"section {name!r} length")
        if payload_len > len(self.data):
            raise ArtifactCorruptError(
                self.path, "header", section=name,
                detail=f"section claims {payload_len} bytes but the file "
                       f"holds {len(self.data)}",
            )
        payload = self.take(payload_len, f"section {name!r} payload")
        stored = self.take_u32(f"section {name!r} crc")
        actual = zlib.crc32(payload) & 0xFFFFFFFF
        if stored != actual:
            raise ArtifactCorruptError(
                self.path, "checksum", section=name,
                detail=f"stored crc32 {stored:#010x}, payload reads "
                       f"{actual:#010x}",
            )
        return name, payload


def _array_payload(array: np.ndarray, dtype: str) -> bytes:
    """Shape-framed little-endian bytes: ndim | dims... | raw data."""
    cast = np.ascontiguousarray(array, dtype=np.dtype(dtype))
    out = struct.pack("<I", cast.ndim)
    for size in cast.shape:
        out += struct.pack("<Q", size)
    return out + cast.tobytes()


def _payload_array(payload: bytes, dtype: str, path: str,
                   name: str) -> np.ndarray:
    reader = _Reader(payload, path)
    ndim = reader.take_u32(f"{name} ndim")
    if ndim > 4:
        raise ArtifactCorruptError(
            path, "header", section=name,
            detail=f"implausible array rank {ndim}",
        )
    shape = tuple(reader.take_u64(f"{name} dim {i}") for i in range(ndim))
    itemsize = np.dtype(dtype).itemsize
    expected = itemsize * int(np.prod(shape, dtype=np.int64)) if shape else itemsize
    remaining = len(payload) - reader.offset
    if remaining != expected:
        raise ArtifactCorruptError(
            path, "header", section=name,
            detail=f"array of shape {shape} needs {expected} bytes, "
                   f"section holds {remaining}",
        )
    flat = np.frombuffer(payload, dtype=np.dtype(dtype), offset=reader.offset)
    return flat.reshape(shape)


def save_artifact(path: str | Path, model: FittedModel) -> Path:
    """Serialize a fitted model; returns the path written.

    The write goes through a temporary sibling file and an atomic
    rename, so a crash mid-save leaves either the old artifact or none
    -- never a half-written file that the next load would have to
    distrust.
    """
    path = Path(path)
    buffer = io.BytesIO()
    buffer.write(_MAGIC)
    buffer.write(struct.pack("<I", ARTIFACT_VERSION))
    meta_bytes = json.dumps(model.meta, sort_keys=True).encode("utf-8")
    buffer.write(_pack_section("meta", meta_bytes))
    for attr, dtype in _ARRAYS:
        buffer.write(_pack_section(
            attr, _array_payload(getattr(model.geometry, attr), dtype)
        ))
    body = buffer.getvalue()
    footer = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(body + footer)
    tmp.replace(path)
    return path


def load_artifact(path: str | Path) -> FittedModel:
    """Deserialize and *verify* a fitted model.

    Raises :class:`~repro.errors.ArtifactCorruptError` on the first
    failed check -- bad magic, unknown version, malformed or truncated
    framing, any section CRC mismatch, or a whole-file CRC mismatch.
    Returns only a fully verified model.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as error:
        raise ArtifactCorruptError(
            str(path), "header", detail=f"unreadable: {error}"
        ) from error
    if len(data) < len(_MAGIC) + 8:
        raise ArtifactCorruptError(
            str(path), "magic",
            detail=f"file holds {len(data)} bytes, smaller than any artifact",
        )
    body, stored_footer = data[:-4], struct.unpack("<I", data[-4:])[0]
    if (zlib.crc32(body) & 0xFFFFFFFF) != stored_footer:
        raise ArtifactCorruptError(
            str(path), "checksum", section="file",
            detail="whole-file crc32 mismatch (truncated or flipped)",
        )
    reader = _Reader(body, str(path))
    if reader.take(len(_MAGIC), "magic") != _MAGIC:
        raise ArtifactCorruptError(
            str(path), "magic", detail="not a repro model artifact"
        )
    version = reader.take_u32("format version")
    if version != ARTIFACT_VERSION:
        raise ArtifactCorruptError(
            str(path), "version",
            detail=f"artifact is format v{version}, this build speaks "
                   f"v{ARTIFACT_VERSION}",
        )
    sections: dict[str, bytes] = {}
    while reader.offset < len(body):
        name, payload = reader.take_section()
        sections[name] = payload
    if "meta" not in sections:
        raise ArtifactCorruptError(
            str(path), "header", detail="missing meta section"
        )
    try:
        meta = json.loads(sections["meta"].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ArtifactCorruptError(
            str(path), "header", section="meta",
            detail=f"metadata is not valid JSON: {error}",
        ) from error
    arrays = {}
    for attr, dtype in _ARRAYS:
        if attr not in sections:
            raise ArtifactCorruptError(
                str(path), "header", detail=f"missing section {attr!r}"
            )
        arrays[attr] = _payload_array(sections[attr], dtype, str(path), attr)
    try:
        geometry = LeafGeometry(
            arrays["lower"], arrays["upper"],
            arrays["n_points"], arrays["virtual_n"],
        )
    except ValueError as error:
        raise ArtifactCorruptError(
            str(path), "header", detail=f"inconsistent geometry: {error}"
        ) from error
    return FittedModel(geometry=geometry, meta=meta)


# ----------------------------------------------------------------------
# Keyed store
# ----------------------------------------------------------------------

class ArtifactStore:
    """A directory of artifacts keyed by name, with rebuild-on-corrupt.

    ``load_or_fit(key, fit)`` is the warm-start entry point the service
    uses: a verified artifact loads instantly; a missing, corrupt, or
    version-skewed one triggers ``fit()`` and the result is saved over
    whatever was there.  The outcome of every lookup is recorded in
    ``events`` (``"hit"``, ``"miss"``, ``"rebuilt"``, ``"adopted"``) so
    healing is never invisible.

    Lookups are serialized per key: two threads racing
    :meth:`load_or_fit` on the same corrupt artifact perform exactly one
    rebuild -- the loser of the race loads the winner's healed file and
    gets a bit-identical model, instead of fitting again or reading a
    half-written artifact.  The anti-entropy path of the cluster relies
    on this (a scrubber healing a key while a request warm-starts it).
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: lookup history: list of (key, outcome, detail)
        self.events: list[tuple[str, str, str]] = []
        self._guard = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}

    def _lock_for(self, key: str) -> threading.Lock:
        with self._guard:
            return self._key_locks.setdefault(key, threading.Lock())

    def path_for(self, key: str) -> Path:
        safe = "".join(
            ch if ch.isalnum() or ch in "-_." else "_" for ch in key
        )
        return self.directory / f"{safe}.rpro"

    def load_or_fit(self, key: str, fit) -> FittedModel:
        """A verified cached model, or a freshly fitted and saved one."""
        path = self.path_for(key)
        with self._lock_for(key):
            if path.exists():
                try:
                    model = load_artifact(path)
                    self.events.append((key, "hit", str(path)))
                    return model
                except ArtifactCorruptError as error:
                    # The artifact lied; rebuild from data and overwrite.
                    self.events.append((key, "rebuilt", str(error)))
                    model = fit()
                    save_artifact(path, model)
                    return model
            self.events.append((key, "miss", str(path)))
            model = fit()
            save_artifact(path, model)
            return model

    def verify(self, key: str) -> FittedModel:
        """Load and fully verify ``key``'s artifact (no rebuild).

        Raises :class:`~repro.errors.ArtifactCorruptError` on any failed
        check and ``reason="header"`` when the file is missing -- the
        anti-entropy scrubber treats both as "this copy needs healing".
        """
        with self._lock_for(key):
            return load_artifact(self.path_for(key))

    def adopt(self, key: str, data: bytes) -> FittedModel:
        """Install verified peer bytes as this store's copy of ``key``.

        The cluster's anti-entropy pass heals a corrupt artifact from a
        replica peer by copying the peer's file *bytes* -- artifacts of
        the same fit are bit-identical, so adoption preserves the
        bit-identical-reload contract without refitting.  The bytes are
        written to a temporary sibling and **verified before** the
        atomic rename: corrupt donor bytes raise
        :class:`~repro.errors.ArtifactCorruptError` and leave the
        existing file untouched.
        """
        path = self.path_for(key)
        tmp = path.with_name(path.name + ".adopt")
        with self._lock_for(key):
            tmp.write_bytes(data)
            try:
                model = load_artifact(tmp)
            except ArtifactCorruptError:
                tmp.unlink(missing_ok=True)
                raise
            tmp.replace(path)
            self.events.append((key, "adopted", str(path)))
            return model

    def rebuilds(self) -> int:
        return sum(1 for _, outcome, _ in self.events if outcome == "rebuilt")
