"""The finding bank: versioned, deduped, on-disk storage for campaign finds.

Both campaigns end in a *bank*: the generative campaign banks reduced
divergent repros (:class:`~repro.generative.bank.BankedRepro`), the
sanitizer-validation campaign banks confirmed sanitizer FNs/FPs
(:class:`~repro.sanval.bank.BankedFinding`).  One :class:`Bank` holds
either kind; a bank directory holds exactly one.

On-disk layout (``<root>/``)::

    manifest.json          # {"version": 2, "kind": ..., "entries": [...]}
    programs/<key><suffix> # one file per source field of the record type

Dedupe is by equivalence class, not source text: each record type
derives its 16-hex-char ``key`` from its own metadata (see the record
types), and :meth:`Bank.add` stores nothing for a key already present —
the first claim on a class wins.  That is what makes resumed, sharded,
and fault-injected campaigns converge on the same bank, and what lets
several campaigns share one bank directory.

The manifest codec is derived from the record dataclass fields: source
fields live in program files, ``bytes`` encode as hex, tuples as lists.

Manifest and program writes are atomic *and durable* (tmp + fsync +
``os.replace`` + directory fsync via :mod:`repro.persist`), and program
files land before the manifest references them, so a campaign killed
mid-add leaves the previous bank intact.  Loading is strict: a
corrupt manifest, a missing program, a key that does not match its
metadata, or a version-1 manifest raises :class:`ReproError` naming
``repro bank fsck`` (:mod:`repro.campaigns.fsck`), which salvages and
migrates.
"""

from __future__ import annotations

import hashlib
import json
import os
import typing
from dataclasses import fields
from pathlib import Path

from repro.errors import ReproError
from repro.persist import atomic_write_json, atomic_write_text

#: Manifest format version; bump on incompatible layout changes.
BANK_VERSION = 2

#: Bank kinds, one per record type.
GENERATIVE = "generative"
SANCHECK = "sancheck"
BANK_KINDS = (GENERATIVE, SANCHECK)


def record_type(kind: str) -> type["BankRecord"]:
    """The record type a bank of *kind* holds."""
    if kind == GENERATIVE:
        from repro.generative.bank import BankedRepro

        return BankedRepro
    if kind == SANCHECK:
        from repro.sanval.bank import BankedFinding

        return BankedFinding
    raise ReproError(f"unknown bank kind {kind!r}; expected one of {BANK_KINDS}")


def class_key(*parts: str) -> str:
    """Dedupe key (16 hex chars) over the ``#``-joined class signature."""
    return hashlib.sha256("#".join(parts).encode("utf-8")).hexdigest()[:16]


def partition_signature(partition: tuple[tuple[str, ...], ...]) -> str:
    """Canonical text of an implementation partition, for :func:`class_key`."""
    return ";".join(",".join(group) for group in partition)


def _encode(value):
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


def _decode(hint, value):
    if hint is bytes:
        return bytes.fromhex(value)
    origin = typing.get_origin(hint)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return origin(_decode(item, element) for element in value)
    if not isinstance(value, hint):
        raise TypeError(f"expected {hint.__name__}, got {value!r}")
    return value


class BankRecord:
    """Base of the banked record dataclasses.

    Subclasses set ``KIND`` (the bank kind), ``PROGRAMS`` (source field
    -> program file suffix), and define the ``key`` property over their
    own fields — the one place their dedupe formula lives.
    """

    KIND: typing.ClassVar[str]
    PROGRAMS: typing.ClassVar[dict[str, str]]

    @property
    def key(self) -> str:  # pragma: no cover - every subclass overrides
        raise NotImplementedError

    def to_json(self) -> dict:
        """Manifest entry: the key plus every non-source field."""
        entry = {"key": self.key}
        for spec in fields(self):
            if spec.name not in self.PROGRAMS:
                entry[spec.name] = _encode(getattr(self, spec.name))
        return entry

    @classmethod
    def from_json(cls, entry: dict, programs: dict[str, str]):
        """Inverse of :meth:`to_json`; *programs* maps source fields to text.

        Raises KeyError/TypeError/ValueError on a malformed entry.
        """
        hints = typing.get_type_hints(cls)
        values = {}
        for spec in fields(cls):
            if spec.name in cls.PROGRAMS:
                values[spec.name] = programs[spec.name]
            else:
                values[spec.name] = _decode(hints[spec.name], entry[spec.name])
        return cls(**values)


class Bank:
    """A bank directory: load, dedupe, append, persist.

    *kind* pins the record type; ``None`` adopts the kind of the
    manifest on disk, or of the first record added.  The bank is
    append-only: :meth:`add` returns False (and stores nothing) for a
    key that is already banked.
    """

    MANIFEST = "manifest.json"
    PROGRAMS_DIR = "programs"

    def __init__(self, root: str | os.PathLike, kind: str | None = None) -> None:
        self.root = Path(root)
        self.kind: str | None = None
        self._records: dict[str, BankRecord] = {}
        if self.manifest_path.exists():
            self._load()
        if kind is not None:
            self._claim_kind(kind)

    # --------------------------------------------------------------- queries

    @property
    def manifest_path(self) -> Path:
        return self.root / self.MANIFEST

    @property
    def programs_dir(self) -> Path:
        return self.root / self.PROGRAMS_DIR

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __iter__(self):
        """Banked records in key order (stable across runs)."""
        return iter([self._records[key] for key in sorted(self._records)])

    def keys(self) -> list[str]:
        return sorted(self._records)

    def get(self, key: str):
        return self._records.get(key)

    # ------------------------------------------------------------ mutation

    def add(self, record: BankRecord) -> bool:
        """Bank *record* unless its class is already present.

        Program files land before the manifest references them, and the
        manifest write is atomic — a kill mid-add leaves a bank that
        loads cleanly (at worst with orphaned program files).
        """
        self._claim_kind(record.KIND)
        key = record.key
        if key in self._records:
            return False
        for name, suffix in record.PROGRAMS.items():
            atomic_write_text(self.programs_dir / f"{key}{suffix}", getattr(record, name))
        self._records[key] = record
        atomic_write_json(
            self.manifest_path,
            {
                "version": BANK_VERSION,
                "kind": self.kind,
                "entries": [record.to_json() for record in self],
            },
        )
        return True

    # ------------------------------------------------------------ internals

    def _claim_kind(self, kind: str | None) -> None:
        if kind not in BANK_KINDS:
            raise ReproError(f"unknown bank kind {kind!r}; expected one of {BANK_KINDS}")
        if self.kind is None:
            self.kind = kind
        elif kind != self.kind:
            raise ReproError(f"bank {self.root} holds {self.kind} entries, not {kind}")

    def _load(self) -> None:
        salvage = f"(salvage with `repro bank fsck {self.root}`)"
        try:
            data = json.loads(self.manifest_path.read_text())
            version = data.get("version")
        except (OSError, json.JSONDecodeError, AttributeError) as exc:
            raise ReproError(
                f"bank manifest {self.manifest_path} is unreadable: {exc} {salvage}"
            ) from exc
        if version != BANK_VERSION:
            raise ReproError(
                f"bank manifest {self.manifest_path} has version {version!r}, "
                f"expected {BANK_VERSION} (migrate with `repro bank fsck {self.root}`)"
            )
        self._claim_kind(data.get("kind"))
        cls = record_type(self.kind)
        for entry in data["entries"]:
            key = entry["key"]
            try:
                programs = {
                    name: (self.programs_dir / f"{key}{suffix}").read_text()
                    for name, suffix in cls.PROGRAMS.items()
                }
                record = cls.from_json(entry, programs)
            except OSError as exc:
                raise ReproError(
                    f"program for banked entry {key} is missing: {exc} {salvage}"
                ) from exc
            except (KeyError, TypeError, ValueError) as exc:
                raise ReproError(
                    f"banked entry {key} does not parse: {exc!r} {salvage}"
                ) from exc
            if record.key != key:
                raise ReproError(
                    f"banked entry {key} does not match its metadata {salvage}"
                )
            self._records[key] = record
