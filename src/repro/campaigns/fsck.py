"""Corpus salvage: quarantine the broken parts of a bank, keep the rest.

Bank loading (:class:`~repro.campaigns.bank.Bank`) is deliberately
strict — a corrupt manifest or a missing program file raises
:class:`~repro.errors.ReproError` rather than silently dropping
evidence.  ``repro bank fsck`` is the other half of that contract: it
walks a damaged bank, moves everything unsalvageable into a
``corrupt/`` sidecar (with a ledger recording why), rewrites the
manifest over the surviving entries, and leaves a bank that loads
cleanly again.  It is also the migration path: a version-1 manifest
(``{"version": 1, "repros"|"findings": [...]}``) is validated like any
other and rewritten in the version-2 layout.

What gets quarantined, per entry:

* manifest entries that do not parse back into a banked record;
* entries whose program files (``.c``, plus the ``.good.c`` twin for
  generative banks) are missing or unreadable;
* entries whose recorded dedupe key does not match the key recomputed
  from their own metadata (a tampered or bit-rotten record);
* duplicate keys (first occurrence wins, later ones quarantined);
* program files no surviving entry references (orphans).

A manifest that does not parse at all (or is no bank manifest) is
quarantined wholesale and **no new manifest is written**: a bank treats
a missing manifest as empty, so the directory still loads — with its
programs preserved under ``corrupt/`` for manual recovery.  A manifest
of an unknown version keeps its file but distrusts every entry.

Sidecar layout (``<root>/corrupt/``)::

    ledger.json          # why each item was quarantined, append-only
    manifest.json        # the quarantined manifest, if it was unreadable
    programs/<file>      # quarantined program files
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaigns.bank import (
    BANK_KINDS,
    BANK_VERSION,
    GENERATIVE,
    SANCHECK,
    Bank,
    record_type,
)
from repro.errors import ReproError
from repro.persist import atomic_write_json, fsync_directory

#: Sidecar directory and ledger names.
CORRUPT_DIR = "corrupt"
LEDGER_FILE = "ledger.json"
#: Sidecar ledger format version.
LEDGER_VERSION = 1

#: The version-1 manifest's entry list, per kind.
V1_ENTRIES = {GENERATIVE: "repros", SANCHECK: "findings"}


@dataclass
class FsckFinding:
    """One quarantined item and why."""

    #: Manifest key the item belonged to (None for the manifest itself
    #: and for orphaned files).
    key: str | None
    reason: str
    #: Files moved into the sidecar, sidecar-relative.
    files: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"key": self.key, "reason": self.reason, "files": self.files}


@dataclass
class FsckReport:
    """Outcome of one salvage pass."""

    root: str
    kind: str
    #: Entries the manifest claimed before salvage.
    total_entries: int = 0
    #: Entries that survived validation.
    kept: int = 0
    quarantined: list[FsckFinding] = field(default_factory=list)
    #: True when the manifest itself was unreadable and went wholesale
    #: into the sidecar.
    manifest_quarantined: bool = False
    #: True when a version-1 manifest was rewritten as version 2.
    migrated: bool = False

    @property
    def clean(self) -> bool:
        return not self.quarantined and not self.manifest_quarantined

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "kind": self.kind,
            "total_entries": self.total_entries,
            "kept": self.kept,
            "manifest_quarantined": self.manifest_quarantined,
            "migrated": self.migrated,
            "quarantined": [finding.to_json() for finding in self.quarantined],
        }

    def render(self) -> str:
        migrated = f"; manifest migrated to version {BANK_VERSION}" if self.migrated else ""
        if self.clean:
            return (
                f"bank fsck: {self.root} is clean "
                f"({self.kept} of {self.total_entries} entries verified{migrated})"
            )
        lines = [
            f"bank fsck: salvaged {self.root} — kept {self.kept} of "
            f"{self.total_entries} entries, quarantined "
            f"{len(self.quarantined)} item(s) into "
            f"{os.path.join(self.root, CORRUPT_DIR)}{migrated}"
        ]
        for finding in self.quarantined:
            label = finding.key if finding.key is not None else "<bank>"
            lines.append(f"  {label}: {finding.reason}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def _sidecar_move(root: Path, source: Path) -> str:
    """Move *source* into the sidecar, never clobbering prior salvage."""
    sidecar = root / CORRUPT_DIR
    relative = source.relative_to(root)
    target = sidecar / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    candidate = target
    serial = 0
    while candidate.exists():
        serial += 1
        candidate = target.with_name(f"{target.name}.{serial}")
    shutil.move(str(source), str(candidate))
    fsync_directory(str(candidate.parent))
    return str(candidate.relative_to(sidecar))


def _append_ledger(root: Path, findings: list[FsckFinding]) -> None:
    path = root / CORRUPT_DIR / LEDGER_FILE
    entries = []
    if path.exists():
        try:
            entries = json.loads(path.read_text()).get("entries", [])
        except (OSError, json.JSONDecodeError):
            # The ledger itself rotted; start a fresh one rather than
            # refuse to salvage the bank.
            entries = []
    entries.extend(finding.to_json() for finding in findings)
    atomic_write_json(path, {"version": LEDGER_VERSION, "entries": entries})


def _detect_kind(data: dict) -> str | None:
    if "entries" in data:
        kind = data.get("kind")
        return kind if kind in BANK_KINDS else None
    for kind, name in V1_ENTRIES.items():
        if name in data:
            return kind
    return None


# --------------------------------------------------------------------------
# Salvage
# --------------------------------------------------------------------------


def fsck_bank(root: str | os.PathLike, kind: str = "auto") -> FsckReport:
    """Salvage the bank at *root*; returns what was kept vs quarantined.

    *kind* is ``"auto"`` (detect from the manifest), ``"generative"``,
    or ``"sancheck"`` — the override matters only when the manifest is
    too far gone to detect from.  Raises :class:`ReproError` for a
    directory that is not a bank at all (no manifest and no programs).
    """
    if kind != "auto" and kind not in BANK_KINDS:
        raise ReproError(f"unknown bank kind {kind!r}; expected one of {BANK_KINDS}")
    root_path = Path(root)
    manifest_path = root_path / Bank.MANIFEST
    programs_dir = root_path / Bank.PROGRAMS_DIR
    if not manifest_path.exists() and not programs_dir.is_dir():
        raise ReproError(f"{root_path} is not a corpus bank (no manifest, no programs)")

    report = FsckReport(root=str(root_path), kind=kind)
    data: dict | None = None
    if manifest_path.exists():
        try:
            parsed = json.loads(manifest_path.read_text())
            if not isinstance(parsed, dict):
                raise ValueError(f"manifest root is {type(parsed).__name__}, not object")
            data = parsed
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            moved = _sidecar_move(root_path, manifest_path)
            report.manifest_quarantined = True
            report.quarantined.append(
                FsckFinding(key=None, reason=f"manifest unreadable: {exc}", files=[moved])
            )

    detected = _detect_kind(data) if data is not None else None
    if kind == "auto":
        kind = detected or kind
    report.kind = kind
    if data is not None and (detected is None or (kind != "auto" and detected != kind)):
        moved = _sidecar_move(root_path, manifest_path)
        report.manifest_quarantined = True
        report.quarantined.append(
            FsckFinding(
                key=None,
                reason=(
                    "manifest is not a recognizable bank manifest"
                    if detected is None
                    else f"manifest holds a {detected} bank, not {kind}"
                ),
                files=[moved],
            )
        )
        data = None

    kept_records: list = []
    referenced: set[str] = set()
    if data is not None:
        kept_records, referenced = _validate_entries(root_path, data, kind, report)

    # Orphan scan: any program file no surviving entry references.
    if programs_dir.is_dir():
        for entry in sorted(programs_dir.iterdir()):
            # Abandoned ``.tmp`` atomic-write leftovers are never
            # referenced, so they fall through here and get swept too.
            if entry.name in referenced:
                continue
            moved = _sidecar_move(root_path, entry)
            report.quarantined.append(
                FsckFinding(
                    key=None,
                    reason="orphaned program file (no manifest entry references it)",
                    files=[moved],
                )
            )

    if data is not None:
        _rewrite_manifest(manifest_path, kind, kept_records)
    if report.quarantined:
        _append_ledger(root_path, report.quarantined)
    return report


def _validate_entries(
    root: Path, data: dict, kind: str, report: FsckReport
) -> tuple[list, set[str]]:
    """Validate each manifest entry; quarantine failures via *report*."""
    cls = record_type(kind)
    version = data.get("version")
    entries = data["entries"] if "entries" in data else data.get(V1_ENTRIES[kind], [])
    if version == 1:
        for entry in entries:
            if isinstance(entry, dict) and "inputs_hex" in entry:
                entry["inputs"] = entry.pop("inputs_hex")
        report.migrated = True
    report.total_entries = len(entries)
    if version not in (1, BANK_VERSION):
        for entry in entries:
            key = entry.get("key") if isinstance(entry, dict) else None
            report.quarantined.append(
                FsckFinding(
                    key=key,
                    reason=(
                        f"manifest version {version!r} is not "
                        f"{BANK_VERSION}; entry cannot be trusted"
                    ),
                    files=_quarantine_programs(root, key, cls),
                )
            )
        return [], set()

    kept: list = []
    referenced: set[str] = set()
    seen: set[str] = set()
    for entry in entries:
        key = entry.get("key") if isinstance(entry, dict) else None
        if not isinstance(key, str) or not key:
            report.quarantined.append(
                FsckFinding(key=None, reason="manifest entry has no key", files=[])
            )
            continue
        if key in seen:
            report.quarantined.append(
                FsckFinding(
                    key=key,
                    reason="duplicate key (first occurrence kept)",
                    files=[],
                )
            )
            continue
        reason = None
        try:
            programs = {
                name: (root / Bank.PROGRAMS_DIR / f"{key}{suffix}").read_text()
                for name, suffix in cls.PROGRAMS.items()
            }
            record = cls.from_json(entry, programs)
            if record.key != key:
                reason = f"recorded key does not match metadata (recomputed {record.key})"
        except OSError as exc:
            reason = f"program file missing or unreadable: {exc}"
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            reason = f"manifest entry does not parse: {exc!r}"
        if reason is not None:
            report.quarantined.append(
                FsckFinding(key=key, reason=reason, files=_quarantine_programs(root, key, cls))
            )
            continue
        seen.add(key)
        kept.append(record)
        referenced.update(f"{key}{suffix}" for suffix in cls.PROGRAMS.values())
    report.kept = len(kept)
    return kept, referenced


def _quarantine_programs(root: Path, key: str | None, cls) -> list[str]:
    """Move a quarantined entry's program files into the sidecar."""
    if key is None:
        return []
    moved = []
    for suffix in cls.PROGRAMS.values():
        path = root / Bank.PROGRAMS_DIR / f"{key}{suffix}"
        if path.exists():
            moved.append(_sidecar_move(root, path))
    return moved


def _rewrite_manifest(manifest_path: Path, kind: str, records: list) -> None:
    entries = [record.to_json() for record in sorted(records, key=lambda r: r.key)]
    atomic_write_json(
        manifest_path, {"version": BANK_VERSION, "kind": kind, "entries": entries}
    )
