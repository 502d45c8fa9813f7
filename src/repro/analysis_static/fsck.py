"""casefsck: offline integrity verification of a store directory.

The reader (:mod:`repro.store.reader`) verifies shards lazily, as it
streams them into the engine; this module is the *offline* counterpart
— it cross-checks every artifact of a ``*.store`` directory against the
manifest **without loading the argument into the engine**, so an
operator can audit a 100k-node case (or a whole fleet of them) from a
cron job.

What gets checked, file by file:

* the **manifest**: valid JSON, supported ``schema`` /
  ``journal_schema``, known ``kind`` and ``id_hash``, a consistent
  shard map (``shard_count`` vs. the node/link shard name lists, every
  referenced name present in the ``shards`` metadata map), supported
  ``compression``, case keys when ``kind == "case"``;
* every **base shard**: file present, gzip stream intact, CRC-32 of
  the decompressed bytes vs. the manifest, the **content-address** in
  the filename vs. the actual content (catching a manifest edited to
  match tampered bytes), line count, per-line JSON decode + required
  record keys, every record decoding through the reader's own
  ``node_from_record``/``link_from_record`` (enum vocabulary, field
  types, non-empty node text — fsck passes only what loads), the
  **id-hash partition** (``crc32(id) % shard_count`` puts each record
  in the shard holding it), per-shard ascending ``seq``, global id
  uniqueness, per-shard link uniqueness, and the seq domain being
  exactly ``range(total)``;
* every **journal segment**: the same seal checks plus op decoding
  through the reader's ``decode_op``, with torn-tail classification —
  damage confined to the *final* segment is one interrupted append and
  is reported ``recoverable`` (the state ``ignore_torn_tail=True``
  would surface), damage in the *middle* is real corruption and is
  ``fatal``;
* **counts**: base records plus journal deltas must equal the
  manifest's ``node_count``/``link_count`` (skipped, with a note, when
  a torn tail makes the journal's contribution unknowable);
* **citations** (cases): a citation naming an absent or non-solution
  node is fatal in a journal-less store and a note in a journaled one
  (the loader documents and drops it there);
* the **search sidecar** (when the manifest references one): the same
  seal / content-address / CRC checks as shards, header and posting
  record shapes — damage is ``recoverable`` (the index is derived data;
  rebuild it) — and *staleness* (a previous base generation, an unknown
  tokenizer version, a journal watermark past the current journal) is a
  ``note``, never a failure: readers simply fall back to the scan;
* **orphans**: files matching the store's own naming scheme that the
  manifest does not reference — exactly the inventory
  :func:`repro.store.journal.gc` would sweep (superseded search
  sidecars included) — reported as notes;
* the **writer lease**: a live ``writer.lease`` means a writer holds
  the store right now (fsck may be racing its commit), a stale one
  means a writer crashed mid-operation; both are notes naming the
  holder, never orphans — the lease protocol itself retires them.

Findings carry a severity (:data:`FSCK_FATAL` / :data:`FSCK_RECOVERABLE`
/ :data:`FSCK_NOTE`) and *name the damaged artifact*.  The CLI lives at
``python -m repro.store.fsck``; exit status is nonzero iff any fatal
finding exists (or, with ``--strict``, any recoverable one).
"""

from __future__ import annotations

import gzip
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence
from zlib import crc32

from ..core.nodes import NodeType
from ..store.format import (
    CITATION_KEYS,
    EVIDENCE_KEYS,
    GZIP_COMPRESSION,
    ID_HASH,
    JOURNAL_SCHEMA_VERSION,
    LEASE_NAME,
    LINK_KEYS,
    MANIFEST_NAME,
    NODE_KEYS,
    RECORD_ERRORS,
    STORE_SCHEMA_VERSION,
    StoreCorruptionError,
    link_from_record,
    node_from_record,
    shard_of,
)
from ..store.journal import _MANIFEST_TMP, _STORE_FILE, decode_op
from ..store.lease import lease_is_stale, read_lease

__all__ = [
    "FsckFinding",
    "FsckReport",
    "fsck_store",
    "FSCK_FATAL",
    "FSCK_RECOVERABLE",
    "FSCK_NOTE",
]

FSCK_FATAL = "fatal"
FSCK_RECOVERABLE = "recoverable"
FSCK_NOTE = "note"

#: The content-address embedded in a sealed shard/segment filename.
_CONTENT_ADDRESS = re.compile(r"-([0-9a-f]{8})\.jsonl(?:\.gz)?$")

_JOURNAL_KEYS = ("op",)

_LINK_OPS = ("add_link", "remove_link")


@dataclass(frozen=True)
class FsckFinding:
    """One verification result: severity, damaged artifact, detail."""

    severity: str
    artifact: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.artifact}: {self.detail}"


@dataclass
class FsckReport:
    """Everything one :func:`fsck_store` pass learned about a store."""

    path: Path
    findings: "list[FsckFinding]" = field(default_factory=list)
    #: Unreferenced store-scheme files — gc()'s candidate inventory.
    orphans: "list[str]" = field(default_factory=list)
    shards_checked: int = 0
    segments_checked: int = 0
    records_checked: int = 0

    @property
    def ok(self) -> bool:
        return not any(f.severity == FSCK_FATAL for f in self.findings)

    @property
    def fatal(self) -> "list[FsckFinding]":
        return [f for f in self.findings if f.severity == FSCK_FATAL]

    @property
    def recoverable(self) -> "list[FsckFinding]":
        return [f for f in self.findings if f.severity == FSCK_RECOVERABLE]

    def exit_code(self, strict: bool = False) -> int:
        if not self.ok:
            return 1
        if strict and self.recoverable:
            return 1
        return 0

    def render(self) -> str:
        lines = [f"casefsck {self.path}"]
        for finding in self.findings:
            lines.append(f"  {finding}")
        verdict = "clean" if self.ok else "CORRUPT"
        if self.ok and self.recoverable:
            verdict = "recoverable"
        lines.append(
            f"  {verdict}: {self.shards_checked} shard(s), "
            f"{self.segments_checked} journal segment(s), "
            f"{self.records_checked} record(s), "
            f"{len(self.orphans)} orphan(s)"
        )
        return "\n".join(lines)


class _Fsck:
    """One verification pass over one store directory."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.report = FsckReport(path=self.path)
        self.manifest: "Optional[dict[str, Any]]" = None
        self.compression: "Optional[str]" = None
        self.shard_count = 0
        # id -> shard it was seen in, for cross-shard uniqueness.
        self._node_ids: "dict[str, str]" = {}
        self._node_types: "dict[str, str]" = {}
        self._base_node_seqs: "list[int]" = []
        self._base_link_seqs: "list[int]" = []
        self._base_nodes = 0
        self._base_links = 0
        self._journal_nodes = 0
        self._journal_links = 0
        self._torn = False
        # (artifact, detail) failures queued by _read_lines /
        # _decode_records; the caller decides their severity (base
        # shard -> fatal, journal tail -> recoverable).
        self._shard_failures: "list[tuple[str, str]]" = []

    # -- finding emission ---------------------------------------------

    def _finding(self, severity: str, artifact: str, detail: str) -> None:
        self.report.findings.append(FsckFinding(severity, artifact, detail))

    def fatal(self, artifact: str, detail: str) -> None:
        self._finding(FSCK_FATAL, artifact, detail)

    def recoverable(self, artifact: str, detail: str) -> None:
        self._finding(FSCK_RECOVERABLE, artifact, detail)

    def note(self, artifact: str, detail: str) -> None:
        self._finding(FSCK_NOTE, artifact, detail)

    # -- driver ----------------------------------------------------------

    def run(self) -> FsckReport:
        if not self._check_manifest():
            return self.report
        assert self.manifest is not None
        self._check_base_shards()
        self._check_journal()
        self._check_search_index()
        self._check_counts()
        if self.manifest.get("kind") == "case":
            self._check_case()
        self._check_orphans()
        return self.report

    # -- the manifest ------------------------------------------------------

    def _check_manifest(self) -> bool:
        manifest_path = self.path / MANIFEST_NAME
        if not self.path.is_dir():
            self.fatal(str(self.path), "not a store directory")
            return False
        if not manifest_path.exists():
            self.fatal(MANIFEST_NAME, "no store manifest")
            return False
        try:
            manifest = json.loads(manifest_path.read_bytes().decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            self.fatal(MANIFEST_NAME, f"manifest is not valid JSON ({error})")
            return False
        if not isinstance(manifest, dict):
            self.fatal(MANIFEST_NAME, "manifest is not a JSON object")
            return False
        ok = True
        if manifest.get("schema") != STORE_SCHEMA_VERSION:
            self.fatal(
                MANIFEST_NAME,
                f"unsupported store schema {manifest.get('schema')!r} "
                f"(this checker knows {STORE_SCHEMA_VERSION})",
            )
            ok = False
        if manifest.get("kind") not in ("argument", "case"):
            self.fatal(
                MANIFEST_NAME,
                f"unknown store kind {manifest.get('kind')!r}",
            )
            ok = False
        if manifest.get("id_hash") != ID_HASH:
            self.fatal(
                MANIFEST_NAME,
                f"store sharded with {manifest.get('id_hash')!r}, "
                f"this checker places records with {ID_HASH!r}",
            )
            ok = False
        shard_count = manifest.get("shard_count")
        node_shards = manifest.get("node_shards")
        link_shards = manifest.get("link_shards")
        shards = manifest.get("shards")
        if (
            not isinstance(shard_count, int)
            or shard_count < 1
            or not isinstance(node_shards, list)
            or not isinstance(link_shards, list)
            or len(node_shards) != shard_count
            or len(link_shards) != shard_count
            or not isinstance(shards, dict)
        ):
            self.fatal(
                MANIFEST_NAME,
                f"inconsistent shard map (shard_count {shard_count!r}, "
                f"{len(node_shards or ())} node / "
                f"{len(link_shards or ())} link shard names)",
            )
            return False
        compression = manifest.get("compression")
        if compression not in (None, GZIP_COMPRESSION):
            self.fatal(
                MANIFEST_NAME,
                f"unsupported shard compression {compression!r}",
            )
            ok = False
        for count_key in ("node_count", "link_count"):
            if not isinstance(manifest.get(count_key), int):
                self.fatal(
                    MANIFEST_NAME,
                    f"missing or non-integer {count_key!r}",
                )
                ok = False
        journal = manifest.get("journal", [])
        if journal:
            if not isinstance(journal, list) or not all(
                isinstance(name, str) for name in journal
            ):
                self.fatal(MANIFEST_NAME, "malformed journal segment list")
                ok = False
            elif manifest.get("journal_schema") != JOURNAL_SCHEMA_VERSION:
                self.fatal(
                    MANIFEST_NAME,
                    "unsupported journal schema "
                    f"{manifest.get('journal_schema')!r} (this checker "
                    f"knows {JOURNAL_SCHEMA_VERSION})",
                )
                ok = False
        referenced = list(node_shards) + list(link_shards) + (
            list(journal) if isinstance(journal, list) else []
        )
        if manifest.get("kind") == "case":
            for key in ("evidence_shard", "citations_shard"):
                if isinstance(manifest.get(key), str):
                    referenced.append(manifest[key])
        for name in referenced:
            meta = shards.get(name)
            if (
                not isinstance(meta, dict)
                or not isinstance(meta.get("records"), int)
                or not isinstance(meta.get("crc32"), int)
            ):
                self.fatal(
                    MANIFEST_NAME,
                    f"shard {name!r} referenced without records/crc32 "
                    f"metadata",
                )
                ok = False
        self.manifest = manifest
        self.compression = (
            compression if compression in (None, GZIP_COMPRESSION) else None
        )
        self.shard_count = shard_count
        return ok

    # -- shard plumbing ------------------------------------------------------

    def _read_lines(self, name: str) -> "Optional[list[bytes]]":
        """Read, decompress, seal-check one shard; None on any failure.

        Emits the finding itself; severity is decided by the caller via
        the returned None (journal tail handling downgrades later).
        """
        assert self.manifest is not None
        path = self.path / name
        if not path.exists():
            self._shard_failures.append((name, "file is missing"))
            return None
        raw = path.read_bytes()
        if self.compression == GZIP_COMPRESSION:
            try:
                raw = gzip.decompress(raw)
            except (OSError, EOFError) as error:
                self._shard_failures.append(
                    (name, f"gzip stream damaged ({error})")
                )
                return None
        meta = self.manifest["shards"].get(name, {})
        actual_crc = crc32(raw)
        if isinstance(meta.get("crc32"), int) and \
                meta["crc32"] != actual_crc:
            self._shard_failures.append((
                name,
                f"checksum mismatch (manifest {meta['crc32']}, "
                f"content {actual_crc})",
            ))
            return None
        address = _CONTENT_ADDRESS.search(name)
        if address and int(address.group(1), 16) != actual_crc:
            self._shard_failures.append((
                name,
                f"content-address mismatch (filename says "
                f"{address.group(1)}, content is {actual_crc:08x}) — "
                f"shard bytes and manifest were tampered together",
            ))
            return None
        lines = raw.splitlines()
        if isinstance(meta.get("records"), int) and \
                len(lines) != meta["records"]:
            self._shard_failures.append((
                name,
                f"record count mismatch (manifest {meta['records']}, "
                f"content {len(lines)} line(s))",
            ))
            return None
        return lines

    def _decode_records(
        self, name: str, lines: "list[bytes]", keys: Sequence[str]
    ) -> "Optional[list[dict[str, Any]]]":
        records: "list[dict[str, Any]]" = []
        for lineno, line in enumerate(lines, start=1):
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as error:
                self._shard_failures.append(
                    (name, f"line {lineno} is not valid JSON ({error})")
                )
                return None
            if not isinstance(record, dict):
                self._shard_failures.append(
                    (name, f"line {lineno} is not a store record")
                )
                return None
            missing = [key for key in keys if key not in record]
            if missing:
                self._shard_failures.append((
                    name,
                    f"line {lineno} record is missing "
                    f"{', '.join(repr(k) for k in missing)}",
                ))
                return None
            records.append(record)
        self.report.records_checked += len(records)
        return records

    # -- base shards ---------------------------------------------------------

    def _check_base_shards(self) -> None:
        assert self.manifest is not None
        for index, name in enumerate(self.manifest["node_shards"]):
            self._check_node_shard(index, name)
            self._flush_failures(FSCK_FATAL)
        for index, name in enumerate(self.manifest["link_shards"]):
            self._check_link_shard(index, name)
            self._flush_failures(FSCK_FATAL)
        if not any(
            f.severity == FSCK_FATAL for f in self.report.findings
        ):
            # A damaged shard's records never joined the seq inventory;
            # complaining about the resulting gap would only echo the
            # finding already naming that shard.
            self._check_seq_domain(
                "node", self._base_node_seqs, self.manifest["node_shards"]
            )
            self._check_seq_domain(
                "link", self._base_link_seqs, self.manifest["link_shards"]
            )

    def _flush_failures(self, severity: str) -> None:
        for artifact, detail in self._shard_failures:
            self._finding(severity, artifact, detail)
        self._shard_failures.clear()

    def _check_node_shard(self, index: int, name: str) -> None:
        lines = self._read_lines(name)
        if lines is None:
            return
        records = self._decode_records(name, lines, NODE_KEYS)
        if records is None:
            return
        self.report.shards_checked += 1
        self._base_nodes += len(records)
        previous_seq = -1
        for lineno, record in enumerate(records, start=1):
            seq, identifier = record["seq"], record["id"]
            if not isinstance(seq, int) or seq <= previous_seq:
                self.fatal(
                    name,
                    f"seq {seq!r} out of order (previous {previous_seq})",
                )
            else:
                previous_seq = seq
            if isinstance(seq, int):
                self._base_node_seqs.append(seq)
            if not isinstance(identifier, str):
                self.fatal(name, f"non-string node id {identifier!r}")
                continue
            self._check_decodes(name, lineno, node_from_record, record)
            placed = shard_of(identifier, self.shard_count)
            if placed != index:
                self.fatal(
                    name,
                    f"node {identifier!r} violates the id-hash "
                    f"partition (hashes to shard {placed}, stored in "
                    f"shard {index})",
                )
            if identifier in self._node_ids:
                self.fatal(
                    name,
                    f"duplicate node id {identifier!r} (also in "
                    f"{self._node_ids[identifier]!r})",
                )
            else:
                self._node_ids[identifier] = name
                self._node_types[identifier] = record["type"]

    def _check_link_shard(self, index: int, name: str) -> None:
        lines = self._read_lines(name)
        if lines is None:
            return
        records = self._decode_records(name, lines, LINK_KEYS)
        if records is None:
            return
        self.report.shards_checked += 1
        self._base_links += len(records)
        previous_seq = -1
        links: "set[Any]" = set()
        for lineno, record in enumerate(records, start=1):
            seq, source = record["seq"], record["source"]
            if not isinstance(seq, int) or seq <= previous_seq:
                self.fatal(
                    name,
                    f"seq {seq!r} out of order (previous {previous_seq})",
                )
            else:
                previous_seq = seq
            if isinstance(seq, int):
                self._base_link_seqs.append(seq)
            link = self._check_decodes(
                name, lineno, link_from_record, record
            )
            if link in links:
                self.fatal(
                    name, f"line {lineno} has a duplicate link {link}"
                )
            elif link is not None:
                links.add(link)
            if not isinstance(source, str):
                self.fatal(name, f"non-string link source {source!r}")
                continue
            placed = shard_of(source, self.shard_count)
            if placed != index:
                self.fatal(
                    name,
                    f"link from {source!r} violates the id-hash "
                    f"partition (hashes to shard {placed}, stored in "
                    f"shard {index})",
                )

    def _check_decodes(
        self,
        name: str,
        lineno: int,
        decode: "Callable[[dict[str, Any]], Any]",
        record: "dict[str, Any]",
    ) -> Any:
        """Fatal unless ``decode`` — the reader's own record-to-object
        step — accepts the record, so fsck passes only what loads.
        Returns the decoded object, or ``None`` after a finding."""
        try:
            return decode(record)
        except RECORD_ERRORS as error:
            self.fatal(
                name, f"line {lineno} is not a valid record ({error})"
            )
            return None

    def _check_seq_domain(
        self, kind: str, seqs: "list[int]", shard_names: "list[str]"
    ) -> None:
        """Across all shards of a kind, seqs must be exactly range(n)."""
        if sorted(seqs) != list(range(len(seqs))):
            self.fatal(
                shard_names[0] if shard_names else MANIFEST_NAME,
                f"{kind} seq numbers are not the contiguous range "
                f"0..{len(seqs) - 1} across shards",
            )

    # -- the journal ---------------------------------------------------------

    def _check_journal(self) -> None:
        assert self.manifest is not None
        journal = self.manifest.get("journal", [])
        if not isinstance(journal, list):
            return
        for position, name in enumerate(journal):
            final = position == len(journal) - 1
            damaged = not self._check_segment(name)
            if not damaged:
                continue
            if final:
                self._torn = True
                for artifact, detail in self._shard_failures:
                    self.recoverable(
                        artifact,
                        f"{detail}; torn append in the final journal "
                        f"segment — recoverable via "
                        f"StoredArgument(..., ignore_torn_tail=True) "
                        f"then compact()",
                    )
                self._shard_failures.clear()
            else:
                for artifact, detail in self._shard_failures:
                    self.fatal(
                        artifact,
                        f"{detail}; damage in a non-final journal "
                        f"segment is beyond torn-tail recovery",
                    )
                self._shard_failures.clear()

    def _check_segment(self, name: str) -> bool:
        """Verify one journal segment; False if damaged (failures queued)."""
        lines = self._read_lines(name)
        if lines is None:
            return False
        records = self._decode_records(name, lines, _JOURNAL_KEYS)
        if records is None:
            return False
        for lineno, record in enumerate(records, start=1):
            op = record.get("op")
            try:
                # The reader's own decode: unknown ops and payloads that
                # make no node or link fail here exactly as on load.
                decode_op(record, name)
            except StoreCorruptionError as error:
                self._shard_failures.append(
                    (name, f"line {lineno}: {error.detail}")
                )
                return False
            if op in _LINK_OPS and not all(
                isinstance(record["link"].get(k), str)
                for k in ("source", "target")
            ):
                self._shard_failures.append(
                    (name, f"line {lineno}: malformed {op!r} payload")
                )
                return False
            if op == "add_node":
                self._journal_nodes += 1
            elif op == "remove_node":
                self._journal_nodes -= 1
            elif op == "add_link":
                self._journal_links += 1
            elif op == "remove_link":
                self._journal_links -= 1
        self.report.segments_checked += 1
        return True

    # -- the search sidecar ----------------------------------------------------

    def _check_search_index(self) -> None:
        """Verify the search sidecar, if the manifest references one.

        The sidecar is **derived data** — every reader falls back to the
        streaming scan without it — so nothing here is ever fatal:
        damage (bad seal, tampered content-address, malformed records)
        is ``recoverable`` with a rebuild hint, and a *stale* index
        (previous base generation, unknown tokenizer version, watermark
        past the journal) is only a ``note``.
        """
        assert self.manifest is not None
        from ..core.search import TOKENIZER_VERSION
        from ..store.search import (
            SEARCH_SCHEMA_VERSION,
            base_names_crc,
            valid_posting,
        )

        name = self.manifest.get("search_index")
        if name is None:
            return
        rebuild = (
            "the search index is derived data — rebuild it with "
            "StoredArgument(...).build_search_index()"
        )
        if not isinstance(name, str):
            self.recoverable(
                MANIFEST_NAME,
                f"malformed search_index reference {name!r}; {rebuild}",
            )
            return
        shards = self.manifest.get("shards")
        meta = shards.get(name) if isinstance(shards, dict) else None
        if (
            not isinstance(meta, dict)
            or not isinstance(meta.get("records"), int)
            or not isinstance(meta.get("crc32"), int)
        ):
            self.recoverable(
                MANIFEST_NAME,
                f"search sidecar {name!r} referenced without "
                f"records/crc32 metadata; {rebuild}",
            )
            return
        lines = self._read_lines(name)
        records = (
            None if lines is None
            else self._decode_records(name, lines, ("seq", "kind"))
        )
        if records is None:
            for artifact, detail in self._shard_failures:
                self.recoverable(artifact, f"{detail}; {rebuild}")
            self._shard_failures.clear()
            return
        self.report.shards_checked += 1
        header = records[0] if records else None
        if not isinstance(header, dict) or header.get("kind") != "header":
            self.recoverable(
                name, f"first record is not the sidecar header; {rebuild}"
            )
            return
        schema = header.get("search_schema")
        # An older schema is a format readers no longer speak, not
        # damage: stale, like a previous base generation.
        older = (
            isinstance(schema, int)
            and not isinstance(schema, bool)
            and 1 <= schema < SEARCH_SCHEMA_VERSION
        )
        if schema != SEARCH_SCHEMA_VERSION and not older:
            self.recoverable(
                name,
                f"unsupported search schema "
                f"{schema!r} (this checker knows "
                f"{SEARCH_SCHEMA_VERSION}); {rebuild}",
            )
            return
        for lineno, record in enumerate(records[1:], start=2):
            if not valid_posting(record):
                self.recoverable(
                    name,
                    f"line {lineno}: malformed "
                    f"{record.get('kind')!r} posting record; {rebuild}",
                )
                return
        stale: "list[str]" = []
        if older:
            stale.append(
                f"search schema {schema} (readers speak "
                f"{SEARCH_SCHEMA_VERSION})"
            )
        if header.get("tokenizer") != TOKENIZER_VERSION:
            stale.append(
                f"tokenizer version {header.get('tokenizer')!r} "
                f"(readers speak {TOKENIZER_VERSION})"
            )
        base = list(self.manifest["node_shards"]) + list(
            self.manifest["link_shards"]
        )
        if header.get("base_crc32") != base_names_crc(base):
            stale.append("it indexes a previous base shard generation")
        ops = header.get("ops")
        journal = self.manifest.get("journal", [])
        segment_counts = [
            self.manifest["shards"].get(segment, {}).get("records")
            for segment in (journal if isinstance(journal, list) else [])
        ]
        if not isinstance(ops, int) or isinstance(ops, bool) or ops < 0:
            stale.append(f"its journal watermark {ops!r} is malformed")
        elif not self._torn and all(
            isinstance(count, int) for count in segment_counts
        ) and ops > sum(segment_counts):
            stale.append(
                f"its journal watermark ({ops}) is past the journal's "
                f"{sum(segment_counts)} op(s)"
            )
        if stale:
            self.note(
                name,
                "stale search index (" + "; ".join(stale) + ") — "
                "readers fall back to the streaming scan; " + rebuild,
            )

    # -- counts ----------------------------------------------------------------

    def _check_counts(self) -> None:
        assert self.manifest is not None
        if self._torn:
            self.note(
                MANIFEST_NAME,
                "count cross-check skipped: a torn journal tail makes "
                "the journal's net contribution unknowable",
            )
            return
        if any(f.severity == FSCK_FATAL for f in self.report.findings):
            # Damaged shards already failed to contribute their records;
            # a count mismatch here would only echo the earlier finding.
            return
        expected_nodes = self._base_nodes + self._journal_nodes
        expected_links = self._base_links + self._journal_links
        if self.manifest.get("node_count") != expected_nodes:
            self.fatal(
                MANIFEST_NAME,
                f"manifest claims {self.manifest.get('node_count')} "
                f"node(s), shards + journal hold {expected_nodes}",
            )
        if self.manifest.get("link_count") != expected_links:
            self.fatal(
                MANIFEST_NAME,
                f"manifest claims {self.manifest.get('link_count')} "
                f"link(s), shards + journal hold {expected_links}",
            )

    # -- case extras -------------------------------------------------------------

    def _check_case(self) -> None:
        assert self.manifest is not None
        for key in ("case_name", "evidence_shard", "citations_shard"):
            if not isinstance(self.manifest.get(key), str):
                self.fatal(
                    MANIFEST_NAME, f"case manifest is missing {key!r}"
                )
                return
        evidence_ids: "set[str]" = set()
        lines = self._read_lines(self.manifest["evidence_shard"])
        if lines is not None:
            records = self._decode_records(
                self.manifest["evidence_shard"], lines, EVIDENCE_KEYS
            )
            if records is not None:
                self.report.shards_checked += 1
                evidence_ids = {
                    record["id"] for record in records
                    if isinstance(record["id"], str)
                }
        self._flush_failures(FSCK_FATAL)
        citations_name = self.manifest["citations_shard"]
        lines = self._read_lines(citations_name)
        citations: "Optional[list[dict[str, Any]]]" = None
        if lines is not None:
            citations = self._decode_records(
                citations_name, lines, CITATION_KEYS
            )
            if citations is not None:
                self.report.shards_checked += 1
        self._flush_failures(FSCK_FATAL)
        if citations is None:
            return
        journaled = bool(self.manifest.get("journal"))
        for record in citations:
            solution = record["solution"]
            dangling = (
                self._node_types.get(solution) != NodeType.SOLUTION.value
            )
            if not dangling and record["evidence"] not in evidence_ids:
                dangling = True
            if not dangling:
                continue
            detail = (
                f"citation {solution!r} -> {record['evidence']!r} does "
                f"not name a stored solution and evidence pair"
            )
            if journaled:
                # Journal edits may legitimately retire a cited
                # solution; the loader drops the citation and the
                # journal documents why.  Compaction reconciles.
                self.note(citations_name, f"{detail} (journal explains it)")
            else:
                self.fatal(citations_name, detail)

    # -- orphans ----------------------------------------------------------------

    def _check_orphans(self) -> None:
        assert self.manifest is not None
        referenced = set(self.manifest.get("shards", {})) | {MANIFEST_NAME}
        for entry in sorted(self.path.iterdir()):
            name = entry.name
            if name in referenced:
                continue
            if name == LEASE_NAME:
                self._note_lease()
                continue
            if not _STORE_FILE.match(name) and not _MANIFEST_TMP.match(name):
                continue
            self.report.orphans.append(name)
            self.note(
                name,
                "orphaned store file the manifest does not reference "
                "(gc() would remove it)",
            )

    def _note_lease(self) -> None:
        """A ``writer.lease`` is protocol state, not an orphan."""
        payload = read_lease(self.path)
        if payload is None:  # released between iterdir and the read
            return
        holder = payload.get("holder", "an unknown holder")
        if lease_is_stale(payload):
            self.note(
                LEASE_NAME,
                f"stale writer lease held by {holder!r} — a writer "
                "crashed mid-operation; the next writer takes it over",
            )
        else:
            self.note(
                LEASE_NAME,
                f"live writer lease held by {holder!r} — this store is "
                "being written right now; findings may be racing the "
                "commit",
            )


def fsck_store(path: "Path | str") -> FsckReport:
    """Verify one store directory offline; returns the full report."""
    return _Fsck(Path(path)).run()


def fsck_paths(paths: "Iterable[Path | str]") -> "list[FsckReport]":
    """Verify several stores; one report each, in input order."""
    return [fsck_store(path) for path in paths]
