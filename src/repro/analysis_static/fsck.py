"""casefsck: offline integrity verification of a store directory.

The reader (:mod:`repro.store.reader`) verifies shards lazily, as it
streams them into the engine; this module is the *offline* counterpart
— it cross-checks every artifact of a ``*.store`` directory against the
manifest **without loading the argument into the engine**, so an
operator can audit a 100k-node case (or a whole fleet of them) from a
cron job.  It reads one shard at a time and fills none of the handle's
per-shard caches, so its memory does not grow with the store.

**Checks shared with the reader**, run through the reader's own code,
so fsck passes exactly what loads and reports a refusal in the
reader's words:

* the **manifest**, by opening a :class:`~repro.store.StoredArgument`
  (:func:`~repro.store.reader.validate_manifest`); a refusal is one
  fatal finding on ``manifest.json``, and fsck stops there;
* every **base shard**: file present, gzip stream intact, CRC-32 and
  record count against the manifest, per-line JSON with the required
  keys, each record decoding to a node or link, an integer ``seq``,
  and no node id or link repeated within the shard;
* every **journal segment**, the same way plus ``decode_op``: damage
  confined to the *final* segment is one interrupted append and is
  ``recoverable`` (the state ``ignore_torn_tail=True`` would surface),
  damage in the *middle* is real corruption and is ``fatal``;
* the **case shards**, evidence decoding as ``load_case`` decodes it;
* the **search sidecar**, through search's own sidecar reader.  It is
  derived data: damage is ``recoverable`` (rebuild it), and staleness
  (an older schema or tokenizer, a previous base generation, a journal
  watermark past the journal) is a ``note``, since readers scan instead.

**Whole-store invariants only fsck checks**, which a lazy reader
cannot afford:

* the **content address**: the CRC-32 in a sealed file's name must
  match the manifest's, catching shard bytes and manifest tampered
  together (the reader trusts the manifest's CRC-32);
* the **id-hash partition** (``crc32(id) % shard_count``), ascending
  ``seq`` within each shard, the seq domain being exactly
  ``range(total)``, node ids unique across shards, and every base
  link's ends among the base nodes;
* **counts**: base records plus journal deltas must equal the
  manifest's ``node_count``/``link_count`` (skipped, with a note, when
  a torn tail makes the journal's contribution unknowable);
* **citations** (cases): one naming an absent or non-solution node, or
  evidence the evidence shard lacks, is fatal in a journal-less store
  and a note in a journaled one (the loader drops it there);
* **orphans**: store-scheme files the manifest does not reference —
  exactly what :func:`repro.store.journal.gc` would sweep — as notes;
* the **writer lock**: ``writer.lease`` is never an orphan; a
  non-blocking shared ``flock`` probe notes a writer holding it now
  (fsck may be racing its commit).

Findings carry a severity (:data:`FSCK_FATAL` / :data:`FSCK_RECOVERABLE`
/ :data:`FSCK_NOTE`) and *name the damaged artifact*.  The CLI lives at
``python -m repro.store.fsck``; exit status is nonzero iff any fatal
finding exists (or, with ``--strict``, any recoverable one).
"""

from __future__ import annotations

import fcntl
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, TypeVar

from ..core.nodes import NodeType
from ..notation.json_io import evidence_from_payload
from ..store.format import (
    CITATION_KEYS,
    EVIDENCE_KEYS,
    LEASE_NAME,
    MANIFEST_NAME,
    StoreCorruptionError,
    StoreError,
    shard_of,
)
from ..store.journal import (
    _MANIFEST_TMP,
    _STORE_FILE,
    _delta_counts,
    decode_segment,
    segment_damage,
)
from ..store.reader import StoredArgument, absent_endpoint, count_mismatch
from ..store.search import SEARCH_INDEX_KEY, _parse_sidecar

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

_T = TypeVar("_T")

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

    def __init__(self, stored: StoredArgument, report: FsckReport) -> None:
        self.stored = stored
        self.report = report
        # id -> shard it was seen in, for cross-shard uniqueness and
        # the link-endpoint check, which needs every node shard read.
        self._node_ids: "dict[str, str]" = {}
        self._all_nodes_read = True
        self._solutions: "set[str]" = set()
        self._base_node_seqs: "list[int]" = []
        self._base_link_seqs: "list[int]" = []
        self._journal_nodes = 0
        self._journal_links = 0
        self._torn = False

    # -- finding emission ---------------------------------------------

    def _finding(self, severity: str, artifact: str, detail: str) -> None:
        self.report.findings.append(FsckFinding(severity, artifact, detail))

    def fatal(self, artifact: str, detail: str) -> None:
        self._finding(FSCK_FATAL, artifact, detail)

    def note(self, artifact: str, detail: str) -> None:
        self._finding(FSCK_NOTE, artifact, detail)

    def refuse(
        self, error: StoreCorruptionError, severity: str = FSCK_FATAL
    ) -> None:
        """One finding carrying a reader refusal's artifact and detail."""
        self._finding(severity, error.shard, error.detail)

    # -- driver ----------------------------------------------------------

    def run(self) -> None:
        self._check_base_shards()
        self._check_journal()
        self._check_search_index()
        self._check_counts()
        if self.stored.kind == "case":
            self._check_case()
        self._check_orphans()

    # -- reads through the reader ------------------------------------------

    def _read(self, name: str, read: "Callable[[str], _T]") -> _T:
        """``read(name)`` — the reader's own verified decode of one file
        — then the content-address check; raises what refuses it."""
        result = read(name)
        tampered = self._tampered(name)
        if tampered is not None:
            raise tampered
        return result

    def _verified(
        self, name: str, read: "Callable[[str], _T]"
    ) -> "Optional[_T]":
        """:meth:`_read`, or ``None`` after a fatal finding."""
        try:
            return self._read(name, read)
        except StoreError as error:
            self.refuse(_corruption(error, name))
            return None

    def _tampered(self, name: str) -> "Optional[StoreCorruptionError]":
        """The content-address check, fsck's alone: the reader trusts
        the manifest's CRC-32, so only the CRC-32 sealed into the file
        name catches shard bytes and manifest tampered together."""
        address = _CONTENT_ADDRESS.search(name)
        checksum = self.stored.manifest["shards"][name]["crc32"]
        if address is None or int(address.group(1), 16) == checksum:
            return None
        return StoreCorruptionError(
            name,
            f"content-address mismatch (filename says "
            f"{address.group(1)}, content is {checksum:08x}) — shard "
            f"bytes and manifest were tampered together",
        )

    # -- base shards ---------------------------------------------------------

    def _check_base_shards(self) -> None:
        stored = self.stored
        for index, name in enumerate(stored._node_shard_names):
            nodes = self._verified(name, stored._read_node_shard)
            if nodes is None:
                self._all_nodes_read = False
            else:
                self._check_node_shard(index, name, nodes)
        for index, name in enumerate(stored._link_shard_names):
            links = self._verified(name, stored._read_link_shard)
            if links is not None:
                self._check_link_shard(index, name, links)
        if self.report.ok:
            # A damaged shard's records never joined the seq inventory;
            # complaining about the resulting gap would only echo the
            # finding already naming that shard.
            self._check_seq_domain(
                "node", self._base_node_seqs, stored._node_shard_names
            )
            self._check_seq_domain(
                "link", self._base_link_seqs, stored._link_shard_names
            )

    def _take_shard(
        self, name: str, seqs: "list[int]", inventory: "list[int]"
    ) -> None:
        """Count one read shard, add its seqs to the kind's inventory,
        and check that they ascend within the shard."""
        self.report.shards_checked += 1
        self.report.records_checked += len(seqs)
        inventory.extend(seqs)
        previous = -1
        for seq in seqs:
            if seq <= previous:
                self.fatal(
                    name, f"seq {seq!r} out of order (previous {previous})"
                )
            else:
                previous = seq

    def _check_placement(
        self, name: str, index: int, what: str, identifier: str
    ) -> None:
        placed = shard_of(identifier, self.stored.shard_count)
        if placed != index:
            self.fatal(
                name,
                f"{what} {identifier!r} violates the id-hash partition "
                f"(hashes to shard {placed}, stored in shard {index})",
            )

    def _check_node_shard(
        self, index: int, name: str, nodes: "dict[str, tuple[int, Any]]"
    ) -> None:
        seqs = [seq for seq, _ in nodes.values()]
        self._take_shard(name, seqs, self._base_node_seqs)
        for identifier, (_, node) in nodes.items():
            self._check_placement(name, index, "node", identifier)
            if identifier in self._node_ids:
                self.fatal(
                    name,
                    f"duplicate node id {identifier!r} (also in "
                    f"{self._node_ids[identifier]!r})",
                )
                continue
            self._node_ids[identifier] = name
            if node.node_type is NodeType.SOLUTION:
                self._solutions.add(identifier)

    def _check_link_shard(
        self, index: int, name: str, links: "list[tuple[int, Any]]"
    ) -> None:
        self._take_shard(name, [seq for seq, _ in links], self._base_link_seqs)
        for line_number, (_, link) in enumerate(links, start=1):
            self._check_placement(name, index, "link from", link.source)
            if not self._all_nodes_read:
                continue  # an unread node shard is already a finding
            for identifier in (link.source, link.target):
                if identifier not in self._node_ids:
                    self.refuse(
                        absent_endpoint(name, line_number, identifier)
                    )
                    break

    def _check_seq_domain(
        self, kind: str, seqs: "list[int]", shard_names: "list[str]"
    ) -> None:
        """Across all shards of a kind, seqs must be exactly range(n)."""
        if sorted(seqs) != list(range(len(seqs))):
            self.fatal(
                shard_names[0],
                f"{kind} seq numbers are not the contiguous range "
                f"0..{len(seqs) - 1} across shards",
            )

    # -- the journal ---------------------------------------------------------

    def _check_journal(self) -> None:
        stored = self.stored
        names = stored.journal_segments
        for position, name in enumerate(names):
            try:
                ops = self._read(
                    name, lambda segment: decode_segment(stored, segment)
                )
            except StoreError as error:
                final = position == len(names) - 1
                self._torn = self._torn or final
                self.refuse(
                    segment_damage(_corruption(error, name), final),
                    FSCK_RECOVERABLE if final else FSCK_FATAL,
                )
                continue
            nodes, links = _delta_counts(ops)
            self._journal_nodes += nodes
            self._journal_links += links
            self.report.segments_checked += 1
            self.report.records_checked += len(ops)

    # -- the search sidecar ----------------------------------------------------

    def _check_search_index(self) -> None:
        """Verify the search sidecar, if the manifest references one,
        through the reader's own sidecar reader.  Nothing here is ever
        fatal: the sidecar is derived data."""
        name = self.stored.manifest.get(SEARCH_INDEX_KEY)
        if name is None:
            return
        rebuild = (
            "the search index is derived data — rebuild it with "
            "StoredArgument(...).build_search_index()"
        )
        sidecar = _parse_sidecar(self.stored, name)
        damage = sidecar.damage or self._tampered(name)
        if damage is not None:
            self._finding(
                FSCK_RECOVERABLE, damage.shard, f"{damage.detail}; {rebuild}"
            )
            return
        self.report.shards_checked += 1
        self.report.records_checked += (
            self.stored.manifest["shards"][name]["records"]
        )
        if sidecar.stale:
            self.note(
                name,
                "stale search index (" + "; ".join(sidecar.stale) + ") — "
                "readers fall back to the streaming scan; " + rebuild,
            )

    # -- counts ----------------------------------------------------------------

    def _check_counts(self) -> None:
        if self._torn:
            self.note(
                MANIFEST_NAME,
                "count cross-check skipped: a torn journal tail makes "
                "the journal's net contribution unknowable",
            )
            return
        if not self.report.ok:
            # Damaged shards already failed to contribute their records;
            # a count mismatch here would only echo the earlier finding.
            return
        manifest = self.stored.manifest
        nodes = len(self._base_node_seqs) + self._journal_nodes
        links = len(self._base_link_seqs) + self._journal_links
        if (nodes, links) != (manifest["node_count"], manifest["link_count"]):
            self.refuse(count_mismatch(
                nodes, links, manifest["node_count"], manifest["link_count"]
            ))

    # -- case extras -------------------------------------------------------------

    def _check_case(self) -> None:
        stored = self.stored
        evidence = self._verified(
            stored.manifest["evidence_shard"],
            lambda name: [
                item.identifier for _, item in stored._decode_shard(
                    name, EVIDENCE_KEYS, evidence_from_payload
                )
            ],
        )
        citations_name = stored.manifest["citations_shard"]
        citations = self._verified(
            citations_name,
            lambda name: list(stored._stream_shard(name, CITATION_KEYS)),
        )
        if evidence is None or citations is None:
            return
        self.report.shards_checked += 2
        self.report.records_checked += len(evidence) + len(citations)
        evidence_ids = set(evidence)
        journaled = bool(stored.journal_segments)
        for record in citations:
            solution, cited = record["solution"], record["evidence"]
            if (
                isinstance(solution, str)
                and solution in self._solutions
                and isinstance(cited, list)
                and all(
                    isinstance(item, str) and item in evidence_ids
                    for item in cited
                )
            ):
                continue
            detail = (
                f"citation {solution!r} -> {cited!r} does not name a "
                f"stored solution and evidence pair"
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
        referenced = set(self.stored.manifest["shards"]) | {MANIFEST_NAME}
        for entry in sorted(self.stored.path.iterdir()):
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
        """Note a writer that holds the store's lock now (a probe)."""
        try:
            fd = os.open(
                self.stored.path / LEASE_NAME, os.O_RDONLY | os.O_CLOEXEC
            )
        except OSError:  # an unreadable lock file tells us nothing
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_SH | fcntl.LOCK_NB)
        except BlockingIOError:
            self.note(
                LEASE_NAME,
                "a writer holds the lock now — this store is being "
                "written; findings may be racing the commit",
            )
        finally:
            os.close(fd)  # also drops the probe's own shared lock


def _corruption(error: StoreError, artifact: str) -> StoreCorruptionError:
    """A reader refusal as one artifact and detail: a corruption error
    names its own; any other store error (an unsupported schema, a file
    swept mid-check) names ``artifact`` with its message."""
    if isinstance(error, StoreCorruptionError):
        return error
    return StoreCorruptionError(artifact, str(error))


def fsck_store(path: "Path | str") -> FsckReport:
    """Verify one store directory offline; returns the full report.

    The manifest is checked by opening the store the way every reader
    does; a refusal is one fatal finding, and nothing else is checked.
    """
    path = Path(path)
    report = FsckReport(path=path)
    refusal: "Optional[StoreCorruptionError]" = None
    if not path.is_dir():
        refusal = StoreCorruptionError(str(path), "not a store directory")
    elif not (path / MANIFEST_NAME).exists():
        refusal = StoreCorruptionError(MANIFEST_NAME, "no store manifest")
    else:
        try:
            stored = StoredArgument(path)
        except StoreError as error:
            refusal = _corruption(error, MANIFEST_NAME)
        else:
            _Fsck(stored, report).run()
    if refusal is not None:
        report.findings.append(
            FsckFinding(FSCK_FATAL, refusal.shard, refusal.detail)
        )
    return report
