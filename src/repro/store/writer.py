"""Streaming writer for the persistent sharded argument store.

The writer never materialises a full JSON document: it opens one handle
per shard and streams records — nodes, then links, then (for cases)
evidence and citations — one line at a time, accumulating each shard's
record count and CRC-32 as it goes.  Memory stays O(shard handles), not
O(case), so an argument that barely fits in RAM can still be saved.

Node and link payloads reuse the :mod:`repro.notation.json_io` schema
(:func:`~repro.notation.json_io.node_payload`), extended with a ``seq``
field recording insertion order; node metadata is written in canonical
form (duplicate attribute names collapsed, sorted by name — exactly what
a JSON round-trip produces) so save → load → save is byte-stable.

Crash safety: shards stream to per-writer unique ``.tmp`` files (pid +
random infix, so two processes saving into one directory can never
scribble over each other's in-flight data) and finish under
content-addressed names (``nodes-0003-<crc>.jsonl``) that never collide
with a previous store's files; renaming the new manifest into place is
the single atomic commit point.  Sealed files are fsynced before their
rename and the directory after the manifest swap (see
:func:`repro.store.format.set_durability` for the test opt-out), so the
commit point survives power loss instead of merely process death.  An
interrupted save therefore leaves the previous store fully loadable — at
worst with some orphaned files no manifest references — and files the
store never wrote are never touched.

Concurrency: every mutating entry point holds the store's **writer
lock** (:mod:`repro.store.lease`, an exclusive ``flock`` that the kernel
drops when its holder exits) for the duration of the operation, so two
processes of one host saving into one directory serialise instead of
racing; contention past the acquire deadline raises
:class:`~repro.store.format.StoreConflictError`.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Any, Iterable
from zlib import crc32

from ..core.argument import Argument, Link
from ..core.case import AssuranceCase
from ..core.evidence import EvidenceItem
from ..core.nodes import Node
from ..core.search import TextPostings
from ..notation.json_io import evidence_payload, node_payload
from .format import (
    DEFAULT_SHARD_COUNT,
    GZIP_COMPRESSION,
    ID_HASH,
    MANIFEST_NAME,
    STORE_SCHEMA_VERSION,
    StoreError,
    encode_record,
    fsync_directory,
    fsync_fileobj,
    shard_base,
    shard_filename,
    shard_of,
    tmp_name,
    validate_compression,
)
from .lease import writer_lease

__all__ = ["save_argument", "save_case"]


class _ShardWriter:
    """One shard file: append records, track count and checksum.

    Streams to ``<base>.tmp``; :meth:`finish` seals the file under its
    content-addressed final name, so an interrupted save never damages
    an existing store.  With ``compression="gzip"`` the lines pass
    through a deterministic gzip stream (``mtime=0``, no embedded
    filename) while the count and CRC-32 keep tracking the *decompressed*
    lines — identical records therefore seal under identical names and
    bytes, compressed or not.
    """

    __slots__ = (
        "base", "compression", "_directory", "_tmp", "_raw", "_handle",
        "records", "crc",
    )

    def __init__(
        self, directory: Path, base: str, compression: str | None = None
    ) -> None:
        self.base = base
        self.compression = compression
        self._directory = directory
        self._tmp = directory / tmp_name(base)
        self._raw = self._tmp.open("wb")
        if compression == GZIP_COMPRESSION:
            self._handle: Any = gzip.GzipFile(
                filename="", mode="wb", fileobj=self._raw, mtime=0
            )
        else:
            self._handle = self._raw
        self.records = 0
        self.crc = 0

    def write(self, record: dict[str, Any]) -> None:
        line = encode_record(record)
        self._handle.write(line)
        self.crc = crc32(line, self.crc)
        self.records += 1

    def write_lines(self, data: bytes, records: int) -> None:
        """Append ``records`` already-encoded record lines in one write.

        ``data`` is the verified, decompressed content of a sealed shard
        or segment; the count and CRC-32 advance exactly as ``records``
        calls of :meth:`write` over the same lines would advance them.
        """
        self._handle.write(data)
        self.crc = crc32(data, self.crc)
        self.records += records

    def close(self) -> None:
        if self._handle is not self._raw:
            self._handle.close()
        # Durability: the content must be on the platters *before* the
        # content-addressed rename publishes the name — a post-crash
        # store must never contain a sealed name with torn content.
        fsync_fileobj(self._raw)
        self._raw.close()

    def finish(self) -> str:
        """Rename the closed tmp file to its final name; return it.

        Content-addressed names make this collision-free against any
        *different* previous content; identical content re-seals the
        identical file.
        """
        name = shard_filename(self.base, self.crc, self.compression)
        self._tmp.replace(self._directory / name)
        return name

    @property
    def entry(self) -> dict[str, int]:
        return {"records": self.records, "crc32": self.crc}


def _node_record(seq: int, node: Node) -> dict[str, Any]:
    payload = node_payload(node)
    if "metadata" in payload:
        # Canonical form: duplicate attribute names collapse to the last
        # entry (metadata_dict semantics) and names sort — the same shape
        # a load produces, which makes re-serialisation byte-stable.
        payload["metadata"] = {
            name: list(params)
            for name, params in sorted(node.metadata_dict().items())
        }
    return {"seq": seq, **payload}


def _link_record(seq: int, link: Link) -> dict[str, Any]:
    return {
        "seq": seq,
        "source": link.source,
        "target": link.target,
        "kind": link.kind.value,
    }


def _write_sharded(
    directory: Path,
    bases: list[str],
    records: Iterable[tuple[int, dict[str, Any]]],
    compression: str | None = None,
) -> tuple[list[str], dict[str, dict[str, int]]]:
    """Stream ``(shard_index, record)`` pairs; seal and name the shards.

    Returns the final filenames in shard-index order plus their
    manifest entries.
    """
    writers = [
        _ShardWriter(directory, base, compression) for base in bases
    ]
    try:
        for index, record in records:
            writers[index].write(record)
    finally:
        for writer in writers:
            writer.close()
    names = [writer.finish() for writer in writers]
    return names, {
        name: writer.entry for name, writer in zip(names, writers)
    }


def _write_graph(
    nodes: Iterable[Node],
    links: Iterable[Link],
    directory: Path,
    shard_count: int,
    compression: str | None = None,
) -> tuple[list[str], list[str], dict[str, dict[str, int]], int, int]:
    """Stream nodes and links into their shards; seqs are re-enumerated.

    Takes plain iterables — a live argument's node/link lists or a
    stored argument's journal-replayed streams (compaction) — so memory
    stays O(shard handles) either way.  Returns the sealed node and link
    shard names, their manifest entries, and the record totals.
    """
    node_total = 0
    link_total = 0

    def _node_records() -> Iterable[tuple[int, dict[str, Any]]]:
        nonlocal node_total
        for seq, node in enumerate(nodes):
            node_total += 1
            yield shard_of(node.identifier, shard_count), \
                _node_record(seq, node)

    def _link_records() -> Iterable[tuple[int, dict[str, Any]]]:
        nonlocal link_total
        for seq, link in enumerate(links):
            link_total += 1
            yield shard_of(link.source, shard_count), \
                _link_record(seq, link)

    node_names, shards = _write_sharded(
        directory,
        [shard_base("nodes", i) for i in range(shard_count)],
        _node_records(),
        compression,
    )
    link_names, link_shards = _write_sharded(
        directory,
        [shard_base("links", i) for i in range(shard_count)],
        _link_records(),
        compression,
    )
    shards.update(link_shards)
    return node_names, link_names, shards, node_total, link_total


def _previous_shards(directory: Path) -> set[str]:
    """Shard files the existing manifest claims, if one is readable."""
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        return set()
    try:
        manifest = json.loads(manifest_path.read_text())
        return set(manifest["shards"])
    except (json.JSONDecodeError, KeyError, TypeError):
        return set()  # unreadable old store: leave its files alone


def _commit(
    directory: Path, manifest: dict[str, Any], *, sweep: bool = True
) -> None:
    """Atomically swap the new manifest in; optionally sweep old shards.

    Every shard already sits sealed under a content-addressed name, so
    the manifest rename is the commit point: before it, the old store is
    untouched; after it, the new one is complete.  The manifest tmp is
    fsynced before the rename and the directory after it, making the
    swap itself power-loss-safe.

    ``sweep=True`` (full rewrites — the caller deliberately replaces
    the store) removes shards the old manifest listed that the new one
    does not, right after the commit; files the store never wrote are
    never deleted.  ``sweep=False`` (journal appends, coalescing,
    compaction — routine maintenance under live traffic) leaves the
    superseded generation's files on disk so snapshot readers pinned to
    it keep streaming; a later lease-guarded :func:`~repro.store.
    journal.gc` reclaims them.
    """
    stale = (
        _previous_shards(directory) - set(manifest["shards"])
        if sweep else set()
    )
    tmp = directory / tmp_name(MANIFEST_NAME)
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(
            json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
        )
        fsync_fileobj(handle)
    tmp.replace(directory / MANIFEST_NAME)
    fsync_directory(directory)
    for name in stale:
        path = directory / name
        if path.exists():
            path.unlink()


def _prepare(directory: Path | str, shard_count: int | None) -> tuple[Path, int]:
    shard_count = DEFAULT_SHARD_COUNT if shard_count is None else shard_count
    if shard_count < 1:
        raise StoreError(f"shard_count must be >= 1, not {shard_count}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return directory, shard_count


def _index_into(
    manifest: dict[str, Any],
    nodes: Iterable[Node],
    directory: Path,
    compression: str | None,
) -> None:
    """Fold a search sidecar for ``nodes`` into an uncommitted manifest.

    Runs between sealing the graph shards and the manifest commit, so
    the sidecar is part of the *same* atomic generation as the shards it
    indexes — which is what keeps the saved argument's
    ``save(journal=True)`` fingerprint baseline valid (a separate
    sidecar commit would change the manifest out from under it).
    """
    from .search import SEARCH_INDEX_KEY, write_sidecar

    postings = TextPostings()
    for node in nodes:
        postings.add(node.identifier, node.text)
    name, entry = write_sidecar(
        directory,
        postings,
        list(manifest["node_shards"]) + list(manifest["link_shards"]),
        0,
        compression,
    )
    manifest[SEARCH_INDEX_KEY] = name
    manifest["shards"][name] = entry


def save_argument(
    argument: Argument,
    directory: Path | str,
    *,
    shard_count: int | None = None,
    compression: str | None = None,
    search_index: bool = False,
) -> dict[str, Any]:
    """Write an argument to a store directory; returns the manifest.

    Replaces any store already in the directory, safely: new shards land
    under fresh content-addressed names and the manifest rename is the
    atomic commit, so an interrupted save leaves the previous store
    loadable.  ``compression="gzip"`` gzips every shard (recorded in the
    manifest, transparent on read; counts/checksums stay those of the
    decompressed records).  ``search_index=True`` additionally seals the
    token/trigram search sidecar (:mod:`repro.store.search`) into the
    same commit.
    """
    directory, shard_count = _prepare(directory, shard_count)
    compression = validate_compression(compression)
    with writer_lease(directory):
        node_shards, link_shards, shards, _, _ = _write_graph(
            argument.nodes, argument.links, directory, shard_count,
            compression,
        )
        manifest: dict[str, Any] = {
            "schema": STORE_SCHEMA_VERSION,
            "kind": "argument",
            "name": argument.name,
            "id_hash": ID_HASH,
            "shard_count": shard_count,
            "node_count": len(argument),
            "link_count": len(argument.links),
            "node_shards": node_shards,
            "link_shards": link_shards,
            "shards": shards,
        }
        if compression is not None:
            manifest["compression"] = compression
        if search_index:
            _index_into(
                manifest, argument.nodes, directory, compression
            )
        _commit(directory, manifest)
    return manifest


def _evidence_record(seq: int, item: EvidenceItem) -> dict[str, Any]:
    return {"seq": seq, **evidence_payload(item)}


def save_case(
    case: AssuranceCase,
    directory: Path | str,
    *,
    shard_count: int | None = None,
    compression: str | None = None,
    search_index: bool = False,
) -> dict[str, Any]:
    """Write a whole assurance case to a store directory.

    The argument is sharded exactly as :func:`save_argument` lays it
    out; evidence and citations stream to their own JSONL shards (all
    gzipped together under ``compression="gzip"``).  The lifecycle log
    is intentionally not persisted (matching
    :func:`~repro.notation.json_io.case_from_json`): history belongs to
    the live case, and a loaded case starts a fresh log.
    ``search_index=True`` seals the argument's search sidecar into the
    same commit, exactly as in :func:`save_argument`.
    """
    directory, shard_count = _prepare(directory, shard_count)
    compression = validate_compression(compression)
    with writer_lease(directory):
        return _save_case_locked(
            case, directory, shard_count, compression,
            search_index=search_index,
        )


def _save_case_locked(
    case: AssuranceCase,
    directory: Path,
    shard_count: int,
    compression: str | None,
    *,
    search_index: bool = False,
) -> dict[str, Any]:
    node_shards, link_shards, shards, _, _ = _write_graph(
        case.argument.nodes, case.argument.links, directory, shard_count,
        compression,
    )
    (evidence_shard,), evidence_meta = _write_sharded(
        directory,
        ["evidence"],
        ((0, _evidence_record(seq, item))
         for seq, item in enumerate(case.evidence)),
        compression,
    )
    shards.update(evidence_meta)
    def _citation_records() -> Iterable[tuple[int, dict[str, Any]]]:
        seq = 0
        for node in case.argument.nodes:
            cited = case.citations(node.identifier)
            if not cited:
                continue
            yield (0, {
                "seq": seq,
                "solution": node.identifier,
                "evidence": [item.identifier for item in cited],
            })
            seq += 1

    (citations_shard,), citations_meta = _write_sharded(
        directory, ["citations"], _citation_records(), compression
    )
    shards.update(citations_meta)
    manifest: dict[str, Any] = {
        "schema": STORE_SCHEMA_VERSION,
        "kind": "case",
        "name": case.argument.name,
        "case_name": case.name,
        "criterion": (
            {
                "statement": case.criterion.statement,
                "risk_metric": case.criterion.risk_metric,
                "threshold": case.criterion.threshold,
            }
            if case.criterion
            else None
        ),
        "id_hash": ID_HASH,
        "shard_count": shard_count,
        "node_count": len(case.argument),
        "link_count": len(case.argument.links),
        "node_shards": node_shards,
        "link_shards": link_shards,
        "evidence_shard": evidence_shard,
        "citations_shard": citations_shard,
        "shards": shards,
    }
    if compression is not None:
        manifest["compression"] = compression
    if search_index:
        _index_into(
            manifest, case.argument.nodes, directory, compression
        )
    _commit(directory, manifest)
    # The natural case editing loop is save() then edit then
    # argument.save(journal=True): record the baseline here, exactly as
    # Argument.save and StoredArgument.load do, so that append works.
    case.argument.mark_persisted(directory)
    return manifest
