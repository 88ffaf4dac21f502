"""Offline feature indexing, feature-database persistence and the online query path.

Feature database file format (text, UTF-8, LF line endings only):

    line 1:     TIRDB<TAB>1
    line 2:     CFG<TAB>edge_T=<int><TAB>kappa=<real><TAB>sigma=<real><TAB>win=<int><TAB>peak=<real><TAB>nms=<int>
    per record: <record_id><TAB><path><TAB><class_label><TAB><corner_count><TAB><phi1>...<TAB><phi7>

Reals use scientific notation with 17 significant digits, which round-trips
IEEE-754 doubles exactly. Integers are written as 0 or [1-9][0-9]*, and
load_index reads them in that form only; it reads reals in ASCII decimal or
scientific notation only. Manifest files carry one `<path><TAB><class_label>`
per line (lines end at LF; a CR before it is dropped); lines starting with
`#` are comments.

load_index parses the record lines in fixed-size chunks straight into
columns: the numeric `FeatureColumns` plus the path and label tuples;
build_index fills the same columns one row per entry. Any database builds
its `FeatureRecord` objects only when something asks for `records`;
indexing, querying, evaluating and saving read the columns.

Each record-line rule is written once, as a check over a whole chunk. When a
chunk fails, load_index runs the same checks on its lines one at a time and
names the first line that fails. The database, its sidecar and manifests share
one UTF-8 line reader and one line writer, which replaces a file whole.

Image digests sidecar (`<db>.digests`, ASCII, LF line endings), which
save_index writes after the database when the database carries the sha256
of each record's image file, as build_index's databases do:

    line 1:     TIRDIGESTS<TAB>1<TAB><sha256 of the database file's bytes>
    per record: <record_id><TAB><sha256 of the image file's bytes>

Line 1 alone decides whether the sidecar applies: exactly when it is the line
above, byte for byte, for the database bytes beside it. Any other sidecar (of
another version, or beside a database copied or saved over) is ignored, so
save_index leaves an old one in place. Extraction is deterministic, so an
image file whose digest names a record has that record's features: `tir eval`
passes the database it loads with `load_index(..., with_digests=True)` to
build_index as `reuse`, which extracts only the query images the database
does not hold. `tir query` and a plain load_index never read the sidecar.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from pathlib import Path

import numpy as np

from .corners import CornerConfig, corner_count
from .edge import EdgeConfig
from .imaging import GrayImage, RgbImage, decode_image, rgb_to_gray
from .imaging import load_image  # noqa: F401  not called here; kept for perfbench/tracing.py
from .matching import (
    FeatureColumns,
    RankedMatch,
    ThresholdConfig,
    corner_filter,
    log_magnitude_array,
    rank_by_moments,
)
from .moments import HuVector, hu_moments
from .parallel import ItemError, map_ordered

FORMAT_TAG = "TIRDB"
FORMAT_VERSION = 1
DIGESTS_TAG = "TIRDIGESTS"
DIGESTS_VERSION = 1

_SHA256_HEX = re.compile(r"[0-9a-f]{64}")


class IndexFormatError(ValueError):
    """Malformed manifest or feature-database content."""


class IndexBuildError(RuntimeError):
    """Index construction failed; the message names the offending manifest entry."""


def _fmt_real(value: float) -> str:
    return format(float(value), ".16e")


def _check_token(value: str, what: str) -> str:
    if not value:
        raise ValueError(f"{what} must be non-empty")
    if "\t" in value or "\n" in value or "\r" in value:
        raise ValueError(f"{what} must not contain tabs or newlines: {value!r}")
    if not value.isascii() and re.search("[\ud800-\udfff]", value):
        raise ValueError(f"{what} must not contain a lone surrogate, which UTF-8 cannot hold: {value!r}")
    return value


def _check_label(label: str) -> str:
    _check_token(label, "class label")
    if label.split() != [label]:  # split() cuts at every whitespace character
        raise ValueError(f"class label must be a single token: {label!r}")
    return label


@dataclass(frozen=True)
class ExtractionConfig:
    """Edge and corner detector settings a database was built with."""

    edge: EdgeConfig = EdgeConfig()
    corners: CornerConfig = CornerConfig()


@dataclass(frozen=True)
class FeatureRecord:
    """One indexed image: identity, class label, corner count and Hu vector."""

    record_id: int
    path: str
    class_label: str
    corner_count: int
    hu: HuVector

    def __post_init__(self):
        # Both integers become int64 columns, so they must fit in one.
        if not 0 <= self.record_id < 2**63:
            raise ValueError(f"record_id must lie in [0, 2**63), got {self.record_id}")
        _check_token(self.path, "record path")
        _check_label(self.class_label)
        if not 0 <= self.corner_count < 2**63:
            raise ValueError(f"corner_count must lie in [0, 2**63), got {self.corner_count}")


class FeatureDatabase:
    """Immutable set of feature records plus the config they were extracted under.

    Every database holds its records as columns (`columns`, `paths` and
    `labels`), one entry per record in record order. `records`, one
    FeatureRecord per record, is built from the columns only on first use,
    so a database that only retrieves, evaluates or is saved never builds
    them. `digests` is None or holds, in record order, the sha256 hex digest
    of the image file each record was extracted from: `build_index` hashes
    the bytes it read, and `load_index` reads a bound sidecar. A database
    made from records has none.
    """

    def __init__(self, records, extraction_config: ExtractionConfig):
        records = tuple(records)
        ids = [r.record_id for r in records]
        if len(set(ids)) != len(ids):
            raise ValueError("record_ids must be unique within a database")
        vars(self).update(
            columns=FeatureColumns.from_records(records),
            paths=tuple(r.path for r in records),
            labels=tuple(r.class_label for r in records),
            extraction_config=extraction_config,
            digests=None,
        )

    @classmethod
    def _from_columns(cls, columns: FeatureColumns, paths: tuple[str, ...], labels: tuple[str, ...],
                      extraction_config: ExtractionConfig, digests=None) -> "FeatureDatabase":
        """A database over columns (and digests) that load_index or build_index has validated."""
        db = cls.__new__(cls)
        vars(db).update(columns=columns, paths=paths, labels=labels, extraction_config=extraction_config,
                        digests=digests)
        return db

    def __setattr__(self, name, value):
        raise AttributeError(f"FeatureDatabase is immutable; cannot set {name!r}")

    @cached_property
    def records(self) -> tuple[FeatureRecord, ...]:
        cols = self.columns
        return tuple(
            FeatureRecord(record_id, path, label, count, HuVector(phi))
            for record_id, path, label, count, phi in zip(
                cols.record_ids.tolist(), self.paths, self.labels, cols.corner_counts.tolist(), cols.hu.tolist()
            )
        )

    def row(self, record_id: int) -> int:
        """Position of `record_id` in record order."""
        return int(np.flatnonzero(self.columns.record_ids == record_id)[0])


def _check_entry(path: str, label: str) -> None:
    _check_token(path, "manifest path")
    _check_token(label, "class label")


@dataclass(frozen=True)
class Manifest:
    """Ordered (path, class_label) pairs describing a dataset."""

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        entries = tuple((str(p), str(c)) for p, c in self.entries)
        if not entries:
            raise ValueError("manifest must contain at least one entry")
        for path, label in entries:
            _check_entry(path, label)
        object.__setattr__(self, "entries", entries)


def _text_lines(data: bytes, path) -> list[str]:
    """The LF-ended lines of `data`, read from `path`, in strict UTF-8: a bad byte fails naming its line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise IndexFormatError(f"{path}: line {lineno}: not valid UTF-8") from None
    lines = text.split("\n")  # not text.removesuffix(), which would copy the whole text
    if not lines[-1]:
        lines.pop()
    return lines


def _write_lines(path, lines: list[str]) -> bytes:
    """Write `lines` in UTF-8, an LF after each, to a new file beside `path`, renamed over it; return the bytes.

    Readers see the old file or the new one, never a partial write; a failed
    write leaves the old file as it was and removes the new one.
    """
    data = "\n".join([*lines, ""]).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as out:
            out.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return data


def _skipped(line: str) -> bool:
    """Whether read_manifest skips `line`, as blank or as a comment."""
    return not line.strip() or line.lstrip().startswith("#")


def read_manifest(path) -> Manifest:
    """Parse a manifest file; `#` lines are comments, blank lines are skipped.

    Lines end at LF only, so other Unicode line breaks stay inside a path.
    One CR right before an LF is dropped, so CRLF files read too; any other
    CR fails its line.
    """
    entries = []
    for lineno, line in enumerate(_text_lines(Path(path).read_bytes().replace(b"\r\n", b"\n"), path), start=1):
        if _skipped(line):
            continue
        if "\r" in line:
            raise IndexFormatError(f"{path}: line {lineno}: carriage return inside a line (lines end at LF)")
        parts = line.split("\t")
        if len(parts) != 2:
            raise IndexFormatError(f"{path}: line {lineno}: expected <path><TAB><class_label>")
        try:
            _check_entry(*parts)
        except ValueError as exc:
            raise IndexFormatError(f"{path}: line {lineno}: {exc}") from None
        entries.append((parts[0], parts[1]))
    if not entries:
        raise IndexFormatError(f"{path}: manifest contains no entries")
    return Manifest(tuple(entries))


def write_manifest(manifest: Manifest, path) -> None:
    """Write one `<path><TAB><class_label>` line per entry, replacing the file whole.

    An entry whose line read_manifest would skip as blank or as a comment
    is an error, and nothing is written.
    """
    lines = [f"{p}\t{c}" for p, c in manifest.entries]
    for line, (entry_path, _) in zip(lines, manifest.entries):
        if _skipped(line):
            raise IndexFormatError(
                f"{path}: manifest entry {entry_path!r} would read back as a blank or comment line"
            )
    _write_lines(path, lines)


def extract_features(
    image: GrayImage | RgbImage,
    edge_cfg: EdgeConfig = EdgeConfig(),
    corner_cfg: CornerConfig = CornerConfig(),
) -> tuple[int, HuVector]:
    """Corner count on the edge map plus Hu invariants of the image in gray.

    An RgbImage is converted to gray first (`rgb_to_gray`). Every stage runs
    on one crop of the gray image: the bounding box of its nonzero
    pixels, grown by ``corner_cfg.window_radius + 2`` pixels and clipped to
    the image. The results are bit for bit those of the whole image, since
    outside the box every stage sees only zeros:

    - An edge pixel differs from one of its 8 neighbours, so it lies within
      1 px of the box; a nonzero Sobel value lies within 2 px, and a nonzero
      window sum within 2 + r px. Every such pixel is inside the crop, and
      the crop's own border holds zero gradients (or is the image's border),
      so the replicate padding of the crop copies the zeros that the image
      holds there. Each active pixel sums the same products in the same order.
    - NMS candidates are positive, so a neighbour outside the crop loses the
      same way in both cases: as the crop's -inf border or as the image's 0.
      The global maximum is the same, or both are <= 0 and no peak survives.
    - Hu vectors are exactly invariant under integer translation with zero
      padding (see `tir.moments`).

    An all-zero image has no box; it is passed on whole, so `hu_moments`
    raises its DegenerateImageError as before.
    """
    if isinstance(image, RgbImage):
        image = rgb_to_gray(image)
    pix = image.pixels
    rows = np.flatnonzero(pix.any(axis=1))
    if len(rows):
        cols = np.flatnonzero(pix.any(axis=0))
        margin = corner_cfg.window_radius + 2
        image = GrayImage(pix[max(rows[0] - margin, 0) : rows[-1] + margin + 1,
                              max(cols[0] - margin, 0) : cols[-1] + margin + 1])
    count = corner_count(image, edge_cfg, corner_cfg)
    return count, hu_moments(image)


def _read_image_file(path: Path) -> tuple[bytes, str]:
    """The bytes of the image file at `path` and their sha256 hex digest."""
    data = path.read_bytes()
    return data, hashlib.sha256(data).hexdigest()


def _image_features(root: Path, config: ExtractionConfig, rel_path: str) -> tuple[str, int, HuVector]:
    """The digest of `root / rel_path` and its features from one read of the file.

    The per-image step of `build_index`, the only place tir extracts from
    image files, and the work that map_ordered hands to its workers. The
    digest and the features come from the same bytes, so a file that changes
    meanwhile cannot pair one version's digest with another's features.
    """
    data, digest = _read_image_file(root / rel_path)
    return (digest, *extract_features(decode_image(data), config.edge, config.corners))


def _entry_error(rel_path: str, exc: BaseException) -> IndexBuildError:
    return IndexBuildError(f"manifest entry {rel_path!r}: {exc}")


def build_index(
    manifest: Manifest,
    root,
    config: ExtractionConfig = ExtractionConfig(),
    out=None,
    jobs: int = 1,
    *,
    reuse: FeatureDatabase | None = None,
) -> FeatureDatabase:
    """Extract features for every manifest entry and persist the database to `out`.

    Records keep manifest order with record_id = entry index, and the
    database carries the digest of each entry's image file; each entry fills
    its row of the columns. Images are loaded and extracted on up to `jobs`
    worker processes. Any unreadable or degenerate image aborts the build:
    map_ordered names the first failing entry in manifest order.

    `reuse` is a database with digests extracted under `config`: an entry
    whose file has the digest of one of its records copies that record's
    row, which extraction would reproduce bit for bit. Only the other
    entries are extracted; when none is left, no worker starts. An entry the
    parent cannot read for its digest is left to its worker, which fails too.
    """
    root = Path(root)
    for rel_path, label in manifest.entries:  # before any extraction, which is the slow part
        try:
            _check_label(label)
        except ValueError as exc:
            raise _entry_error(rel_path, exc) from exc

    paths, labels = zip(*manifest.entries)
    n = len(paths)
    digests = [None] * n
    counts, hu = np.empty(n, np.int64), np.empty((n, 7))
    known = {}  # digest -> row of `reuse`
    if reuse is not None and reuse.digests is not None and reuse.extraction_config == config:
        known = {digest: row for row, digest in enumerate(reuse.digests)}
    pending = range(n)  # entries to extract
    if known:
        pending = []
        cols = reuse.columns
        for idx, rel_path in enumerate(paths):
            try:
                digest = _read_image_file(root / rel_path)[1]
            except Exception:  # left to its worker, which fails the same way in manifest order
                digest = None
            if digest in known:
                row = known[digest]
                digests[idx], counts[idx], hu[idx] = digest, cols.corner_counts[row], cols.hu[row]
            else:
                pending.append(idx)
    try:
        extracted = map_ordered(partial(_image_features, root, config), [paths[idx] for idx in pending], jobs)
    except ItemError as err:
        raise _entry_error(paths[pending[err.index]], err.__cause__) from err.__cause__
    for idx, (digest, count, hu_vector) in zip(pending, extracted):
        digests[idx], counts[idx], hu[idx] = digest, count, hu_vector.phi
    columns = FeatureColumns(np.arange(n, dtype=np.int64), counts, hu, log_magnitude_array(hu))
    db = FeatureDatabase._from_columns(columns, paths, labels, config, tuple(digests))
    if out is not None:
        save_index(db, out)
    return db


def save_index(db: FeatureDatabase, path) -> None:
    """Write `db` to `path`, replacing the file whole (see `_write_lines`).

    A database with digests also gets its sidecar `<path>.digests`, written
    after the database and bound to its bytes; any other is left in place.
    """
    cfg = db.extraction_config
    settings = [f"{key}={(str if kind is int else _fmt_real)(getattr(getattr(cfg, group), name))}"
                for key, group, name, kind in _CFG_FIELDS]
    lines = [f"{FORMAT_TAG}\t{FORMAT_VERSION}", "\t".join(["CFG", *settings])]
    cols = db.columns
    for record_id, record_path, label, count, phi in zip(
        cols.record_ids.tolist(), db.paths, db.labels, cols.corner_counts.tolist(), cols.hu.tolist()
    ):
        lines.append("\t".join([str(record_id), record_path, label, str(count), *map(_fmt_real, phi)]))
    data = _write_lines(path, lines)
    if db.digests is not None:
        head = f"{DIGESTS_TAG}\t{DIGESTS_VERSION}\t{hashlib.sha256(data).hexdigest()}"
        _write_lines(_digests_path(path), [head, *map("{}\t{}".format, cols.record_ids.tolist(), db.digests)])


def _digests_path(path) -> Path:
    """The image-digests sidecar of the database file at `path`."""
    path = Path(path)
    return path.with_name(path.name + ".digests")


def _read_digests(path, db_sha256: str, record_ids: list[int]) -> tuple[str, ...] | None:
    """The record digests in the sidecar of the database at `path`, whose bytes hash to `db_sha256`.

    None unless line 1 is, byte for byte, this version's header for these
    bytes. A sidecar that applies holds one `<record_id><TAB><sha256>` line
    per record, in record order, or is an IndexFormatError naming its first bad line.
    """
    sidecar = _digests_path(path)
    try:
        data = sidecar.read_bytes()
    except FileNotFoundError:
        return None
    if data.split(b"\n", 1)[0] != f"{DIGESTS_TAG}\t{DIGESTS_VERSION}\t{db_sha256}".encode():
        return None
    lines = _text_lines(data, sidecar)
    digests = []
    for lineno, (record_id, line) in enumerate(zip(record_ids, lines[1:]), start=2):
        fields = line.split("\t")
        if len(fields) != 2 or fields[0] != str(record_id) or not _SHA256_HEX.fullmatch(fields[1]):
            raise IndexFormatError(f"{sidecar}: line {lineno}: expected {record_id}<TAB><sha256>, got {line!r}")
        digests.append(fields[1])
    if len(lines) - 1 != len(record_ids):
        raise IndexFormatError(f"{sidecar}: line {len(digests) + 2}: expected one line per record"
                               f" ({len(record_ids)}), got {len(lines) - 1}")
    return tuple(digests)


# The CFG line, in line order: each key, the ExtractionConfig group and field
# it holds, and its kind. Stated here rather than read from the dataclasses,
# so that reordering a config's fields can never change the file format.
_CFG_FIELDS = (
    ("edge_T", "edge", "threshold", int),
    ("kappa", "corners", "kappa", float),
    ("sigma", "corners", "window_sigma", float),
    ("win", "corners", "window_radius", int),
    ("peak", "corners", "peak_rel_threshold", float),
    ("nms", "corners", "nms_radius", int),
)


def _parse_cfg_line(line: str, path) -> ExtractionConfig:
    """The ExtractionConfig of a CFG line; every `key=` is checked, then each value in line order."""
    parts = line.split("\t")
    if parts[0] != "CFG" or len(parts) != 1 + len(_CFG_FIELDS):
        raise IndexFormatError(f"{path}: line 2: malformed CFG line")
    for part, (key, *_) in zip(parts[1:], _CFG_FIELDS):
        if not part.startswith(key + "="):
            raise IndexFormatError(f"{path}: line 2: expected {key}=..., got {part!r}")
    settings = {"edge": {}, "corners": {}}
    try:
        for part, (key, group, name, kind) in zip(parts[1:], _CFG_FIELDS):
            parse = _chunk_int64s if kind is int else _chunk_reals
            settings[group][name] = parse([part[len(key) + 1:]], key)[0]
        return ExtractionConfig(edge=EdgeConfig(**settings["edge"]), corners=CornerConfig(**settings["corners"]))
    except ValueError as exc:
        raise IndexFormatError(f"{path}: line 2: {exc}") from exc


# Record lines parsed per chunk: enough that the per-chunk checks cost little
# per line, few enough that one chunk's token lists stay small beside the
# columns (parsing the whole file at once peaked about twice as high).
_CHUNK_LINES = 1024

_COUNTS = re.compile(r"(?:0|[1-9][0-9]*)(?:\n(?:0|[1-9][0-9]*))*")
# float() alone also takes whitespace, underscores, non-ASCII digits, nan and
# inf; with the characters limited to these it takes only the plain notation.
_REAL_CHARS = re.compile(r"[0-9eE.+-]*")


def _chunk_int64s(tokens: list[str], what: str) -> list[int]:
    if not _COUNTS.fullmatch("\n".join(tokens)):
        raise ValueError(f"{what} must be written as 0 or [1-9][0-9]*, got {tokens[0]!r}")
    if max(map(len, tokens)) > 19:  # 2**63 has 19 digits; int() and str() refuse thousands
        raise ValueError(f"{what} must lie in [0, 2**63), got more than 19 digits")
    values = list(map(int, tokens))
    if max(values) >= 2**63:  # the columns are int64
        raise ValueError(f"{what} must lie in [0, 2**63), got {values[0]}")
    return values


def _chunk_reals(tokens: list[str], what: str) -> list[float]:
    if not _REAL_CHARS.fullmatch("".join(tokens)):
        raise ValueError(f"{what} must be ASCII decimal or scientific notation, got {tokens[0]!r}")
    return list(map(float, tokens))  # float() still rejects "1e" and "1e5e5"


def _chunk_columns(lines: list[str], seen_ids: set[int]):
    """Record ids, corner counts, Hu rows, paths and labels of one chunk of record lines.

    These checks are the only statement of the record-line rules. Each runs
    once over the whole chunk and raises ValueError if any line breaks its
    rule. The message describes the line's fault when the chunk is that one
    line, which is how load_index finds and names the first bad line. Ids are
    added to `seen_ids` only when the whole chunk is good.
    """
    tabs = list(map(str.count, lines, repeat("\t")))
    if tabs.count(10) != len(lines):
        raise ValueError(f"expected 11 fields, got {tabs[0] + 1}")
    fields = "\t".join(lines).split("\t")
    ids = _chunk_int64s(fields[0::11], "record_id")
    counts = _chunk_int64s(fields[3::11], "corner_count")
    hu = np.empty((len(lines), 7))
    for j in range(7):
        hu[:, j] = _chunk_reals(fields[4 + j::11], "Hu invariants")
    if not np.isfinite(hu).all():
        raise ValueError("invariants must be finite")
    paths, labels = fields[1::11], fields[2::11]
    if "" in paths or "\r" in "".join(paths):
        raise ValueError(f"record path must not contain a carriage return or be empty: {paths[0]!r}")
    if " ".join(labels).split() != labels:  # equal only if every label is one whitespace-free token
        raise ValueError(f"class label must be a single token: {labels[0]!r}")
    if len(set(ids)) != len(ids) or not seen_ids.isdisjoint(ids):
        raise ValueError(f"duplicate record_id {ids[0]}")
    seen_ids.update(ids)
    return ids, counts, hu, paths, labels


def load_index(path, *, with_digests: bool = False) -> FeatureDatabase:
    """Load a feature database, verifying the version tag and every record line.

    An error names the first bad line. Lines end at LF only, so a CR (as in
    CRLF endings) is part of a line and fails that line's checks. The
    records go straight into columns; see the module docstring.

    With `with_digests`, the database's `digests` come from its sidecar file
    when one is bound to the bytes read here, and are None otherwise.
    """
    data = Path(path).read_bytes()
    lines = _text_lines(data, path)
    if not lines or not lines[0].startswith(FORMAT_TAG):
        raise IndexFormatError(f"{path}: not a feature database (bad tag line)")
    if "\r" in lines[0]:
        raise IndexFormatError(f"{path}: line 1: carriage return in the tag line (the database has LF line endings)")
    if lines[0] != f"{FORMAT_TAG}\t{FORMAT_VERSION}":
        raise IndexFormatError(
            f"{path}: unsupported database version {lines[0][len(FORMAT_TAG):].strip()!r}"
            f" (expected {FORMAT_VERSION})"
        )
    if len(lines) < 2:
        raise IndexFormatError(f"{path}: missing CFG line")
    config = _parse_cfg_line(lines[1], path)
    n = len(lines) - 2
    record_ids, corner_counts = np.empty(n, np.int64), np.empty(n, np.int64)
    hu, log_hu = np.empty((n, 7)), np.empty((n, 7))
    paths: list[str] = []
    labels: list[str] = []
    seen_ids: set[int] = set()
    for start in range(0, n, _CHUNK_LINES):
        chunk = lines[2 + start:2 + start + _CHUNK_LINES]
        try:
            ids, counts, chunk_hu, chunk_paths, chunk_labels = _chunk_columns(chunk, seen_ids)
        except ValueError as chunk_error:
            # The same checks, one line at a time, name the first bad line.
            for lineno, line in enumerate(chunk, start=start + 3):
                try:
                    _chunk_columns([line], seen_ids)
                except ValueError as exc:
                    raise IndexFormatError(f"{path}: line {lineno}: {exc}") from None
            last = start + 2 + len(chunk)
            raise IndexFormatError(f"{path}: lines {start + 3}-{last}: {chunk_error}") from None
        rows = slice(start, start + len(chunk))
        record_ids[rows], corner_counts[rows], hu[rows] = ids, counts, chunk_hu
        log_hu[rows] = log_magnitude_array(chunk_hu)
        paths += chunk_paths
        labels += chunk_labels
    columns = FeatureColumns(record_ids, corner_counts, hu, log_hu)
    digests = _read_digests(path, hashlib.sha256(data).hexdigest(), record_ids.tolist()) if with_digests else None
    return FeatureDatabase._from_columns(columns, tuple(paths), tuple(labels), config, digests)


def query(
    db: FeatureDatabase,
    image: GrayImage | RgbImage,
    threshold_cfg: ThresholdConfig = ThresholdConfig(),
    k: int = 10,
    *,
    log_scale: bool = True,
) -> list[RankedMatch]:
    """Run the two-stage pipeline for one query image.

    RGB inputs are converted to grayscale; features are extracted with the
    database's own extraction config so corner counts stay comparable. The
    corner window prefilters candidates, which are then ranked by moment
    distance. An empty candidate set yields an empty result.
    """
    if not len(db.columns):
        raise ValueError("cannot query an empty database")
    count, hu = extract_features(image, db.extraction_config.edge, db.extraction_config.corners)
    candidates = corner_filter(count, db.columns, threshold_cfg)
    return rank_by_moments(hu, candidates, k, query_corner_count=count, log_scale=log_scale)
