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

Each record-line rule is written once, as a check over a whole chunk of
rows: the text's grammar in `_chunk_int64s`, `_chunk_reals` and
`_chunk_columns`, the rules on values in `_check_int64s` and `_check_rows`,
which the column cache's rows pass too. When a chunk fails, load_index runs
the same checks on its rows one at a time and names the first row that
fails. Files are written by tir's one writer, `tir.imaging._write_bytes`,
which replaces a file whole, and the text files read by one UTF-8 line reader.

save_index writes the column cache `<db>.cols` after the database, bound to
the database's bytes by its first line. Line 1 alone decides whether the
cache applies: exactly when it is the line shown below, byte for byte, for
the database bytes beside it. Any other cache (of another version, or beside
a database copied or saved over) is ignored after at most 75 bytes of it are
read. load_index hashes the database bytes at most once, and only when a
cache of this tag and version is there to check.

Column cache (`<db>.cols`, binary, little-endian), written for every database:

    line 1:     TIRCOLS<TAB>2<TAB><sha256 of the database file's bytes><LF>
    then:       zero bytes up to the next multiple of 8, so every block below is aligned
                int64 n, P, L, D: the record count and the byte lengths of the paths, labels and digests
                int64 record_ids[n], int64 corner_counts[n]
                float64 hu[n][7], float64 log_hu[n][7], row by row
                D bytes: nothing (D = 0), or the sha256 of each record's image file (D = 32n)
                P bytes: the n paths in UTF-8, joined by LF; L bytes: the n labels, likewise

load_index always checks lines 1-2 of the database text. When the cache
applies, it takes the columns, paths, labels and image digests from it (the
arrays are read-only views of its bytes); otherwise it parses the record
lines, which stay the reference, and the database has no digests. A cache
that applies but breaks its layout or a record rule is an IndexFormatError
naming the cache.

Extraction is deterministic, so an image file whose digest names a record has
that record's features: `tir eval` passes the database it loads to
build_index as `reuse`, which extracts only the query images the database
does not hold.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from pathlib import Path

import numpy as np

from .corners import CornerConfig, corner_count
from .edge import EdgeConfig
from .imaging import GrayImage, RgbImage, _write_bytes, decode_image, rgb_to_gray
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
COLS_TAG = "TIRCOLS"
COLS_VERSION = 2


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
        _check_int64s([self.record_id], "record_id")
        _check_token(self.path, "record path")
        _check_label(self.class_label)
        _check_int64s([self.corner_count], "corner_count")


class FeatureDatabase:
    """Immutable set of feature records plus the config they were extracted under.

    Every database holds its records as columns (`columns`, `paths` and
    `labels`), one entry per record in record order. `records`, one
    FeatureRecord per record, is built from the columns only on first use,
    so a database that only retrieves, evaluates or is saved never builds
    them. `digests` is None or holds, in record order, the sha256 hex digest
    of the image file each record was extracted from: `build_index` hashes
    the bytes it read, and `load_index` reads them from a bound column
    cache. A database made from records has none.
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
    """Write `lines` in UTF-8, an LF after each, with `_write_bytes`; return the bytes."""
    data = "\n".join([*lines, ""]).encode("utf-8")
    _write_bytes(path, data)
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
    """Write `db` to `path`, replacing the file whole (see `_write_bytes`).

    Its column cache `<path>.cols` follows, bound to the bytes just written;
    it carries the image digests when `db` has them. An old cache is left
    in place if a write fails: line 1 keeps it from applying to other bytes.
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
    db_sha256 = hashlib.sha256(_write_lines(path, lines)).hexdigest()
    _write_bytes(_sidecar_path(path), _cols_bytes(db, db_sha256))


def _sidecar_path(path) -> Path:
    """The column cache `<path>.cols` of the database file at `path`."""
    path = Path(path)
    return path.with_name(f"{path.name}.cols")


def _bound_sidecar(sidecar: Path, db_data: bytes) -> bytes | None:
    """The bytes of `sidecar` if its line 1 names `db_data`, the database bytes beside it, else None (also if absent).

    Line 1 names them when it is, byte for byte, `TIRCOLS<TAB><COLS_VERSION><TAB>`
    and their sha256 hex digest, which is computed only when line 1 starts
    with that tag and version. The rest is read only when line 1 names them.
    """
    head = f"{COLS_TAG}\t{COLS_VERSION}\t".encode()
    try:
        cols = open(sidecar, "rb", buffering=0)  # unbuffered, so that readall() makes no second copy
    except FileNotFoundError:
        return None
    with cols:
        if (cols.read(len(head)) != head  # then the digest and its LF, if any
                or cols.read(65).removesuffix(b"\n") != hashlib.sha256(db_data).hexdigest().encode()):
            return None
        cols.seek(0)
        return cols.readall()


# The column cache's numeric blocks after its sizes, in file order: the
# FeatureColumns field each holds and the dtype of one record's part of it.
_COLS_BLOCKS = (
    ("record_ids", np.dtype("<i8")),
    ("corner_counts", np.dtype("<i8")),
    ("hu", np.dtype(("<f8", 7))),
    ("log_hu", np.dtype(("<f8", 7))),
)
_COLS_SIZES = 4  # int64 n, P, L and D
_DIGEST_BYTES = 32  # one sha256


def _cols_bytes(db: FeatureDatabase, db_sha256: str) -> bytes:
    """The column cache of `db`, bound to the database bytes whose sha256 hex digest is `db_sha256`."""
    head = f"{COLS_TAG}\t{COLS_VERSION}\t{db_sha256}\n".encode()
    texts = ["\n".join(db.paths).encode("utf-8"), "\n".join(db.labels).encode("utf-8")]
    digests = bytes.fromhex("".join(db.digests or ()))
    sizes = np.array([len(db.columns), *map(len, texts), len(digests)], "<i8")
    blocks = [getattr(db.columns, name).astype(dtype.base, copy=False) for name, dtype in _COLS_BLOCKS]
    return b"".join([head, bytes(-len(head) % 8), sizes.tobytes(), *(b.tobytes() for b in blocks), digests, *texts])


def _check_cached_rows(ids, counts, hu, log_hu, paths, labels, seen_ids) -> None:
    """The value rules of the database's rows, on rows read from a column cache."""
    _check_int64s(ids, "record_id")
    _check_int64s(counts, "corner_count")
    _check_rows(ids, hu, log_hu, paths, labels, seen_ids)


def _cached_columns(cols_file: Path, data: bytes):
    """The columns, paths, labels and image digests (or None) in `data`, the bytes of a bound column cache.

    A layout other than the module docstring's, or a row that breaks a value
    rule, is an IndexFormatError naming `cols_file`.
    """
    line_end = data.find(b"\n") + 1  # 0 if line 1 has no LF
    offset = line_end + -line_end % 8
    if not line_end or len(data) < offset + 8 * _COLS_SIZES or any(data[line_end:offset]):
        raise IndexFormatError(f"{cols_file}: no zero padding and sizes after line 1")
    n, *text_sizes, digests_size = np.frombuffer(data, "<i8", _COLS_SIZES, offset).tolist()
    offset += 8 * _COLS_SIZES
    if digests_size not in (0, _DIGEST_BYTES * n):
        raise IndexFormatError(f"{cols_file}: {digests_size} bytes of image digests for {n} records"
                               f" (0 or {_DIGEST_BYTES} per record)")
    size = offset + n * sum(dtype.itemsize for _, dtype in _COLS_BLOCKS) + digests_size + sum(text_sizes)
    if min(n, *text_sizes) < 0 or len(data) != size:
        raise IndexFormatError(f"{cols_file}: {len(data)} bytes, where its sizes make {size}")
    columns = {}
    for name, dtype in _COLS_BLOCKS:
        columns[name] = np.frombuffer(data, dtype, n, offset)
        offset += n * dtype.itemsize
    digests = None
    if digests_size:  # any 32 bytes are a sha256; as in build_index, each is held as 64 hex digits
        digests = tuple(data[offset:offset + digests_size].hex(" ", _DIGEST_BYTES).split(" "))
        offset += digests_size
    paths_end = offset + text_sizes[0]
    try:
        paths, labels = (text.decode("utf-8") for text in (data[offset:paths_end], data[paths_end:]))
    except UnicodeDecodeError:
        raise IndexFormatError(f"{cols_file}: paths or labels not valid UTF-8") from None
    paths, labels = (text.split("\n") if text else [] for text in (paths, labels))
    if len(paths) != n or len(labels) != n:
        raise IndexFormatError(f"{cols_file}: {len(paths)} paths and {len(labels)} labels for {n} records")
    rows = (columns["record_ids"].tolist(), columns["corner_counts"].tolist(), columns["hu"], columns["log_hu"],
            paths, labels)
    _checked_rows(_check_cached_rows, rows, set(), cols_file, "record", 1)
    return FeatureColumns(**columns), tuple(paths), tuple(labels), digests


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


def _check_int64s(values: list[int], what: str) -> None:
    """The rule of an int64 column: every value lies in [0, 2**63)."""
    if values and (min(values) < 0 or max(values) >= 2**63):
        raise ValueError(f"{what} must lie in [0, 2**63), got {values[0]}")


def _chunk_int64s(tokens: list[str], what: str) -> list[int]:
    if not _COUNTS.fullmatch("\n".join(tokens)):
        raise ValueError(f"{what} must be written as 0 or [1-9][0-9]*, got {tokens[0]!r}")
    if max(map(len, tokens)) > 19:  # 2**63 has 19 digits; int() and str() refuse thousands
        raise ValueError(f"{what} must lie in [0, 2**63), got more than 19 digits")
    values = list(map(int, tokens))
    _check_int64s(values, what)
    return values


def _chunk_reals(tokens: list[str], what: str) -> list[float]:
    if not _REAL_CHARS.fullmatch("".join(tokens)):
        raise ValueError(f"{what} must be ASCII decimal or scientific notation, got {tokens[0]!r}")
    return list(map(float, tokens))  # float() still rejects "1e" and "1e5e5"


def _check_rows(ids: list[int], hu: np.ndarray, log_hu: np.ndarray, paths, labels, seen_ids: set[int]) -> None:
    """The value rules of a block of rows, other than the int64 range; ValueError if any row breaks one.

    Ids are added to `seen_ids` only when the whole block is good.
    """
    if not (np.isfinite(hu).all() and np.isfinite(log_hu).all()):
        raise ValueError("invariants must be finite")
    joined = "".join(paths)
    if "" in paths or "\t" in joined or "\r" in joined:  # a path holds no LF: lines and the cache split at LF
        raise ValueError(f"record path must not contain a tab or carriage return or be empty: {paths[0]!r}")
    if " ".join(labels).split() != labels:  # equal only if every label is one whitespace-free token
        raise ValueError(f"class label must be a single token: {labels[0]!r}")
    if len(set(ids)) != len(ids) or not seen_ids.isdisjoint(ids):
        raise ValueError(f"duplicate record_id {ids[0]}")
    seen_ids.update(ids)


def _chunk_columns(lines: list[str], seen_ids: set[int]):
    """Record ids, corner counts, Hu and log Hu rows, paths and labels of one chunk of record lines.

    Each check runs once over the whole chunk and raises ValueError if any
    line breaks its rule. The message describes the line's fault when the
    chunk is that one line, which is how `_checked_rows` finds and names the
    first bad line.
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
    log_hu = log_magnitude_array(hu)
    paths, labels = fields[1::11], fields[2::11]
    _check_rows(ids, hu, log_hu, paths, labels, seen_ids)
    return ids, counts, hu, log_hu, paths, labels


def _checked_rows(check, rows: tuple, seen_ids: set[int], file, unit: str, first: int):
    """`check(*rows, seen_ids)` over a block of rows; each part of `rows` holds one entry per row.

    If the block fails, `check` runs again on its rows one at a time, and the
    first row that fails is named in an IndexFormatError as `<file>: <unit>
    <number>`, rows being numbered from `first`. If no single row fails, the
    block's error names the block's range.
    """
    try:
        return check(*rows, seen_ids)
    except ValueError as block_error:
        for row in range(len(rows[0])):
            try:
                check(*(part[row:row + 1] for part in rows), seen_ids)
            except ValueError as exc:
                raise IndexFormatError(f"{file}: {unit} {first + row}: {exc}") from None
        last = first + len(rows[0]) - 1
        raise IndexFormatError(f"{file}: {unit}s {first}-{last}: {block_error}") from None


def _parse_head(lines: list[str], path) -> ExtractionConfig:
    """The ExtractionConfig of a database whose first lines are `lines`, after checking its tag line."""
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
    return _parse_cfg_line(lines[1], path)


def _parsed_columns(lines: list[str], path):
    """The columns, paths and labels of the record lines, `lines[2:]`, parsed chunk by chunk."""
    n = len(lines) - 2
    record_ids, corner_counts = np.empty(n, np.int64), np.empty(n, np.int64)
    hu, log_hu = np.empty((n, 7)), np.empty((n, 7))
    paths: list[str] = []
    labels: list[str] = []
    seen_ids: set[int] = set()
    for start in range(0, n, _CHUNK_LINES):
        chunk = lines[2 + start:2 + start + _CHUNK_LINES]
        ids, counts, chunk_hu, chunk_log_hu, chunk_paths, chunk_labels = _checked_rows(
            _chunk_columns, (chunk,), seen_ids, path, "line", start + 3)
        rows = slice(start, start + len(chunk))
        record_ids[rows], corner_counts[rows], hu[rows], log_hu[rows] = ids, counts, chunk_hu, chunk_log_hu
        paths += chunk_paths
        labels += chunk_labels
    return FeatureColumns(record_ids, corner_counts, hu, log_hu), tuple(paths), tuple(labels)


def load_index(path) -> FeatureDatabase:
    """Load a feature database, verifying the version tag and every record line.

    An error names the first bad line. Lines end at LF only, so a CR (as in
    CRLF endings) is part of a line and fails that line's checks. The
    records go straight into columns, from the column cache when it is bound
    to these bytes; see the module docstring. The database's `digests` come
    from that cache too, and are None without one.
    """
    data = Path(path).read_bytes()
    cols_file = _sidecar_path(path)
    cached = _bound_sidecar(cols_file, data)
    if cached is None:
        lines = _text_lines(data, path)
        config = _parse_head(lines, path)
        columns, paths, labels = _parsed_columns(lines, path)
        digests = None
    else:
        head = data[:data.find(b"\n", data.find(b"\n") + 1) + 1] or data  # lines 1-2, or all if fewer
        config = _parse_head(_text_lines(head, path), path)
        columns, paths, labels, digests = _cached_columns(cols_file, cached)
    return FeatureDatabase._from_columns(columns, paths, labels, config, digests)


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
