"""Offline feature indexing, feature-database persistence and the online query path.

Feature database file format (text, UTF-8, LF endings):

    line 1:     TIRDB<TAB>1
    line 2:     CFG<TAB>edge_T=<int><TAB>kappa=<real><TAB>sigma=<real><TAB>win=<int><TAB>peak=<real><TAB>nms=<int>
    per record: <record_id><TAB><path><TAB><class_label><TAB><corner_count><TAB><phi1>...<TAB><phi7>

Reals use scientific notation with 17 significant digits, which round-trips
IEEE-754 doubles exactly. Integers are written as 0 or [1-9][0-9]*, and
load_index reads them in that form only; it reads reals in ASCII decimal or
scientific notation only. Manifest files carry one `<path><TAB><class_label>`
per line; lines starting with `#` are comments.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .corners import CornerConfig, corner_count
from .edge import EdgeConfig
from .imaging import GrayImage, RgbImage, load_image, rgb_to_gray
from .matching import FeatureColumns, RankedMatch, ThresholdConfig, corner_filter, rank_by_moments
from .moments import HuVector, hu_moments
from .parallel import map_ordered

FORMAT_TAG = "TIRDB"
FORMAT_VERSION = 1


class IndexFormatError(ValueError):
    """Malformed manifest or feature-database content."""


class IndexBuildError(RuntimeError):
    """Index construction failed; the message names the offending manifest entry."""


def _fmt_real(value: float) -> str:
    return format(float(value), ".16e")


_REAL_CHARS = re.compile(r"[0-9eE.+-]*")


def _parse_count(token: str, what: str) -> int:
    # ASCII digits with no leading zero: 0|[1-9][0-9]*
    if not (token.isascii() and token.isdigit() and (token[0] != "0" or token == "0")):
        raise ValueError(f"{what} must be written as 0 or [1-9][0-9]*, got {token!r}")
    return int(token)


def _parse_reals(tokens: list[str], what: str) -> tuple[float, ...]:
    """Reals in ASCII decimal or scientific notation.

    float() alone also takes whitespace, underscores, non-ASCII digits, nan
    and inf; with the characters limited to [0-9eE.+-] it takes only the
    plain notation. One check over the joined tokens keeps load_index fast.
    """
    if not _REAL_CHARS.fullmatch("".join(tokens)):
        bad = next(t for t in tokens if not _REAL_CHARS.fullmatch(t))
        raise ValueError(f"{what} must be ASCII decimal or scientific notation, got {bad!r}")
    return tuple(map(float, tokens))


def _check_token(value: str, what: str) -> str:
    if not value:
        raise ValueError(f"{what} must be non-empty")
    if "\t" in value or "\n" in value or "\r" in value:
        raise ValueError(f"{what} must not contain tabs or newlines: {value!r}")
    return value


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
        _check_token(self.class_label, "class label")
        if self.class_label.split() != [self.class_label]:  # split() cuts at every whitespace character
            raise ValueError(f"class label must be a single token: {self.class_label!r}")
        if not 0 <= self.corner_count < 2**63:
            raise ValueError(f"corner_count must lie in [0, 2**63), got {self.corner_count}")


@dataclass(frozen=True)
class FeatureDatabase:
    """Immutable set of feature records plus the config they were extracted under."""

    records: tuple[FeatureRecord, ...]
    extraction_config: ExtractionConfig
    version: int = FORMAT_VERSION

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        ids = [r.record_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError("record_ids must be unique within a database")

    def by_id(self) -> dict[int, FeatureRecord]:
        return {r.record_id: r for r in self.records}

    @cached_property
    def columns(self) -> FeatureColumns:
        """Columnar view of the records, in record order, built on first use.

        Loading a database does not build it, so a caller that never
        retrieves does not pay for it.
        """
        return FeatureColumns.from_records(self.records)


@dataclass(frozen=True)
class Manifest:
    """Ordered (path, class_label) pairs describing a dataset."""

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        entries = tuple((str(p), str(c)) for p, c in self.entries)
        if not entries:
            raise ValueError("manifest must contain at least one entry")
        for path, label in entries:
            _check_token(path, "manifest path")
            _check_token(label, "class label")
        object.__setattr__(self, "entries", entries)


def read_manifest(path) -> Manifest:
    """Parse a manifest file; `#` lines are comments, blank lines are skipped."""
    entries = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise IndexFormatError(f"{path}: line {lineno}: expected <path><TAB><class_label>")
        entries.append((parts[0], parts[1]))
    if not entries:
        raise IndexFormatError(f"{path}: manifest contains no entries")
    return Manifest(tuple(entries))


def write_manifest(manifest: Manifest, path) -> None:
    lines = [f"{p}\t{c}" for p, c in manifest.entries]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def extract_features(
    image: GrayImage,
    edge_cfg: EdgeConfig = EdgeConfig(),
    corner_cfg: CornerConfig = CornerConfig(),
) -> tuple[int, HuVector]:
    """Corner count on the edge map plus Hu invariants of the grayscale image."""
    count = corner_count(image, edge_cfg, corner_cfg)
    return count, hu_moments(image)


def build_index(
    manifest: Manifest,
    root,
    config: ExtractionConfig = ExtractionConfig(),
    out=None,
    jobs: int = 1,
) -> FeatureDatabase:
    """Extract features for every manifest entry and persist the database to `out`.

    Records keep manifest order with record_id = entry index. Any unreadable or
    degenerate image aborts the build, naming the offending path.
    """
    root = Path(root)

    def one(indexed_entry: tuple[int, tuple[str, str]]) -> FeatureRecord:
        idx, (rel_path, label) = indexed_entry
        try:
            image = load_image(root / rel_path)
            if isinstance(image, RgbImage):
                image = rgb_to_gray(image)
            count, hu = extract_features(image, config.edge, config.corners)
        except Exception as exc:
            raise IndexBuildError(f"manifest entry {rel_path!r}: {exc}") from exc
        return FeatureRecord(idx, rel_path, label, count, hu)

    records = map_ordered(one, enumerate(manifest.entries), jobs)
    db = FeatureDatabase(tuple(records), config)
    if out is not None:
        save_index(db, out)
    return db


def save_index(db: FeatureDatabase, path) -> None:
    cfg = db.extraction_config
    lines = [
        f"{FORMAT_TAG}\t{db.version}",
        "CFG\tedge_T={}\tkappa={}\tsigma={}\twin={}\tpeak={}\tnms={}".format(
            cfg.edge.threshold,
            _fmt_real(cfg.corners.kappa),
            _fmt_real(cfg.corners.window_sigma),
            cfg.corners.window_radius,
            _fmt_real(cfg.corners.peak_rel_threshold),
            cfg.corners.nms_radius,
        ),
    ]
    for r in db.records:
        fields = [str(r.record_id), r.path, r.class_label, str(r.corner_count)]
        fields += [_fmt_real(v) for v in r.hu]
        lines.append("\t".join(fields))
    _replace_file(Path(path), ("\n".join(lines) + "\n").encode("utf-8"))


def _replace_file(path: Path, data: bytes) -> None:
    """Write `data` to a new file beside `path`, then rename it over `path`.

    Readers see the old file or the new one, never a partial write; a failed
    write leaves the old file as it was and removes the new one.
    """
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as out:
            out.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_cfg_line(line: str, path) -> ExtractionConfig:
    parts = line.split("\t")
    keys = ("edge_T", "kappa", "sigma", "win", "peak", "nms")
    if parts[0] != "CFG" or len(parts) != 1 + len(keys):
        raise IndexFormatError(f"{path}: line 2: malformed CFG line")
    values: dict[str, str] = {}
    for part, key in zip(parts[1:], keys):
        prefix = key + "="
        if not part.startswith(prefix):
            raise IndexFormatError(f"{path}: line 2: expected {key}=..., got {part!r}")
        values[key] = part[len(prefix):]
    try:
        kappa, sigma, peak = (_parse_reals([values[key]], key)[0] for key in ("kappa", "sigma", "peak"))
        return ExtractionConfig(
            edge=EdgeConfig(threshold=_parse_count(values["edge_T"], "edge_T")),
            corners=CornerConfig(
                kappa=kappa,
                window_sigma=sigma,
                window_radius=_parse_count(values["win"], "win"),
                peak_rel_threshold=peak,
                nms_radius=_parse_count(values["nms"], "nms"),
            ),
        )
    except ValueError as exc:
        raise IndexFormatError(f"{path}: line 2: {exc}") from exc


def load_index(path) -> FeatureDatabase:
    """Load a feature database, verifying the version tag and every record line."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or not lines[0].startswith(FORMAT_TAG):
        raise IndexFormatError(f"{path}: not a feature database (bad tag line)")
    if lines[0] != f"{FORMAT_TAG}\t{FORMAT_VERSION}":
        raise IndexFormatError(
            f"{path}: unsupported database version {lines[0][len(FORMAT_TAG):].strip()!r}"
            f" (expected {FORMAT_VERSION})"
        )
    if len(lines) < 2:
        raise IndexFormatError(f"{path}: missing CFG line")
    config = _parse_cfg_line(lines[1], path)
    records = []
    seen_ids = set()
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split("\t")
        if len(parts) != 11:
            raise IndexFormatError(f"{path}: line {lineno}: expected 11 fields, got {len(parts)}")
        try:
            record_id = _parse_count(parts[0], "record_id")
            count = _parse_count(parts[3], "corner_count")
            phi = _parse_reals(parts[4:11], "Hu invariants")
            record = FeatureRecord(record_id, parts[1], parts[2], count, HuVector(phi))
        except ValueError as exc:
            raise IndexFormatError(f"{path}: line {lineno}: {exc}") from exc
        if record_id in seen_ids:
            raise IndexFormatError(f"{path}: line {lineno}: duplicate record_id {record_id}")
        seen_ids.add(record_id)
        records.append(record)
    return FeatureDatabase(tuple(records), config)


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
    if not db.records:
        raise ValueError("cannot query an empty database")
    if isinstance(image, RgbImage):
        image = rgb_to_gray(image)
    cfg = db.extraction_config
    count, hu = extract_features(image, cfg.edge, cfg.corners)
    candidates = corner_filter(count, db.columns, threshold_cfg)
    return rank_by_moments(hu, candidates, k, query_corner_count=count, log_scale=log_scale)
