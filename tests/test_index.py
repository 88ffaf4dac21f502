import errno
import hashlib
import math
import multiprocessing
import os
import re
import struct
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mutation
import reference
from tir import index
from tir._shown import shown
from tir.cli import run
from tir.corners import CornerConfig, corner_count
from tir.edge import EdgeConfig
from tir.evaluation import EvalMode, EvalReport, PRPoint, QueryResult, emit_pr_csv
from tir.imaging import GrayImage, RgbImage, load_image, rgb_to_gray, save_pgm
from tir.index import (
    ExtractionConfig,
    FeatureDatabase,
    FeatureRecord,
    IndexBuildError,
    IndexFormatError,
    Manifest,
    build_index,
    extract_features,
    load_index,
    query,
    read_manifest,
    save_index,
    write_manifest,
)
from tir.matching import FeatureColumns, ThresholdConfig, corner_filter
from tir.moments import DegenerateImageError, HuVector, hu_moments
from tir.shapes import benchmark_shapes


@pytest.fixture(scope="module")
def shape_dataset(tmp_path_factory):
    """Three distinct shapes on disk plus their manifest."""
    root = tmp_path_factory.mktemp("dataset")
    entries = []
    for name, img in benchmark_shapes()[:3]:
        save_pgm(img, root / f"{name}.pgm")
        entries.append((f"{name}.pgm", name))
    return root, Manifest(tuple(entries))


@pytest.fixture(scope="module")
def built(shape_dataset, tmp_path_factory):
    root, manifest = shape_dataset
    out = tmp_path_factory.mktemp("db") / "features.tsv"
    db = build_index(manifest, root, ExtractionConfig(), out=out)
    return root, manifest, db, out


def _with_record_field(db_file, tmp_path, field, token):
    """A copy of `db_file` whose first record has `token` in `field`."""
    lines = db_file.read_text().splitlines()
    parts = lines[2].split("\t")
    parts[field] = token
    lines[2] = "\t".join(parts)
    broken = tmp_path / "broken.tsv"
    broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return broken


class TestValidation:
    def test_duplicate_record_ids_rejected(self):
        rec = FeatureRecord(1, "a.pgm", "a", 0, HuVector((0.0,) * 7))
        with pytest.raises(ValueError):
            FeatureDatabase((rec, rec), ExtractionConfig())

    def test_manifest_requires_entries(self):
        with pytest.raises(ValueError):
            Manifest(())

    def test_path_must_not_contain_tabs(self):
        with pytest.raises(ValueError):
            FeatureRecord(0, "a\tb.pgm", "a", 0, HuVector((0.0,) * 7))

    def test_class_label_is_single_token(self):
        with pytest.raises(ValueError):
            FeatureRecord(0, "a.pgm", "two words", 0, HuVector((0.0,) * 7))

    @pytest.mark.parametrize("label", ["a\u00a0b", "a\x1cb", " a", "a\r", "a\u3000"])
    def test_class_label_rejects_any_whitespace(self, label):
        with pytest.raises(ValueError, match="class label"):
            FeatureRecord(0, "a.pgm", label, 0, HuVector((0.0,) * 7))

    @pytest.mark.parametrize("path", ["a\nb.pgm", "a.pgm\r", ""])
    def test_path_rejects_line_breaks_and_empty(self, path):
        with pytest.raises(ValueError, match="record path"):
            FeatureRecord(0, path, "a", 0, HuVector((0.0,) * 7))

    @pytest.mark.parametrize("text", ["\ud800", "a\udc80.pgm"])
    def test_lone_surrogates_rejected_naming_the_field(self, text):
        # UTF-8 cannot hold a lone surrogate, so no manifest or database line could.
        with pytest.raises(ValueError, match="record path must not contain a lone surrogate"):
            FeatureRecord(0, text, "a", 0, HuVector((0.0,) * 7))
        with pytest.raises(ValueError, match="class label must not contain a lone surrogate"):
            FeatureRecord(0, "a.pgm", text, 0, HuVector((0.0,) * 7))
        with pytest.raises(ValueError, match="manifest path must not contain a lone surrogate"):
            Manifest(((text, "x"),))
        with pytest.raises(ValueError, match="class label must not contain a lone surrogate"):
            Manifest((("a.pgm", text),))

    def test_negative_corner_count_rejected(self):
        with pytest.raises(ValueError):
            FeatureRecord(0, "a.pgm", "a", -1, HuVector((0.0,) * 7))


MANIFESTS = [b"a.pgm\tx\n", b"# base\r\na.pgm\tx\r\n\nd/\xc3\xa9 b.pgm\ty\n#end"]
MANIFEST_PIECES = [b"\t", b"\n", b"\r", b"\r\n", b"#", b" ", b"a", b"\x00", b"\x0c", b"\xc2\x85", b"\xe2\x80\xa8",
                   b"\xff", b"\xc3", b"\xed\xa0\x80"]


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        manifest = Manifest((("a.pgm", "x"), ("b/c.pgm", "y")))
        write_manifest(manifest, tmp_path / "m.tsv")
        assert read_manifest(tmp_path / "m.tsv") == manifest

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        (tmp_path / "m.tsv").write_text("# header\n\na.pgm\tx\n# done\n")
        assert read_manifest(tmp_path / "m.tsv").entries == (("a.pgm", "x"),)

    def test_malformed_line_names_line_number(self, tmp_path):
        (tmp_path / "m.tsv").write_text("a.pgm\tx\nbroken-line\n")
        with pytest.raises(IndexFormatError, match="line 2"):
            read_manifest(tmp_path / "m.tsv")

    @pytest.mark.parametrize("line, field", [("\tx", "manifest path"), ("a.pgm\t", "class label")])
    def test_empty_field_names_its_line(self, tmp_path, line, field):
        (tmp_path / "m.tsv").write_text(f"b.pgm\ty\n{line}\n")
        with pytest.raises(IndexFormatError, match=rf"m\.tsv: line 2: {field} must be non-empty$"):
            read_manifest(tmp_path / "m.tsv")

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(MANIFESTS), mutation.edits(MANIFEST_PIECES))
    @example(b"a.pgm\tx\n", [(0, 5, b"")])  # an empty path
    @example(b"a.pgm\tx\n", [(6, 1, b"")])  # an empty label
    def test_any_mutated_manifest_reads_or_fails_as_a_format_error(self, tmp_path_factory, text, edits):
        path = tmp_path_factory.mktemp("manifest") / "m.tsv"
        path.write_bytes(mutation.mutate(text, edits))
        try:
            manifest = read_manifest(path)
        except IndexFormatError:
            return
        assert isinstance(manifest, Manifest)

    def test_non_utf8_manifest_names_its_line(self, tmp_path):
        (tmp_path / "m.tsv").write_bytes(b"# header\na.pgm\tx\nb\xff.pgm\ty\n")
        with pytest.raises(IndexFormatError, match=r"m\.tsv: line 3: not valid UTF-8$"):
            read_manifest(tmp_path / "m.tsv")

    def test_empty_manifest_rejected(self, tmp_path):
        (tmp_path / "m.tsv").write_text("# nothing here\n")
        with pytest.raises(IndexFormatError, match="no entries"):
            read_manifest(tmp_path / "m.tsv")

    def test_lines_end_at_lf_only(self, tmp_path):
        (tmp_path / "m.tsv").write_bytes("dir/a.pgm\tcls\u2028b.pgm\tcls2\n".encode("utf-8"))
        with pytest.raises(IndexFormatError, match="line 1: expected <path><TAB><class_label>"):
            read_manifest(tmp_path / "m.tsv")
        (tmp_path / "m.tsv").write_bytes("a\u2028b.pgm\tx\u0085y\n".encode("utf-8"))
        assert read_manifest(tmp_path / "m.tsv").entries == (("a\u2028b.pgm", "x\u0085y"),)

    def test_crlf_manifest_reads_as_lf(self, tmp_path):
        (tmp_path / "m.tsv").write_bytes(b"# header\r\na.pgm\tx\r\n\r\nb.pgm\ty\r\n")
        assert read_manifest(tmp_path / "m.tsv").entries == (("a.pgm", "x"), ("b.pgm", "y"))

    def test_lone_carriage_return_names_its_line(self, tmp_path):
        (tmp_path / "m.tsv").write_bytes(b"a.pgm\tx\rb.pgm\ty\n")
        with pytest.raises(IndexFormatError, match=r"m\.tsv: line 1: carriage return"):
            read_manifest(tmp_path / "m.tsv")

    @pytest.mark.parametrize("data, lineno", [(b"a.pgm\tx\r", 1), (b"# head\r\n\r\na.pgm\tx\r\nb.pgm\ty\r", 4)])
    def test_carriage_return_ending_the_file_names_its_line(self, tmp_path, data, lineno):
        # Only a CR that an LF follows ends a line; one at the very end of the file is inside the last line.
        (tmp_path / "m.tsv").write_bytes(data)
        with pytest.raises(IndexFormatError, match=rf"m\.tsv: line {lineno}: carriage return inside a line"):
            read_manifest(tmp_path / "m.tsv")

    @pytest.mark.parametrize("entry", [("#a.pgm", "x"), (" # a.pgm", "x"), (" ", "\u2028")])
    def test_write_refuses_an_entry_that_reads_back_as_skipped(self, tmp_path, entry):
        manifest = Manifest((entry, ("b.pgm", "y")))
        with pytest.raises(IndexFormatError, match="would read back as a blank or comment line"):
            write_manifest(manifest, tmp_path / "m.tsv")
        assert not (tmp_path / "m.tsv").exists()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.text(st.characters(exclude_characters="\t\n\r"), min_size=1)] * 2),
                    min_size=1, max_size=4))
    @example([("a\u2028b.pgm", "x")])
    @example([("#a.pgm", "x"), ("b.pgm", "y")])
    @example([("a.pgm", "x\x0c"), ("\x1c", "\x85")])
    @example([("0", "\ud800")])
    def test_every_written_manifest_reads_back_equal(self, tmp_path_factory, entries):
        path = tmp_path_factory.mktemp("manifest") / "m.tsv"
        try:
            manifest = Manifest(tuple(entries))
        except ValueError as exc:  # a lone surrogate, which no UTF-8 file can hold
            assert "lone surrogate" in str(exc)
            return
        try:
            write_manifest(manifest, path)
        except IndexFormatError:  # an entry read_manifest would skip
            assert not path.exists()
            return
        assert read_manifest(path) == manifest


@st.composite
def zero_background_pixels(draw):
    """A small uint8 grid on a black background: up to three solid blobs, any of
    which may touch the borders, plus sparse single-pixel noise; possibly all zero."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    pixels = np.zeros((h, w), dtype=np.uint8)
    for _ in range(draw(st.integers(0, 3))):
        y0, x0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        y1, x1 = draw(st.integers(y0 + 1, h)), draw(st.integers(x0 + 1, w))
        pixels[y0:y1, x0:x1] = draw(st.integers(1, 255))
    for _ in range(draw(st.integers(0, 6))):
        pixels[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = draw(st.integers(0, 255))
    return pixels


def _blob(h, w, rows, cols, value=200):
    pixels = np.zeros((h, w), dtype=np.uint8)
    pixels[rows, cols] = value
    return pixels


class TestExtractFeatures:
    @settings(max_examples=300, deadline=None)
    @given(
        zero_background_pixels(),
        st.integers(0, 255),
        st.integers(1, 5),
        st.integers(1, 4),
        st.floats(0.3, 4.0),
        st.floats(0.001, 1.0),
    )
    @example(np.zeros((1, 1), np.uint8), 30, 2, 2, 1.5, 0.01)
    @example(np.full((1, 1), 9, np.uint8), 30, 2, 2, 1.5, 0.01)
    @example(np.zeros((9, 13), np.uint8), 0, 1, 1, 1.5, 0.01)
    @example(_blob(1, 17, 0, slice(3, 9)), 30, 2, 2, 1.5, 0.01)
    @example(_blob(16, 16, slice(0, 5), slice(4, 9)), 30, 2, 2, 1.5, 0.01)  # touches the top
    @example(_blob(16, 16, slice(11, 16), slice(4, 9)), 30, 2, 2, 1.5, 0.01)  # the bottom
    @example(_blob(16, 16, slice(4, 9), slice(0, 5)), 30, 2, 2, 1.5, 0.01)  # the left
    @example(_blob(16, 16, slice(4, 9), slice(11, 16)), 30, 2, 2, 1.5, 0.01)  # the right
    @example(_blob(16, 16, slice(6, 10), slice(6, 10)), 30, 1, 1, 0.5, 0.01)  # 9 corners on a margin of r, not 5
    def test_crop_keeps_every_bit(self, pixels, threshold, window_radius, nms_radius, window_sigma, peak):
        """extract_features on its crop equals corner_count and hu_moments on the whole image."""
        image = GrayImage(pixels)
        edge_cfg = EdgeConfig(threshold)
        corner_cfg = CornerConfig(window_sigma=window_sigma, window_radius=window_radius,
                                  peak_rel_threshold=peak, nms_radius=nms_radius)
        if not pixels.any():
            with pytest.raises(DegenerateImageError) as whole:
                hu_moments(image)
            with pytest.raises(DegenerateImageError, match=re.escape(str(whole.value))):
                extract_features(image, edge_cfg, corner_cfg)
            return
        count, hu = extract_features(image, edge_cfg, corner_cfg)
        assert count == corner_count(image, edge_cfg, corner_cfg)
        assert hu.as_array().tobytes() == hu_moments(image).as_array().tobytes()

    def test_square_scene_features(self, scene):
        count, hu = extract_features(scene)
        assert count == 4
        assert hu == hu_moments(scene)

    def test_deterministic(self, scene):
        assert extract_features(scene) == extract_features(scene)

    def test_degenerate_image_raises(self):
        img = GrayImage(np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(DegenerateImageError):
            extract_features(img)

    def test_rgb_image_is_extracted_in_gray(self, built, tmp_path):
        _, _, db, _ = built
        pixels = np.zeros((24, 24, 3), np.uint8)
        pixels[4:19, 6:17] = (200, 90, 30)
        pixels[9:13, 2:22] = (10, 250, 120)
        rgb = RgbImage(pixels)
        gray = rgb_to_gray(rgb)
        assert not any(np.array_equal(gray.pixels, pixels[..., c]) for c in range(3))
        cfg = db.extraction_config
        features = extract_features(gray, cfg.edge, cfg.corners)
        assert extract_features(rgb, cfg.edge, cfg.corners) == features
        # query ranks on these features, and build_index's worker extracts them from a P6 file.
        with mock.patch.object(index, "rank_by_moments", wraps=index.rank_by_moments) as rank:
            query(db, rgb, k=3)
        assert (rank.call_args.kwargs["query_corner_count"], rank.call_args.args[0]) == features
        (tmp_path / "a.ppm").write_bytes(b"P6\n24 24\n255\n" + pixels.tobytes())
        assert index._image_features(tmp_path, cfg, "a.ppm")[1:] == features


class TestBuildIndex:
    def test_records_follow_manifest_order(self, built):
        _, manifest, db, _ = built
        assert [r.record_id for r in db.records] == [0, 1, 2]
        assert [r.path for r in db.records] == [p for p, _ in manifest.entries]

    def test_missing_file_names_entry(self, shape_dataset, tmp_path):
        root, _ = shape_dataset
        manifest = Manifest((("missing.pgm", "x"),))
        with pytest.raises(IndexBuildError, match="missing.pgm"):
            build_index(manifest, root, ExtractionConfig(), out=tmp_path / "db.tsv")

    @pytest.mark.parametrize("label", ["foo bar", "a\u00a0b"])
    def test_multi_token_label_names_entry(self, shape_dataset, tmp_path, label):
        root, manifest = shape_dataset
        bad = Manifest(manifest.entries + (("a.pgm", label),))
        with pytest.raises(IndexBuildError, match="manifest entry 'a.pgm': class label must be a single token"):
            build_index(bad, root, ExtractionConfig(), out=tmp_path / "db.tsv")
        assert not (tmp_path / "db.tsv").exists()

    def test_degenerate_image_names_entry(self, tmp_path):
        save_pgm(GrayImage(np.zeros((8, 8), dtype=np.uint8)), tmp_path / "blank.pgm")
        manifest = Manifest((("blank.pgm", "x"),))
        with pytest.raises(IndexBuildError, match="blank.pgm"):
            build_index(manifest, tmp_path, ExtractionConfig(), out=tmp_path / "db.tsv")

    def test_rebuild_reproduces_database(self, built, tmp_path):
        root, manifest, db, _ = built
        again = build_index(manifest, root, ExtractionConfig(), out=tmp_path / "db2.tsv")
        assert again.records == db.records

    def test_parallel_build_matches_serial(self, built, tmp_path):
        root, manifest, db, _ = built
        parallel = build_index(manifest, root, ExtractionConfig(), out=tmp_path / "db3.tsv", jobs=4)
        assert parallel.records == db.records

    @pytest.mark.parametrize("bad", ["missing.pgm", "blank.pgm"])
    def test_two_jobs_fail_like_one(self, shape_dataset, tmp_path, bad):
        # The bad entry sits between good ones, so two workers both get work.
        root, manifest = shape_dataset
        save_pgm(GrayImage(np.zeros((8, 8), dtype=np.uint8)), tmp_path / "blank.pgm")
        entries = [(str(root / p), c) for p, c in manifest.entries]
        bad_manifest = Manifest((*entries[:2], (bad, "x"), *entries[2:]))
        failures = []
        for jobs in (1, 2):
            with pytest.raises(IndexBuildError) as failed:
                build_index(bad_manifest, tmp_path, ExtractionConfig(), out=tmp_path / "db.tsv", jobs=jobs)
            failures.append((type(failed.value.__cause__), str(failed.value)))
            assert multiprocessing.active_children() == []
        assert failures[0] == failures[1]
        assert failures[0][1].startswith(f"manifest entry {bad!r}: ")
        assert not (tmp_path / "db.tsv").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_long_missing_entry_is_named_once_shortened(self, shape_dataset, tmp_path, jobs):
        # The error is shown by its strerror, since an OSError's message would name the file again, whole.
        root, manifest = shape_dataset
        bad = "missing" * 8 + ".pgm"  # 60 characters
        entries = [(str(root / p), c) for p, c in manifest.entries]
        with pytest.raises(IndexBuildError) as failed:
            build_index(Manifest((*entries[:2], (bad, "x"))), tmp_path, jobs=jobs)
        assert str(failed.value) == f"manifest entry {shown(bad)}: {os.strerror(errno.ENOENT)}"
        assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def reuse_dataset(tmp_path_factory):
    """Five shapes on disk, a database `db.tsv` (with its column cache) over the first three,
    and `other.tsv` (with its column cache) over the same three in reverse order."""
    root = tmp_path_factory.mktemp("reuse")
    entries = []
    for name, img in benchmark_shapes()[:5]:
        save_pgm(img, root / f"{name}.pgm")
        entries.append((f"{name}.pgm", name))
    save_pgm(GrayImage(np.zeros((8, 8), dtype=np.uint8)), root / "blank.pgm")
    build_index(Manifest(tuple(entries[:3])), root, out=root / "db.tsv")
    build_index(Manifest(tuple(entries[2::-1])), root, out=root / "other.tsv")
    return root, entries


def _features(db):
    return db.columns.corner_counts.tobytes(), db.columns.hu.tobytes(), db.digests


class TestDigestReuse:
    """build_index(..., reuse=db) takes the features of query images the database holds byte for byte."""

    QUERIES = {"all": [0, 1, 2], "some": [3, 1, 4, 0], "none": [4, 3]}

    @staticmethod
    def _db_with_cache(reuse_dataset, tmp_path, cache):
        root, _ = reuse_dataset
        db_file = tmp_path / "db.tsv"
        db_file.write_bytes((root / "db.tsv").read_bytes())
        if cache == "bound":
            (tmp_path / "db.tsv.cols").write_bytes((root / "db.tsv.cols").read_bytes())
        elif cache == "stale":  # the database was rewritten after its cache: same ids, other images
            (tmp_path / "db.tsv.cols").write_bytes((root / "db.tsv.cols").read_bytes())
            db_file.write_bytes((root / "other.tsv").read_bytes())
        elif cache == "other":
            (tmp_path / "db.tsv.cols").write_bytes((root / "other.tsv.cols").read_bytes())
        return db_file

    @pytest.mark.parametrize("cache", ["bound", "absent", "stale", "other"])
    @pytest.mark.parametrize("queries", sorted(QUERIES))
    def test_features_equal_fresh_extraction(self, reuse_dataset, tmp_path, monkeypatch, cache, queries):
        root, entries = reuse_dataset
        manifest = Manifest(tuple(entries[i] for i in self.QUERIES[queries]))
        db = load_index(self._db_with_cache(reuse_dataset, tmp_path, cache))
        assert (db.digests is not None) == (cache == "bound")
        fresh = build_index(manifest, root)
        extracted = []
        image_features = index._image_features
        monkeypatch.setattr(index, "_image_features", lambda *a: extracted.append(a[-1]) or image_features(*a))
        reused = build_index(manifest, root, reuse=db)
        assert _features(reused) == _features(fresh)
        assert reused.records == fresh.records
        held = [p for p, _ in manifest.entries if p in db.paths] if cache == "bound" else []
        assert extracted == [p for p, _ in manifest.entries if p not in held]

    def test_every_spelling_of_a_held_path_is_reused(self, reuse_dataset, tmp_path, monkeypatch):
        # `root / rel_path` drops `.` and empty components and a trailing slash, and keeps `..`: each spelling
        # below names a held image, takes its record's row and extracts nothing, as when the parent opened
        # `root / rel_path`. Only the image the database does not hold is extracted.
        root, entries = reuse_dataset
        (tmp_path / "sub").mkdir()
        for name, _ in entries[:4]:
            (tmp_path / "sub" / name).write_bytes((root / name).read_bytes())
        a, b, c, d = (name for name, _ in entries[:4])
        spellings = [f"sub/{a}", f"./sub/{a}", f"sub//{b}", f"sub/./{c}", f"sub/{a}/", f"sub/{b}/.",
                     f"sub/../sub/{c}", str(tmp_path / "sub" / a), f"/{tmp_path}//sub/{b}/", f"sub/{d}"]
        manifest = Manifest(tuple((spelling, "x") for spelling in spellings))
        db = load_index(root / "db.tsv")
        fresh = build_index(manifest, tmp_path)
        extracted = []
        image_features = index._image_features
        monkeypatch.setattr(index, "_image_features", lambda *a: extracted.append(a[-1]) or image_features(*a))
        reused = build_index(manifest, tmp_path, reuse=db)
        assert _features(reused) == _features(fresh)
        assert extracted == [f"sub/{d}"]
        assert reused._reused == 9

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts the open descriptors in /proc/self/fd")
    @pytest.mark.parametrize("bad", [None, ".", "missing.pgm", "blank.pgm"])
    def test_the_digest_pass_leaves_no_descriptor_open(self, reuse_dataset, bad):
        # "." is the root directory, which opens but cannot be read.
        root, entries = reuse_dataset
        manifest = Manifest((*entries[:4], *(((bad, "x"),) if bad else ())))
        db = load_index(root / "db.tsv")
        before = len(os.listdir("/proc/self/fd"))
        if bad is None:
            build_index(manifest, root, reuse=db)
        else:
            with pytest.raises(IndexBuildError, match=f"^manifest entry {bad!r}: "):
                build_index(manifest, root, reuse=db)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_all_held_starts_no_worker(self, reuse_dataset, monkeypatch):
        root, entries = reuse_dataset
        db = load_index(root / "db.tsv")
        calls = []
        monkeypatch.setattr(index, "_image_features", lambda *a: calls.append(a))
        for jobs in (1, 2):
            queries = build_index(Manifest(tuple(entries[:3])), root, jobs=jobs, reuse=db)
            assert queries.digests == db.digests
        assert calls == []
        assert multiprocessing.active_children() == []

    def test_other_extraction_config_reuses_nothing(self, reuse_dataset):
        root, entries = reuse_dataset
        db = load_index(root / "db.tsv")
        config = ExtractionConfig(EdgeConfig(threshold=60))
        manifest = Manifest(tuple(entries[:3]))
        fresh = build_index(manifest, root, config)
        assert _features(build_index(manifest, root, config, reuse=db)) == _features(fresh)

    @pytest.mark.parametrize("bad", [["missing.pgm"], ["blank.pgm"], ["blank.pgm", "missing.pgm"],
                                     ["missing.pgm", "blank.pgm"]])
    def test_first_failing_entry_is_named_as_without_reuse(self, reuse_dataset, bad):
        # Held entries sit before and after the bad ones; a later unreadable
        # entry must not hide an earlier one that fails to extract.
        root, entries = reuse_dataset
        manifest = Manifest((entries[0], entries[3], *((b, "x") for b in bad), entries[1]))
        db = load_index(root / "db.tsv")
        failures = []
        for jobs, reuse in ((1, None), (1, db), (2, db)):
            with pytest.raises(IndexBuildError) as failed:
                build_index(manifest, root, jobs=jobs, reuse=reuse)
            failures.append((type(failed.value.__cause__), str(failed.value)))
        assert failures[0] == failures[1] == failures[2]
        assert failures[0][1].startswith(f"manifest entry {bad[0]!r}: ")


class TestReadOnlyColumns:
    @pytest.mark.parametrize("source", ["loaded", "parsed", "built", "selected", "from records"])
    @pytest.mark.parametrize("column", ["record_ids", "corner_counts", "hu", "log_hu"])
    def test_writing_into_a_column_raises(self, built, tmp_path, source, column):
        _, _, db, out = built
        (tmp_path / "parsed.tsv").write_bytes(out.read_bytes())  # without its column cache
        columns = {
            "loaded": lambda: load_index(out).columns,
            "parsed": lambda: load_index(tmp_path / "parsed.tsv").columns,
            "built": lambda: db.columns,
            "selected": lambda: corner_filter(int(db.columns.corner_counts[0]), db.columns),
            "from records": lambda: FeatureDatabase(db.records, db.extraction_config).columns,
        }[source]()
        array = getattr(columns, column)
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 999
        assert np.array_equal(array, before)


class TestPersistence:
    def test_round_trip_is_field_exact(self, built):
        _, _, db, out = built
        loaded = load_index(out)
        assert loaded.records == db.records
        assert loaded.extraction_config == db.extraction_config

    def test_non_default_config_round_trips(self, tmp_path):
        config = ExtractionConfig(
            edge=EdgeConfig(threshold=77),
            corners=CornerConfig(kappa=0.0625, window_sigma=2.25, window_radius=3,
                                 peak_rel_threshold=0.125, nms_radius=4),
        )
        rec = FeatureRecord(0, "a.pgm", "a", 9, HuVector((0.1, -0.2, 1e-15, -1e-300, 0.0, 3.25, 7.0)))
        save_index(FeatureDatabase((rec,), config), tmp_path / "db.tsv")
        loaded = load_index(tmp_path / "db.tsv")
        assert loaded.extraction_config == config
        assert loaded.records[0].hu.phi == rec.hu.phi

    @staticmethod
    def _setting_values(default):
        """The default, or a wild value of the setting's kind: bools and ints near 2**63, or any float or int
        (one that no float holds exactly, or none holds at all)."""
        if type(default) is int:
            wild = st.one_of(st.booleans(), st.integers(-2, 300), st.integers(2**63 - 2, 2**63 + 2))
        else:
            wild = st.one_of(st.booleans(), st.floats(0.0, 1.0), st.floats(allow_subnormal=True),
                             st.sampled_from([float("inf"), float("nan"), 5e-324, 1e-200, 1e-160]),
                             st.integers(-2, 2**60), st.sampled_from([2**53 + 1, 10**400]))
        return st.one_of(st.just(default), wild)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_config_the_classes_accept_loads_back(self, tmp_path_factory, data):
        values = [{f.name: data.draw(self._setting_values(f.default), label=f.name) for f in fields(cls)}
                  for cls in (EdgeConfig, CornerConfig)]
        try:
            config = ExtractionConfig(EdgeConfig(**values[0]), CornerConfig(**values[1]))
        except ValueError:
            return
        out = tmp_path_factory.mktemp("cfg") / "db.tsv"
        save_index(FeatureDatabase((FeatureRecord(0, "a.pgm", "a", 1, HuVector((0.5,) * 7)),), config), out)
        assert load_index(out).extraction_config == config

    @pytest.mark.parametrize("stage", ["write", "replace"])
    @pytest.mark.parametrize("save", [save_index, write_manifest, save_pgm, emit_pr_csv],
                             ids=["save_index", "write_manifest", "save_pgm", "emit_pr_csv"])
    def test_failed_save_keeps_old_database(self, built, tmp_path, monkeypatch, stage, save):
        # Every file tir writes goes through one writer, so each kind fails the same way.
        _, manifest, db, _ = built
        point = PRPoint(1.0, 0.5)
        report = EvalReport(EvalMode.HYBRID, tuple(QueryResult(p, c, point) for p, c in manifest.entries), point, 3.0)
        old, new = {save_index: (db, FeatureDatabase(db.records[:1], db.extraction_config)),
                    write_manifest: (manifest, Manifest(manifest.entries[:1])),
                    save_pgm: (GrayImage(np.zeros((8, 8), np.uint8)), GrayImage(np.full((4, 4), 9, np.uint8))),
                    emit_pr_csv: (report, replace(report, per_query=report.per_query[:1]))}[save]
        target = tmp_path / "db.tsv"
        save(old, target)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        class FailingFile:
            def __init__(self, path, mode):
                self.file = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, data):
                self.file.write(data[: len(data) // 2])
                raise OSError("disk full")

        def failing_replace(src, dst):
            raise OSError("disk full")

        if stage == "write":
            monkeypatch.setattr("tir.imaging.open", FailingFile, raising=False)
        else:
            monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save(new, target)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        if save is save_index:  # the old database keeps its column cache, which still applies
            assert sorted(before) == ["db.tsv", "db.tsv.cols"]
            assert load_index(target).digests == db.digests
        else:
            assert sorted(before) == ["db.tsv"]

    def test_version_gate(self, tmp_path):
        (tmp_path / "db.tsv").write_text("TIRDB\t99\nCFG\n")
        with pytest.raises(IndexFormatError, match="version"):
            load_index(tmp_path / "db.tsv")

    def test_non_database_file_rejected(self, tmp_path):
        (tmp_path / "db.tsv").write_text("hello\nworld\n")
        with pytest.raises(IndexFormatError, match="tag"):
            load_index(tmp_path / "db.tsv")

    def test_short_record_line_names_line_number(self, built, tmp_path):
        _, _, db, out = built
        lines = out.read_text().splitlines()
        lines[2] = "\t".join(lines[2].split("\t")[:10])  # drop one moment value
        broken = tmp_path / "broken.tsv"
        broken.write_text("\n".join(lines) + "\n")
        with pytest.raises(IndexFormatError, match="line 3"):
            load_index(broken)

    @pytest.mark.parametrize("field", [0, 3])  # record_id, corner_count
    def test_integers_must_fit_int64(self, built, tmp_path, field):
        _, _, db, out = built
        lines = out.read_text().splitlines()
        parts = lines[2].split("\t")
        parts[field] = str(2**63 - 1)
        lines[2] = "\t".join(parts)
        edge = tmp_path / "edge.tsv"
        edge.write_text("\n".join(lines) + "\n")
        columns = load_index(edge).columns
        assert (columns.record_ids, columns.corner_counts)[field == 3].max() == 2**63 - 1
        for value in (2**63, 10**20):
            parts[field] = str(value)
            lines[2] = "\t".join(parts)
            edge.write_text("\n".join(lines) + "\n")
            with pytest.raises(IndexFormatError, match=r"line 3: .*2\*\*63"):
                load_index(edge)

    @pytest.mark.parametrize("field", [0, 3])  # record_id, corner_count
    def test_integer_past_the_int_conversion_limit_names_its_line(self, built, tmp_path, field):
        broken = _with_record_field(built[3], tmp_path, field, "9" * 5000)
        with pytest.raises(IndexFormatError, match=r"line 3: (record_id|corner_count) must lie in \[0, 2\*\*63\)"):
            load_index(broken)

    def test_cfg_integer_past_the_int_conversion_limit_names_its_line(self, built, tmp_path):
        lines = built[3].read_text().splitlines()
        lines[1] = re.sub("win=[0-9]+", "win=" + "9" * 5000, lines[1])
        broken = tmp_path / "broken.tsv"
        broken.write_text("\n".join(lines) + "\n")
        with pytest.raises(IndexFormatError, match=r"line 2: win must lie in \[0, 2\*\*63\), got more than 19"):
            load_index(broken)

    @pytest.mark.parametrize("field", [0, 3])  # record_id, corner_count
    @pytest.mark.parametrize("token", ["1_0", "+5", " 7", "7 ", "\u0663", "07", "-1", ""])
    def test_integers_must_be_plain_ascii_decimal(self, built, tmp_path, field, token):
        broken = _with_record_field(built[3], tmp_path, field, token)
        with pytest.raises(IndexFormatError, match=r"line 3: (record_id|corner_count) must be written as"):
            load_index(broken)

    @pytest.mark.parametrize("field", [4, 10])  # phi1, phi7
    @pytest.mark.parametrize(
        "token", ["1_0.5", "\u0661.\u0665", " 1.0", "1.0 ", "1.0\u00a0", "nan", "-inf", "1e5e5", "0x1p-3", ""]
    )
    def test_reals_must_be_plain_ascii_notation(self, built, tmp_path, field, token):
        broken = _with_record_field(built[3], tmp_path, field, token)
        with pytest.raises(IndexFormatError, match="line 3: "):
            load_index(broken)

    @pytest.mark.parametrize(
        "key, token",
        [("edge_T", "+30"), ("nms", "0_2"), ("win", "\u0662"), ("kappa", " 0.04"),
         ("edge_T", "07"), ("nms", "+2"), ("kappa", "nan"), ("win", str(2**63))],
    )
    def test_cfg_fields_must_be_plain_ascii(self, built, tmp_path, key, token):
        _, _, _, out = built
        lines = out.read_text().splitlines()
        lines[1] = "\t".join(f"{key}={token}" if p.startswith(key + "=") else p for p in lines[1].split("\t"))
        broken = tmp_path / "broken.tsv"
        broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(IndexFormatError, match="line 2: "):
            load_index(broken)

    def test_cfg_table_holds_every_detector_setting_once(self):
        # A setting left out of the table would be left out of every database, and read back as its default.
        held = [(group, name) for _, group, name, _ in index._CFG_FIELDS]
        settings = [(group.name, f.name) for group in fields(ExtractionConfig) for f in fields(group.default)]
        assert sorted(held) == sorted(settings)
        assert len({key for key, *_ in index._CFG_FIELDS}) == len(held)

    def test_cfg_line_is_pinned(self, built):
        # The table's order and kinds are the file format; a reordered config class must not change them.
        assert built[3].read_text().split("\n")[1] == (
            "CFG\tedge_T=30\tkappa=4.0000000000000001e-02\tsigma=1.5000000000000000e+00\twin=2"
            "\tpeak=1.0000000000000000e-02\tnms=2")

    def test_first_bad_cfg_value_in_line_order_is_named(self, built, tmp_path):
        # kappa comes before win on the line, so its fault is the one named.
        lines = built[3].read_text().splitlines()
        lines[1] = re.sub("win=[0-9]+", "win=x", re.sub("kappa=[^\t]+", "kappa=y", lines[1]))
        broken = tmp_path / "broken.tsv"
        broken.write_text("\n".join(lines) + "\n")
        with pytest.raises(IndexFormatError, match=r"line 2: kappa must be ASCII decimal"):
            load_index(broken)

    @pytest.mark.parametrize(
        "line, edit, message",
        [
            (None, lambda line: line + b"\r", r"line 1: carriage return in the tag line"),
            (0, lambda line: line + b"\r", r"line 1: carriage return in the tag line"),
            (1, lambda line: line + b"\r", r"line 2: nms must be written as .*\\r"),
            (3, lambda line: line.replace(b".pgm\t", b".p\rgm\t"), r"line 4: record path must not contain"),
            (4, lambda line: line + b"\r", r"line 5: Hu invariants .*\\r"),
        ],
        ids=["crlf", "cr-tag", "cr-cfg", "cr-in-path", "cr-last-record"],
    )
    def test_carriage_returns_fail_on_their_line(self, built, tmp_path, line, edit, message):
        _, _, _, out = built
        lines = out.read_bytes().split(b"\n")[:-1]
        lines = [edit(text) if line in (None, row) else text for row, text in enumerate(lines)]
        broken = tmp_path / "cr.tsv"
        broken.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(IndexFormatError, match=message):
            load_index(broken)

    def test_saved_database_resaves_byte_identically(self, tmp_path, rng):
        hu = rng.normal(size=(6, 7)) * 10.0 ** rng.integers(-300, 300, (6, 7))
        hu[0] = 0.0
        hu[1, :3] = (5e-324, -0.0, 2.0**-1022)
        records = [
            FeatureRecord(record_id, f"img/{record_id}.pgm", f"class{record_id % 2}", count, HuVector(tuple(row)))
            for record_id, count, row in zip((0, 7, 10, 2**63 - 1, 123456, 99), (0, 1, 2**63 - 1, 40, 5, 10), hu)
        ]
        db = FeatureDatabase(tuple(records), ExtractionConfig(EdgeConfig(0), CornerConfig(nms_radius=7)))
        save_index(db, tmp_path / "a.tsv")
        loaded = load_index(tmp_path / "a.tsv")
        save_index(loaded, tmp_path / "b.tsv")
        assert (tmp_path / "b.tsv").read_bytes() == (tmp_path / "a.tsv").read_bytes()
        assert [(r.record_id, r.corner_count, r.hu.phi) for r in loaded.records] == [
            (r.record_id, r.corner_count, r.hu.phi) for r in records
        ]

    def test_duplicate_record_id_rejected(self, built, tmp_path):
        _, _, db, out = built
        lines = out.read_text().splitlines()
        parts = lines[3].split("\t")
        parts[0] = "0"
        lines[3] = "\t".join(parts)
        broken = tmp_path / "dup.tsv"
        broken.write_text("\n".join(lines) + "\n")
        with pytest.raises(IndexFormatError, match="duplicate record_id"):
            load_index(broken)


def _edited_db(tmp_path, edits):
    """A saved six-record database (lines 3-8) with `edits`, {line number: (field, token)}, applied."""
    records = [FeatureRecord(i, f"{i}.pgm", "a", i, HuVector((1.0,) * 7)) for i in range(6)]
    db_file = tmp_path / "edited.tsv"
    save_index(FeatureDatabase(records, ExtractionConfig()), db_file)
    lines = db_file.read_text(encoding="utf-8").split("\n")
    for lineno, (field, token) in edits.items():
        parts = lines[lineno - 1].split("\t")
        parts[field] = token
        lines[lineno - 1] = "\t".join(parts)
    db_file.write_text("\n".join(lines), encoding="utf-8")
    return db_file


class TestFirstBadLine:
    """A failed chunk is checked again one line at a time; the first line that fails is named."""

    def test_earlier_line_failing_a_later_check_is_named(self, tmp_path):
        db_file = _edited_db(tmp_path, {4: (2, "two words"), 7: (0, "07")})
        with pytest.raises(IndexFormatError, match=r": line 4: class label must be a single token"):
            load_index(db_file)

    def test_duplicate_id_across_a_chunk_boundary(self, tmp_path, monkeypatch):
        db_file = _edited_db(tmp_path, {6: (0, "1")})  # line 4 has id 1, in the chunk before
        monkeypatch.setattr(index, "_CHUNK_LINES", 2)
        with pytest.raises(IndexFormatError, match=r": line 6: duplicate record_id 1$"):
            load_index(db_file)

    def test_chunk_failing_on_no_single_line_does_not_load(self, built, tmp_path, monkeypatch):
        db_file = tmp_path / "features.tsv"  # without its column cache, so the record lines are parsed
        db_file.write_bytes(built[3].read_bytes())
        checks = index._chunk_columns

        def whole_chunks_fail(lines, seen_ids):
            if len(lines) > 1:
                raise ValueError("a fault of the chunk only")
            return checks(lines, seen_ids)

        monkeypatch.setattr(index, "_chunk_columns", whole_chunks_fail)
        with pytest.raises(IndexFormatError, match=r": lines 3-5: a fault of the chunk only$"):
            load_index(db_file)

    def test_non_utf8_database_names_its_line(self, tmp_path):
        db_file = _edited_db(tmp_path, {6: (1, "x.pgm")})
        db_file.write_bytes(db_file.read_bytes().replace(b"x.pgm", b"\xff.pgm"))
        with pytest.raises(IndexFormatError, match=rf"^{re.escape(str(db_file))}: line 6: not valid UTF-8$"):
            load_index(db_file)


int64s = st.one_of(st.integers(0, 50), st.sampled_from([2**63 - 1, 10**18]), st.integers(0, 2**63 - 1))
reals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e308, -1e308]),
)
# Surrogates cannot be written as UTF-8; tabs and line breaks cannot be in a field.
field_chars = st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r")


@st.composite
def record_lists(draw, min_size=0):
    ids = draw(st.lists(int64s, min_size=min_size, max_size=9, unique=True))
    return tuple(
        FeatureRecord(
            record_id,
            draw(st.text(field_chars, min_size=1, max_size=6)),
            draw(st.text(field_chars, min_size=1, max_size=6).filter(lambda label: label.split() == [label])),
            draw(int64s),
            HuVector(draw(st.tuples(*[reals] * 7))),
        )
        for record_id in ids
    )


def _columns_bytes(columns):
    arrays = (columns.record_ids, columns.corner_counts, columns.hu, columns.log_hu)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _error_line(load, db_file):
    with pytest.raises(IndexFormatError) as exc:
        load(db_file)
    return int(re.search(r": line (\d+): ", str(exc.value)).group(1))


# One edit to one field of a record line: (field, new token or edit of the old token).
MUTATIONS = [
    *[(field, token) for field in (0, 3) for token in ("1_0", "+5", " 7", "07", "\u0663", str(2**63))],
    *[(field, token) for field in (4, 10) for token in ("nan", "1e999", "1e")],
    (1, ""),
    (1, lambda path: path[:1] + "\r" + path[1:]),
    (2, lambda label: label[:1] + "\u00a0" + label[1:]),
    ("fields", 10),
    ("fields", 12),
    ("duplicate", None),
]


@pytest.fixture(scope="module")
def db_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("loader")


class TestLoaderAgainstPerLineOracle:
    """load_index against the earlier one-record-per-line loader in tests/reference.py.

    Small chunk sizes put chunk boundaries inside these small databases.
    """

    @given(record_lists(), st.sampled_from([1, 2, 3, 1024]))
    @settings(max_examples=200, deadline=None)
    def test_valid_database_loads_as_the_oracle(self, db_dir, records, chunk):
        db_file = db_dir / "valid.tsv"
        save_index(FeatureDatabase(records, ExtractionConfig()), db_file)
        oracle = reference.load_index_per_line(db_file)
        with mock.patch.object(index, "_CHUNK_LINES", chunk):
            loaded = load_index(db_file)
        assert _columns_bytes(loaded.columns) == _columns_bytes(FeatureColumns.from_records(oracle.records))
        assert loaded.records == oracle.records
        assert loaded.extraction_config == oracle.extraction_config
        save_index(loaded, db_dir / "resaved.tsv")
        assert (db_dir / "resaved.tsv").read_bytes() == db_file.read_bytes()

    @given(record_lists(min_size=2), st.lists(st.tuples(st.integers(0), st.sampled_from(MUTATIONS)), min_size=1,
                                               max_size=3), st.sampled_from([1, 2, 3, 1024]))
    @example(
        records=tuple(FeatureRecord(i, f"{i}.pgm", "a", 1, HuVector((1.0,) * 7)) for i in range(2)),
        mutations=[(0, ("fields", 10)), (0, (10, "nan"))],
        chunk=1,
    )
    @settings(max_examples=300, deadline=None)
    def test_malformed_database_fails_on_the_oracle_line(self, db_dir, records, mutations, chunk):
        db_file = db_dir / "mutated.tsv"
        save_index(FeatureDatabase(records, ExtractionConfig()), db_file)
        lines = db_file.read_text(encoding="utf-8").split("\n")
        for pick, (field, edit) in mutations:
            row = 2 + pick % len(records)
            parts = lines[row].split("\t")
            if field == "fields":
                parts = (parts + ["0"])[:edit]
            elif field == "duplicate":
                parts[0] = lines[2 + (pick + 1) % len(records)].split("\t")[0]
            elif field < len(parts):  # an earlier ("fields", n) edit may have cut the field off
                parts[field] = edit(parts[field]) if callable(edit) else edit
            lines[row] = "\t".join(parts)
        db_file.write_text("\n".join(lines), encoding="utf-8")
        try:
            oracle = reference.load_index_per_line(db_file)
        except IndexFormatError:
            with mock.patch.object(index, "_CHUNK_LINES", chunk):
                assert _error_line(load_index, db_file) == _error_line(reference.load_index_per_line, db_file)
            return
        assert len(mutations) > 1, "one edit always makes the database malformed"
        loaded = load_index(db_file)  # edits that undo each other
        assert loaded.records == oracle.records


def _cache_file(db_file):
    return db_file.with_name(db_file.name + ".cols")


def _three_records_db(tmp_path):
    """A saved database of three records, ids 0-2, paths `<id>.pgm`, label `a`, count id, all Hu 1.0."""
    records = [FeatureRecord(i, f"{i}.pgm", "a", i, HuVector((1.0,) * 7)) for i in range(3)]
    db_file = tmp_path / "db.tsv"
    save_index(FeatureDatabase(records, ExtractionConfig()), db_file)
    return db_file


# Byte offsets in a column cache: line 1 is 75 bytes, zero-padded to 80; then the four int64 sizes, and,
# in the cache of `_three_records_db`, each block of three rows.
SIZES_AT = 80
BLOCK_AT = {"record_ids": 112, "corner_counts": 136, "hu": 160, "log_hu": 328}


def _packed(fmt, at, value):
    return lambda data: data[:at] + struct.pack(fmt, value) + data[at + struct.calcsize(fmt):]


def _with_texts(paths: bytes, labels: bytes):
    """An edit of a column cache that puts `paths` and `labels` in place of its path and label blocks."""
    def edit(data):
        n, paths_size, labels_size, digests_size = struct.unpack_from("<4q", data, SIZES_AT)
        body = data[:len(data) - paths_size - labels_size]
        sizes = struct.pack("<4q", n, len(paths), len(labels), digests_size)
        return body[:SIZES_AT] + sizes + body[SIZES_AT + len(sizes):] + paths + labels
    return edit


def _with_ids(*ids):
    return lambda data: data[:BLOCK_AT["record_ids"]] + struct.pack("<3q", *ids) + data[BLOCK_AT["corner_counts"]:]


THREE_PATHS, THREE_LABELS = b"0.pgm\n1.pgm\n2.pgm", b"a\na\na"


configs = st.sampled_from([
    ExtractionConfig(),
    ExtractionConfig(EdgeConfig(0), CornerConfig(kappa=0.1, window_sigma=1e-100, nms_radius=2**63 - 1)),
])


class TestColumnCache:
    """`<db>.cols`: what a load reads from it is what the text parse gives; it applies only to its own bytes."""

    @given(record_lists(), configs, st.one_of(st.none(), st.text()), st.sampled_from([1, 2, 1024]))
    @example(records=(), config=ExtractionConfig(), digest_seed="", chunk=1024)
    @settings(max_examples=150, deadline=None)
    def test_loads_bit_equal_to_the_text_parse(self, db_dir, records, config, digest_seed, chunk):
        db = FeatureDatabase(records, config)
        if digest_seed is not None:
            digests = b"".join(hashlib.sha256(f"{digest_seed}{i}".encode()).digest() for i in range(len(records)))
            db = FeatureDatabase._from_columns(db.columns, config, digests, paths=db.paths, labels=db.labels)
        db_file = db_dir / "cached.tsv"
        save_index(db, db_file)
        with mock.patch.object(index, "_parsed_columns", side_effect=AssertionError("the text was parsed")):
            cached = load_index(db_file)
        _cache_file(db_file).unlink()
        with mock.patch.object(index, "_CHUNK_LINES", chunk):
            parsed = load_index(db_file)
        assert _columns_bytes(cached.columns) == _columns_bytes(parsed.columns)
        assert (cached.paths, cached.labels) == (parsed.paths, parsed.labels) == (db.paths, db.labels)
        assert cached.extraction_config == parsed.extraction_config == config
        assert cached.digests == (db.digests or None)  # with no records, D = 0 reads as no digests
        assert parsed.digests is None

    @pytest.mark.parametrize("field, token, message", [
        (0, "07", r"line 4: record_id must be written as"),
        (2, "a b", r"line 4: class label must be a single token"),
        (4, "nan", r"line 4: Hu invariants must be ASCII"),
    ])
    def test_text_changed_after_the_save_is_parsed_and_its_errors_name_their_line(self, tmp_path, field, token,
                                                                                  message):
        db_file = _three_records_db(tmp_path)
        cache = _cache_file(db_file).read_bytes()
        lines = db_file.read_text().split("\n")
        parts = lines[3].split("\t")
        parts[field] = token
        lines[3] = "\t".join(parts)
        db_file.write_text("\n".join(lines))
        with pytest.raises(IndexFormatError, match=rf"^{re.escape(str(db_file))}: {message}"):
            load_index(db_file)
        assert _cache_file(db_file).read_bytes() == cache  # stale: its line 1 names the saved bytes

    def test_text_changed_after_the_save_loads_as_written(self, tmp_path):
        db_file = _three_records_db(tmp_path)
        db_file.write_text(db_file.read_text().replace("\t1.pgm\ta\t1\t", "\tb.pgm\tb\t9\t"))
        loaded = load_index(db_file)
        assert (loaded.paths, loaded.labels, loaded.columns.corner_counts.tolist()) == (
            ("0.pgm", "b.pgm", "2.pgm"), ("a", "b", "a"), [0, 9, 2])

    def test_digests_round_trip(self, reuse_dataset, tmp_path):
        # A plain load keeps the digests, so saving it writes the same database and cache again.
        root, entries = reuse_dataset
        db = load_index(root / "db.tsv")
        assert db.digests == build_index(Manifest(tuple(entries[:3])), root).digests
        save_index(db, tmp_path / "db.tsv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db.tsv", "db.tsv.cols"]
        for name in ("db.tsv", "db.tsv.cols"):
            assert (tmp_path / name).read_bytes() == (root / name).read_bytes()

    def test_digest_block_holds_each_image_files_sha256(self, reuse_dataset):
        root, _ = reuse_dataset
        db = load_index(root / "db.tsv")
        data = (root / "db.tsv.cols").read_bytes()
        n, paths_size, labels_size, digests_size = struct.unpack_from("<4q", data, SIZES_AT)
        assert (n, digests_size) == (3, 96)
        texts_at = len(data) - paths_size - labels_size
        images = [(root / path).read_bytes() for path in db.paths]
        assert data[texts_at - digests_size:texts_at] == b"".join(hashlib.sha256(image).digest() for image in images)
        assert db.digests == tuple(hashlib.sha256(image).hexdigest() for image in images)

    @pytest.mark.parametrize("kept", [3, 1])
    def test_a_database_made_from_records_saves_and_loads_without_digests(self, reuse_dataset, tmp_path, kept):
        # Saved over a database with digests, as the same text or other text: the cache is rewritten with D = 0.
        root, _ = reuse_dataset
        db = load_index(root / "db.tsv")
        save_index(db, tmp_path / "db.tsv")
        records = db.records[:kept]
        save_index(FeatureDatabase(records, db.extraction_config), tmp_path / "db.tsv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db.tsv", "db.tsv.cols"]
        assert ((tmp_path / "db.tsv").read_bytes() == (root / "db.tsv").read_bytes()) == (kept == 3)
        assert struct.unpack_from("<q", (tmp_path / "db.tsv.cols").read_bytes(), SIZES_AT + 24) == (0,)
        loaded = load_index(tmp_path / "db.tsv")
        assert loaded.digests is None
        assert loaded.records == records

    @pytest.mark.parametrize("head", [
        b"TIRCOLS\t1\t%s", b"TIRCOLS\t3\t%s", b"TIRCOLS\t02\t%s", b"tircols\t2\t%s", b"TIRCOLS\t2\t%s\t",
        b"TIRCOLS\t2\t%s\r", b"TIRCOLS 2 %s", b"TIRCOLS\t2\t\xe9%s",
    ], ids=["version-1", "version-3", "version-02", "lower-case-tag", "trailing-tab", "trailing-cr", "spaces",
            "not-utf8"])
    def test_cache_whose_line_1_is_not_the_exact_header_is_ignored(self, reuse_dataset, tmp_path, head):
        # Line 1 names these database bytes, but not as this version's header: the cache does not apply.
        root, _ = reuse_dataset
        db_file = tmp_path / "db.tsv"
        db_file.write_bytes((root / "db.tsv").read_bytes())
        line1, rest = (root / "db.tsv.cols").read_bytes().split(b"\n", 1)
        _cache_file(db_file).write_bytes(head % line1.split(b"\t")[2] + b"\n" + rest)
        with mock.patch.object(index, "_cached_columns", side_effect=AssertionError("the cache was read")):
            loaded = load_index(db_file)
        assert loaded.paths == load_index(root / "db.tsv").paths
        assert loaded.digests is None

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data[:-1], r"517 bytes, where its sizes make 518$"),
        (lambda data: data + b"\n", r"519 bytes, where its sizes make 518$"),
        (lambda data: data[:SIZES_AT - 1] + b"\x01" + data[SIZES_AT:], r"no zero padding and sizes after line 1"),
        (lambda data: data[:SIZES_AT + 24], r"no zero padding and sizes after line 1"),
        (_packed("<q", SIZES_AT, 1), r"518 bytes, where its sizes make 262$"),
        (_packed("<q", SIZES_AT + 8, -1), r"518 bytes, where its sizes make 500$"),
        (_packed("<q", SIZES_AT + 8, 0), r"518 bytes, where its sizes make 501$"),
        (_packed("<q", SIZES_AT + 24, 96), r"518 bytes, where its sizes make 614$"),
        (_packed("<q", SIZES_AT + 24, 32), r"32 bytes of image digests for 3 records \(0 or 32 per record\)$"),
        (_packed("<q", SIZES_AT + 24, -96), r"-96 bytes of image digests for 3 records \(0 or 32 per record\)$"),
        (lambda data: data.replace(b"1.pgm", b"\xff.pgm"), r"paths or labels not valid UTF-8"),
        (lambda data: data.replace(b"1.pgm\n", b"1.pgm\t"), r"2 paths and 3 labels for 3 records$"),
        (_packed("<q", BLOCK_AT["record_ids"] + 8, -1), r"record 2: record_id must lie in \[0, 2\*\*63\)"),
        (_packed("<q", BLOCK_AT["record_ids"] + 16, 0), r"record 3: duplicate record_id 0$"),
        (_packed("<q", BLOCK_AT["corner_counts"] + 8, -2**63), r"record 2: corner_count must lie in"),
        (_packed("<d", BLOCK_AT["hu"] + 56 + 48, math.nan), r"record 2: invariants must be finite"),
        (_packed("<d", BLOCK_AT["log_hu"] + 112, -math.inf), r"record 3: invariants must be finite"),
        (lambda data: data.replace(b"1.pgm", b"1\tpgm"), r"record 2: record path must not contain a tab"),
        (lambda data: data.replace(b"2.pgm", b"2.pg\r"), r"record 3: record path must not contain a tab or"),
        (lambda data: data.replace(b"a\na\na", b"a\n \na"), r"record 2: class label must be a single token"),
        (lambda data: _packed("<q", SIZES_AT + 16, 8)(data[:-5] + "a\nb\u0085c\na".encode()),  # U+0085 splits
         r"record 2: class label must be a single token: 'b\\x85c'$"),
        (_with_texts(b"\n1.pgm\n2.pgm", THREE_LABELS),
         r"record 1: record path must not contain a tab or carriage return or be empty: ''"),
        (_with_texts(b"0.pgm\n1.pgm\n", THREE_LABELS),
         r"record 3: record path must not contain a tab or carriage return or be empty: ''"),
        (_with_texts("é.pgm\n1.pgm\n\t.pgm".encode(), THREE_LABELS),
         r"record 3: record path must not contain a tab or carriage return or be empty: '\\t.pgm'"),
        (_with_texts(THREE_PATHS, b"a\na b\na"), r"record 2: class label must be a single token: 'a b'"),
        (_with_texts(THREE_PATHS, "a\na\u00a0b\na".encode()),
         r"record 2: class label must be a single token: 'a\\xa0b'"),
        (_with_texts(THREE_PATHS, b"a\na\na\x1cb"), r"record 3: class label must be a single token: 'a\\x1cb'"),
        (_with_texts(THREE_PATHS, b"a\n\na"), r"record 2: class label must be a single token: ''"),
        (_with_texts(THREE_PATHS, "é\na\na\x0b".encode()), r"record 3: class label must be a single token: 'a\\x0b'"),
        (_with_texts(THREE_PATHS, b"a\na\n\xc3"), r"paths or labels not valid UTF-8$"),
        (_with_texts("0.pgm\n1.pgm\n2.pgm\ud800".encode("utf-8", "surrogatepass"), THREE_LABELS),
         r"paths or labels not valid UTF-8$"),
        (_with_ids(-5, 0, 1), r"record 1: record_id must lie in \[0, 2\*\*63\), got -5$"),
    ], ids=["cut", "extended", "padding", "no-sizes", "n", "negative-size", "block-lengths", "digest-block-absent",
            "digest-size-one-record", "negative-digest-size", "not-utf8",
            "path-count", "negative-id", "duplicate-id", "negative-count", "nan-hu", "inf-log-hu", "tab-in-path",
            "cr-in-path", "blank-label", "two-token-label",
            "empty-first-path", "empty-last-path", "tab-after-non-ascii-path", "space-in-label", "nbsp-in-label",
            "fs-in-label", "empty-label", "vt-after-non-ascii-label", "label-cut-utf8", "path-surrogate",
            "negative-first-of-increasing-ids"])
    def test_bound_cache_breaking_its_layout_or_a_record_rule_is_an_error(self, tmp_path, scene, capsys, edit,
                                                                          message):
        # A record that breaks a rule is named by its row, and `tir query` exits 2 with the same message.
        db_file = _three_records_db(tmp_path)
        cache = _cache_file(db_file)
        cache.write_bytes(edit(cache.read_bytes()))
        with pytest.raises(IndexFormatError, match=rf"^{re.escape(str(cache))}: {message}"):
            load_index(db_file)
        save_pgm(scene, tmp_path / "q.pgm")
        assert run(["query", "--db", str(db_file), "--image", str(tmp_path / "q.pgm")]) == 2
        assert re.match(rf"tir query: error: {re.escape(str(cache))}: {message}", capsys.readouterr().err)

    def test_save_failing_after_the_text_leaves_a_stale_cache(self, tmp_path, monkeypatch):
        db_file = _three_records_db(tmp_path)
        old_cache = _cache_file(db_file).read_bytes()
        replace = os.replace

        def cache_replace_fails(src, dst):
            if str(dst).endswith(".cols"):
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", cache_replace_fails)
        records = [FeatureRecord(7, "new.pgm", "b", 5, HuVector((2.0,) * 7))]
        with pytest.raises(OSError, match="disk full"):
            save_index(FeatureDatabase(records, ExtractionConfig()), db_file)
        assert _cache_file(db_file).read_bytes() == old_cache
        assert load_index(db_file).records == tuple(records)

    def test_a_load_hashes_the_database_once_and_only_beside_a_sidecar(self, reuse_dataset, tmp_path):
        root, _ = reuse_dataset
        for name in ("db.tsv", "db.tsv.cols"):
            (tmp_path / name).write_bytes((root / name).read_bytes())
        hashes = []
        for cols in (True, False):
            if not cols:
                (tmp_path / "db.tsv.cols").unlink()
            with mock.patch.object(index.hashlib, "sha256", wraps=hashlib.sha256) as sha256:
                load_index(tmp_path / "db.tsv")
            hashes.append(sha256.call_count)
        assert hashes == [1, 0]

    @pytest.mark.parametrize("version, named", [(1, "these bytes"), (2, "other bytes")],
                             ids=["version-1", "other-bytes"])
    def test_a_cache_that_does_not_apply_is_read_no_further_than_line_1(self, reuse_dataset, tmp_path, version,
                                                                          named):
        # 8 MB past a line 1 that names these database bytes under version 1, or other bytes under version 2.
        root, _ = reuse_dataset
        db_file = tmp_path / "db.tsv"
        db_file.write_bytes((root / "db.tsv").read_bytes())
        digest = hashlib.sha256(db_file.read_bytes() if named == "these bytes" else b"other").hexdigest()
        _cache_file(db_file).write_bytes(f"TIRCOLS\t{version}\t{digest}\n".encode() + bytes(8 << 20))
        load_index(db_file)  # the first load may allocate once for its own sake
        tracemalloc.start()
        try:
            loaded = load_index(db_file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.digests is None
        assert peak < 1 << 20

    def test_truncated_cache_is_exit_code_2(self, built, tmp_path, capsys):
        root, manifest, _, out = built
        for name in (out.name, out.name + ".cols"):
            (tmp_path / name).write_bytes((out.parent / name).read_bytes())
        cache = tmp_path / (out.name + ".cols")
        cache.write_bytes(cache.read_bytes()[:-1])
        assert run(["query", "--db", str(tmp_path / out.name), "--image", str(root / manifest.entries[0][0])]) == 2
        assert capsys.readouterr().err.startswith(f"tir query: error: {cache}: ")


class TestLazyTexts:
    """A load from the column cache keeps its path, label and digest blocks as bytes and decodes them on first use.

    What the blocks decode to is what the eager tuples and the text parse
    give. Rows that the block test leaves to the row checks (ids that do not
    increase, labels that are not ASCII) load when those checks pass.
    """

    @given(record_lists(), st.booleans())
    @example(records=(), with_digests=True)
    @example(records=(FeatureRecord(5, "carré.pgm", "a", 1, HuVector((1.0,) * 7)),), with_digests=True)
    @example(records=(FeatureRecord(0, "日本/商標.pgm", "商標", 0, HuVector((2.0,) * 7)),
                      FeatureRecord(1, "x.pgm", "b", 1, HuVector((3.0,) * 7))), with_digests=False)
    @settings(max_examples=150, deadline=None)
    def test_decoded_blocks_equal_the_eager_tuples_and_the_text_parse(self, db_dir, records, with_digests):
        db = FeatureDatabase(records, ExtractionConfig())
        hexes = None
        if with_digests:
            raw = [hashlib.sha256(str(i).encode()).digest() for i in range(len(records))]
            hexes = tuple(d.hex() for d in raw)
            db = FeatureDatabase._from_columns(db.columns, db.extraction_config, b"".join(raw),
                                               paths=db.paths, labels=db.labels)
        db_file = db_dir / "lazy.tsv"
        save_index(db, db_file)
        loaded = load_index(db_file)
        assert not {"paths", "labels", "digests", "records"} & set(vars(loaded))
        rows = list(range(len(records)))[::-1]
        assert loaded.entries(rows) == [(records[r].path, records[r].class_label) for r in rows]
        assert not {"paths", "labels"} & set(vars(loaded))  # entries decodes only the rows it returns
        assert loaded.paths == db.paths == tuple(r.path for r in records)
        assert loaded.labels == db.labels == tuple(r.class_label for r in records)
        assert loaded.digests == (hexes or None)  # with no records, D = 0 reads as no digests
        _cache_file(db_file).unlink()
        parsed = load_index(db_file)
        assert (parsed.paths, parsed.labels) == (loaded.paths, loaded.labels)
        assert parsed.records == loaded.records

    def test_a_load_leaves_paths_and_labels_undecoded_until_read(self, tmp_path):
        db = load_index(_three_records_db(tmp_path))
        assert "paths" not in vars(db) and "labels" not in vars(db)
        assert db.labels == ("a", "a", "a")
        assert "paths" not in vars(db) and "labels" in vars(db)
        assert db.paths == ("0.pgm", "1.pgm", "2.pgm")
        assert "paths" in vars(db)

    def test_cli_query_decodes_only_the_rows_it_prints(self, built, capsys):
        root, manifest, _, out = built
        argv = ["query", "--db", str(out), "--image", str(root / manifest.entries[1][0])]
        assert run(argv) == 0
        printed = capsys.readouterr().out
        with mock.patch.object(index, "_split_block", side_effect=AssertionError("a block was decoded whole")):
            assert run(argv) == 0
        assert capsys.readouterr().out == printed

    def test_reuse_compares_raw_digests_without_building_hex_ones(self, reuse_dataset):
        root, entries = reuse_dataset
        db = load_index(root / "db.tsv")
        queries = build_index(Manifest(tuple(entries[:3])), root, reuse=db)
        assert "digests" not in vars(db)
        assert queries.digests == db.digests

    @pytest.mark.parametrize("ids", [(2, 0, 1), (0, 2, 1), (9, 5, 2**63 - 1)])
    def test_unsorted_unique_ids_load(self, tmp_path, ids):
        db_file = _three_records_db(tmp_path)
        cache = _cache_file(db_file)
        cache.write_bytes(_with_ids(*ids)(cache.read_bytes()))
        loaded = load_index(db_file)
        assert loaded.columns.record_ids.tolist() == list(ids)
        assert loaded.paths == ("0.pgm", "1.pgm", "2.pgm")

    def test_labels_that_are_not_ascii_load(self, tmp_path):
        db_file = _three_records_db(tmp_path)
        cache = _cache_file(db_file)
        cache.write_bytes(_with_texts(THREE_PATHS, "a\nè\nß".encode())(cache.read_bytes()))
        assert load_index(db_file).labels == ("a", "è", "ß")


class TestLoadedDatabaseBuildsNoRecords:
    """Query, the CLI query and saving read a loaded database's columns only."""

    def test_query_and_cli_query(self, built, records_made, capsys):
        root, manifest, _, out = built
        loaded = load_index(out)
        image = load_image(root / manifest.entries[1][0])
        assert query(loaded, image, k=3)[0].record_id == 1
        assert query(loaded, image, k=3, log_scale=False)
        assert run(["query", "--db", str(out), "--image", str(root / manifest.entries[1][0])]) == 0
        assert capsys.readouterr().out.split("\t")[:3] == ["1", *manifest.entries[1]]
        assert records_made == []

    def test_save_of_loaded_database_is_byte_identical(self, built, records_made, tmp_path):
        _, _, _, out = built
        save_index(load_index(out), tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == out.read_bytes()
        assert records_made == []


class TestIndexingBuildsNoRecords:
    """build_index, `tir index` and `tir eval` fill columns; FeatureRecords are made only on request."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("held", ["fresh", *sorted(TestDigestReuse.QUERIES)])
    def test_build_index(self, reuse_dataset, records_made, held, jobs):
        root, entries = reuse_dataset
        db = load_index(root / "db.tsv")
        rows = TestDigestReuse.QUERIES.get(held, range(len(entries)))
        built = build_index(Manifest(tuple(entries[i] for i in rows)), root, jobs=jobs,
                            reuse=None if held == "fresh" else db)
        assert records_made == []
        assert [r.path for r in built.records] == [entries[i][0] for i in rows]
        assert records_made == list(range(len(rows)))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("cache", [True, False])
    def test_cli_index_and_eval(self, reuse_dataset, records_made, tmp_path, capsys, cache, jobs):
        root, entries = reuse_dataset
        write_manifest(Manifest(tuple(entries)), tmp_path / "manifest.tsv")
        common = ["--manifest", str(tmp_path / "manifest.tsv"), "--root", str(root), "--jobs", jobs]
        assert run(["index", *common, "--out", str(tmp_path / "db.tsv")]) == 0
        if not cache:
            (tmp_path / "db.tsv.cols").unlink()
        assert run(["eval", *common, "--db", str(tmp_path / "db.tsv"), "--mode", "hybrid",
                    "--out", str(tmp_path / "pr.csv")]) == 0
        n = len(entries)
        assert f"reused={n if cache else 0} extracted={0 if cache else n} " in capsys.readouterr().err
        assert records_made == []


class TestQuery:
    def test_self_retrieval_ranks_first_with_zero_distance(self, built):
        root, manifest, db, _ = built
        from tir.imaging import load_image

        for rec in db.records:
            matches = query(db, load_image(root / rec.path), k=3)
            assert matches[0].record_id == rec.record_id
            assert matches[0].moment_distance == 0.0
            assert matches[0].corner_difference == 0

    def test_out_of_window_query_returns_empty(self, built):
        _, _, db, _ = built
        # A single dot has an empty edge map, so its corner count is 0 and the
        # window (0, 5) excludes every record in the shape database.
        dot = np.zeros((16, 16), dtype=np.uint8)
        dot[8, 8] = 255
        assert all(r.corner_count > 5 for r in db.records)
        assert query(db, GrayImage(dot), k=5) == []

    def test_k_caps_result_length(self, built):
        root, _, db, _ = built
        from tir.imaging import load_image

        matches = query(db, load_image(root / db.records[0].path), k=2)
        assert len(matches) <= 2

    def test_rgb_query_converts_to_gray(self, built, scene):
        _, _, db, _ = built
        rgb = RgbImage(np.stack([scene.pixels] * 3, axis=-1))
        assert query(db, rgb, k=3) == query(db, scene, k=3)

    def test_empty_database_rejected(self, scene):
        db = FeatureDatabase((), ExtractionConfig())
        with pytest.raises(ValueError, match="empty"):
            query(db, scene, k=1)

    def test_results_satisfy_corner_window(self, built):
        root, _, db, _ = built
        from tir.imaging import load_image
        from tir.index import extract_features
        from tir.matching import adaptive_threshold

        cfg = ThresholdConfig()
        image = load_image(root / db.records[1].path)
        count, _ = extract_features(image, db.extraction_config.edge, db.extraction_config.corners)
        window = adaptive_threshold(count, cfg)
        by_id = {r.record_id: r for r in db.records}
        for match in query(db, image, cfg, k=10):
            assert window.contains(by_id[match.record_id].corner_count)
