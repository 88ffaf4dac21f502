import hashlib
import math
import os
import runpy
import struct
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from tir import cli, index
from tir.cli import build_parser, run
from tir.imaging import GrayImage, save_pgm
from tir.index import (ExtractionConfig, FeatureDatabase, Manifest, load_index, read_manifest, save_index,
                       write_manifest)
from tir.matching import ThresholdConfig, corner_filter
from tir.shapes import benchmark_shapes


@pytest.fixture(scope="module")
def base_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-root")
    entries = []
    for name, img in benchmark_shapes()[:3]:
        save_pgm(img, root / f"{name}.pgm")
        entries.append((f"{name}.pgm", name))
    write_manifest(Manifest(tuple(entries)), root / "base.tsv")
    return root


@pytest.fixture(scope="module")
def indexed(base_dataset, tmp_path_factory):
    root = base_dataset
    work = tmp_path_factory.mktemp("cli-work")
    code = run([
        "gen-rotations", "--manifest", str(root / "base.tsv"), "--root", str(root),
        "--angles", "0,60,120", "--out-dir", str(work / "rot"),
        "--out-manifest", str(work / "rot.tsv"),
    ])
    assert code == 0
    code = run([
        "index", "--manifest", str(work / "rot.tsv"), "--root", str(work / "rot"),
        "--out", str(work / "db.tsv"), "--jobs", "1",
    ])
    assert code == 0
    return root, work


def _argv_on_edited_db(indexed, tmp_path, field, token, command):
    """`command` argv against a copy of the indexed DB whose second record has `token` in `field`."""
    root, work = indexed
    lines = (work / "db.tsv").read_text().splitlines()
    parts = lines[3].split("\t")
    parts[field] = token
    lines[3] = "\t".join(parts)
    db = tmp_path / "db.tsv"
    db.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if command == "query":
        return ["query", "--db", str(db), "--image", str(work / "rot" / "kite_rot0.pgm")]
    return ["eval", "--db", str(db), "--manifest", str(work / "rot.tsv"), "--root", str(work / "rot"),
            "--mode", "hybrid", "--out", str(tmp_path / "pr.csv")]


def _previous_format_sidecars(db_file):
    """The column cache (version 1, without digests) and the image-digests sidecar that the previous format
    wrote beside `db_file`, both bound to its bytes, made from the cache (version 2) beside it."""
    cache = db_file.with_name(db_file.name + ".cols").read_bytes()
    assert cache.startswith(b"TIRCOLS\t2\t") and cache[75:80] == bytes(5)
    n, paths_size, labels_size, digests_size = struct.unpack_from("<4q", cache, 80)
    blocks_end = 112 + n * (8 + 8 + 56 + 56)
    digests = cache[blocks_end:blocks_end + digests_size].hex(" ", 32).split(" ")
    db_sha256 = hashlib.sha256(db_file.read_bytes()).hexdigest()
    ids = struct.unpack_from(f"<{n}q", cache, 112)
    return {
        f"{db_file.name}.cols": b"TIRCOLS\t1\t" + cache[10:80] + struct.pack("<3q", n, paths_size, labels_size)
                                + cache[112:blocks_end] + cache[blocks_end + digests_size:],
        f"{db_file.name}.digests": "".join([f"TIRDIGESTS\t1\t{db_sha256}\n",
                                            *map("{}\t{}\n".format, ids, digests)]).encode(),
    }


@pytest.mark.parametrize("argv, want", [
    (["index", "--manifest", "m", "--root", "r", "--out", "o"], ExtractionConfig()),
    (["query", "--db", "d", "--image", "i"], ThresholdConfig()),
    (["eval", "--db", "d", "--manifest", "m", "--root", "r", "--mode", "hybrid", "--out", "o"], ThresholdConfig()),
])
def test_option_defaults_are_the_library_defaults(argv, want):
    args = build_parser().parse_args(argv)
    assert args.settings(args) == want


_REQUIRED = {
    "index": ["--manifest", "m", "--root", "r", "--out", "o"],
    "query": ["--db", "d", "--image", "i"],
    "eval": ["--db", "d", "--manifest", "m", "--root", "r", "--mode", "hybrid", "--out", "o"],
}


@pytest.mark.parametrize("command, option, text, part, field, value", [
    ("index", "--edge-threshold", "40", "edge", "threshold", 40),
    ("index", "--harris-kappa", "0.05", "corners", "kappa", 0.05),
    ("index", "--harris-sigma", "2.5", "corners", "window_sigma", 2.5),
    ("index", "--harris-window", "3", "corners", "window_radius", 3),
    ("index", "--peak-threshold", "0.2", "corners", "peak_rel_threshold", 0.2),
    ("index", "--nms-radius", "4", "corners", "nms_radius", 4),
    *[(command, option, text, None, field, value)
      for command in ("query", "eval")
      for option, text, field, value in [("--band-width", "7", "band_width", 7),
                                         ("--base-threshold", "3.5", "base_threshold", 3.5),
                                         ("--multiplier", "2.5", "multiplier", 2.5)]],
])
def test_each_option_reaches_its_field(command, option, text, part, field, value):
    args = build_parser().parse_args([command, *_REQUIRED[command], option, text])
    default = ExtractionConfig() if command == "index" else ThresholdConfig()
    if part is None:
        want = replace(default, **{field: value})
    else:
        want = replace(default, **{part: replace(getattr(default, part), **{field: value})})
    assert want != default
    assert args.settings(args) == want


class TestUsageErrors:
    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["query", "--image", "x.pgm"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "--db" in err

    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["query", "--db", "d", "--image", "i", "--bogus"])
        assert exc.value.code == 1

    def test_bad_mode_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--db", "d", "--manifest", "m", "--root", "r",
                 "--mode", "psychic", "--out", "o"])
        assert exc.value.code == 1

    def test_long_bad_mode_is_named_by_its_start_and_length(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["eval", *_REQUIRED["eval"], "--mode", "x" * 300])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(f"argument --mode: invalid choice: {'x' * 20!r}... (300 characters)\n")

    def test_bad_angle_list_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gen-rotations", "--manifest", "m", "--root", "r", "--angles", "abc",
                 "--out-dir", "d", "--out-manifest", "o"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --angles: expected a comma-separated list" in err and "_angle_list" not in err

    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_non_integer_top_names_the_option(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([command, *_REQUIRED[command], "--top", "x"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --top: expected an integer >= 1, got 'x'" in err and "_positive_int" not in err

    @pytest.mark.parametrize("text", ["1_0", " 7 ", "+5", "\u0663"])
    @pytest.mark.parametrize("command, option", [("index", "--jobs"), ("query", "--top"),
                                                 ("eval", "--top"), ("eval", "--jobs")])
    def test_integer_option_takes_ascii_digits_only(self, capsys, command, option, text):
        # int() reads each of these spellings (as 10, 7, 5 and 3).
        with pytest.raises(SystemExit) as exc:
            run([command, *_REQUIRED[command], option, text])
        assert exc.value.code == 1
        assert f"argument {option}: expected an integer >= 1, got {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option, text, kind", [
        ("query", "--top", "9" * 5000, "an integer >= 1"), ("eval", "--top", "9" * 5000, "an integer >= 1"),
        ("index", "--jobs", "9" * 5000, "an integer >= 1"), ("eval", "--jobs", "9" * 5000, "an integer >= 1"),
        ("index", "--nms-radius", "9" * 5000, "an integer"), ("index", "--edge-threshold", "9" * 5000, "an integer"),
        ("index", "--edge-threshold", "-" + "9" * 5000, "an integer"),
        ("query", "--band-width", "9" * 5000, "an integer"),
    ], ids=lambda value: f"{len(value)}-char" if len(value) > 100 else None)
    def test_integer_of_thousands_of_digits_names_the_option(self, capsys, command, option, text, kind):
        # int() refuses more than 4300 digits, and argparse would then name the type function and echo them all.
        with pytest.raises(SystemExit) as exc:
            run([command, *_REQUIRED[command], option, text])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument {option}: expected {kind} of at most 18 digits, got 5000 digits" in err
        assert "_positive_int" not in err and "_integer" not in err and "9" * 19 not in err

    @pytest.mark.parametrize("command, option, text, kind", [
        ("query", "--top", "-" + "9" * 5000, "an integer >= 1"), ("index", "--nms-radius", "x" * 5000, "an integer"),
        ("eval", "--multiplier", "x" * 5000, "a real number"),
    ], ids=lambda value: f"{len(value)}-char" if len(value) > 100 else None)
    def test_long_malformed_value_is_echoed_by_its_start_and_length(self, capsys, command, option, text, kind):
        with pytest.raises(SystemExit) as exc:
            run([command, *_REQUIRED[command], option, text])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument {option}: expected {kind}, got {text[:20]!r}... ({len(text)} characters)\n" in err

    @pytest.mark.parametrize("option, field", [("--top", "top"), ("--band-width", "band_width")])
    def test_integer_option_takes_up_to_18_digits(self, capsys, option, field):
        args = build_parser().parse_args(["query", *_REQUIRED["query"], option, "9" * 18])
        assert getattr(args, field) == 10**18 - 1
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["query", *_REQUIRED["query"], option, "1" + "0" * 18])
        assert exc.value.code == 1
        assert f"argument {option}: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1_0", "\u0663", " 7 "])
    @pytest.mark.parametrize("command, option, kind", [
        ("index", "--edge-threshold", "an integer"), ("index", "--harris-window", "an integer"),
        ("index", "--nms-radius", "an integer"), ("index", "--harris-kappa", "a real number"),
        ("index", "--harris-sigma", "a real number"), ("index", "--peak-threshold", "a real number"),
        ("query", "--band-width", "an integer"), ("query", "--base-threshold", "a real number"),
        ("eval", "--multiplier", "a real number"),
    ])
    def test_numeric_option_takes_plain_ascii_only(self, capsys, command, option, kind, text):
        # int() and float() read each of these spellings (as 10, 3 and 7).
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, *_REQUIRED[command], option, text])
        assert exc.value.code == 1
        assert f"argument {option}: expected {kind}, got {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, angles", [("1_0", None), ("\u0663", None), ("0,1_0", None),
                                              (" 7 ", [7.0]), ("0, 60 ,-7.5", [0.0, 60.0, -7.5])])
    def test_angle_list_takes_plain_ascii_tokens_only(self, capsys, text, angles):
        argv = ["gen-rotations", "--manifest", "m", "--root", "r", "--angles", text, "--out-dir", "d",
                "--out-manifest", "o"]
        if angles is not None:  # a token may be padded, as in "0, 60"
            assert build_parser().parse_args(argv).angles == angles
            return
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 1
        assert "argument --angles: expected a comma-separated list" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option, text, field, value", [
        ("index", "--edge-threshold", "-3", "threshold", -3),
        ("index", "--harris-kappa", "4e-2", "kappa", 0.04),
        ("query", "--base-threshold", "+nan", "base_threshold", math.nan),
        ("eval", "--multiplier", "inf", "multiplier", math.inf),
    ])
    def test_numeric_option_leaves_the_range_to_the_settings(self, command, option, text, field, value):
        got = getattr(build_parser().parse_args([command, *_REQUIRED[command], option, text]), field)
        assert got == value or math.isnan(got) and math.isnan(value)

    @pytest.mark.parametrize("angles", ["nan", "0,inf"])
    def test_non_finite_angle_exits_1(self, capsys, angles):
        with pytest.raises(SystemExit) as exc:
            run(["gen-rotations", "--manifest", "m", "--root", "r", "--angles", angles,
                 "--out-dir", "d", "--out-manifest", "o"])
        assert exc.value.code == 1
        assert "finite angles" in capsys.readouterr().err

    def test_no_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 1


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["index", "--harris-kappa", "0.5"], "kappa must lie in"),
            (["index", "--edge-threshold", "300"], "threshold must be an integer in [0, 255]"),
            (["index", "--nms-radius", "0"], "nms_radius must be an integer >= 1"),
            (["query", "--band-width", "0"], "band_width must be an integer >= 1"),
            (["query", "--base-threshold", "nan"], "base_threshold must be positive"),
            (["eval", "--multiplier", "1"], "multiplier must exceed 1"),
            # A value the database could not store back, or one that gives NaN Gaussian weights.
            (["index", "--harris-sigma", "inf"], "window_sigma must be finite with finite Gaussian weights"),
            (["index", "--harris-sigma", "1e-200"], "window_sigma must be finite with finite Gaussian weights"),
        ],
    )
    def test_invalid_option_value_exits_1(self, tmp_path, capsys, argv, message):
        # The settings are checked before any file is read, so none need exist.
        files = {
            "index": ["--manifest", "m.tsv", "--root", ".", "--out", str(tmp_path / "db.tsv")],
            "query": ["--db", "db.tsv", "--image", "q.pgm"],
            "eval": ["--db", "db.tsv", "--manifest", "m.tsv", "--root", ".", "--mode", "hybrid",
                     "--out", str(tmp_path / "pr.csv")],
        }[argv[0]]
        with pytest.raises(SystemExit) as exc:
            run(argv + files)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and f"error: {argv[0]}: " in err and message in err
        assert list(tmp_path.iterdir()) == []


class TestDataErrors:
    def test_query_missing_db_exits_2(self, tmp_path, capsys):
        code = run(["query", "--db", str(tmp_path / "none.tsv"), "--image", "x.pgm"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_index_missing_image_exits_2(self, tmp_path, capsys):
        write_manifest(Manifest((("ghost.pgm", "g"),)), tmp_path / "m.tsv")
        code = run(["index", "--manifest", str(tmp_path / "m.tsv"), "--root", str(tmp_path),
                    "--out", str(tmp_path / "db.tsv")])
        assert code == 2
        assert "ghost.pgm" in capsys.readouterr().err

    def test_index_empty_manifest_path_names_its_line(self, tmp_path, capsys):
        (tmp_path / "m.tsv").write_text("a.pgm\tx\n\tx\n")
        code = run(["index", "--manifest", str(tmp_path / "m.tsv"), "--root", str(tmp_path),
                    "--out", str(tmp_path / "db.tsv")])
        assert code == 2
        assert f"{tmp_path / 'm.tsv'}: line 2: manifest path must be non-empty" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["missing.pgm", "blank.pgm"])
    @pytest.mark.parametrize("command", ["index", "eval"])
    def test_two_jobs_report_a_bad_image_like_one(self, indexed, tmp_path, capsys, command, bad):
        root, work = indexed
        save_pgm(GrayImage(np.zeros((8, 8), dtype=np.uint8)), tmp_path / "blank.pgm")
        good = [(str(work / "rot" / p), c) for p, c in read_manifest(work / "rot.tsv").entries[:3]]
        write_manifest(Manifest((good[0], (bad, "x"), *good[1:])), tmp_path / "m.tsv")
        argv = [command, "--manifest", str(tmp_path / "m.tsv"), "--root", str(tmp_path)]
        if command == "index":
            argv += ["--out", str(tmp_path / "db.tsv")]
        else:
            argv += ["--db", str(work / "db.tsv"), "--mode", "hybrid", "--out", str(tmp_path / "pr.csv")]
        results = []
        for jobs in ("1", "2"):
            code = run([*argv, "--jobs", jobs])
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        code, err = results[0]
        assert code == 2
        assert err.startswith(f"tir {command}: error: manifest entry {bad!r}: ")
        assert not (tmp_path / "db.tsv").exists() and not (tmp_path / "pr.csv").exists()

    def test_index_multi_token_label_exits_2_before_extraction(self, base_dataset, tmp_path, capsys, monkeypatch):
        loaded = []
        monkeypatch.setattr("tir.index._read_image_file", lambda path: loaded.append(path))
        save_pgm(benchmark_shapes()[0][1], tmp_path / "a.pgm")
        (tmp_path / "m.tsv").write_text(f"{base_dataset / 'tri_wide.pgm'}\ttri_wide\na.pgm\tfoo bar\n")
        code = run(["index", "--manifest", str(tmp_path / "m.tsv"), "--root", str(tmp_path),
                    "--out", str(tmp_path / "db.tsv"), "--jobs", "1"])
        assert code == 2
        assert "manifest entry 'a.pgm': class label must be a single token: 'foo bar'" in capsys.readouterr().err
        assert loaded == []
        assert not (tmp_path / "db.tsv").exists()

    def test_eval_multi_token_label_exits_2_before_extraction(self, indexed, tmp_path, capsys, monkeypatch):
        root, work = indexed
        loaded = []
        monkeypatch.setattr("tir.index._read_image_file", lambda path: loaded.append(path))
        (tmp_path / "m.tsv").write_text("kite_rot0.pgm\tkite\nkite_rot60.pgm\tfoo bar\n")
        code = run(["eval", "--db", str(work / "db.tsv"), "--manifest", str(tmp_path / "m.tsv"),
                    "--root", str(work / "rot"), "--mode", "hybrid", "--out", str(tmp_path / "pr.csv")])
        assert code == 2
        assert "manifest entry 'kite_rot60.pgm': class label must be a single token: 'foo bar'" in capsys.readouterr().err
        assert loaded == []
        assert not (tmp_path / "pr.csv").exists()

    def test_query_bad_database_version_exits_2(self, tmp_path, base_dataset, capsys):
        (tmp_path / "db.tsv").write_text("TIRDB\t9\n")
        code = run(["query", "--db", str(tmp_path / "db.tsv"),
                    "--image", str(base_dataset / "tri_wide.pgm")])
        assert code == 2
        assert "version" in capsys.readouterr().err

    def test_query_oversized_ascii_sample_exits_2(self, indexed, tmp_path, capsys):
        root, work = indexed
        image = tmp_path / "huge.pgm"
        image.write_bytes(b"P2\n2 1\n255\n99999999999999999999999 0\n")
        code = run(["query", "--db", str(work / "db.tsv"), "--image", str(image)])
        assert code == 2
        assert "maxval" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [0, 3])  # record_id, corner_count
    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_out_of_range_database_integer_exits_2(self, indexed, tmp_path, capsys, field, command):
        code = run(_argv_on_edited_db(indexed, tmp_path, field, "100000000000000000000", command))
        assert code == 2
        captured = capsys.readouterr()
        assert "line 4" in captured.err and "2**63" in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_crlf_database_exits_2(self, indexed, tmp_path, capsys, command):
        argv = _argv_on_edited_db(indexed, tmp_path, 0, "1", command)
        # Overwrite the edited copy with the indexed DB in CRLF line endings.
        (tmp_path / "db.tsv").write_bytes((indexed[1] / "db.tsv").read_bytes().replace(b"\n", b"\r\n"))
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert "line 1: carriage return" in captured.err and "version" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("field, token", [(0, "1_0"), (3, "\u0663"), (3, "+5"), (6, "1_0.5")])
    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_non_canonical_database_number_exits_2(self, indexed, tmp_path, capsys, field, token, command):
        assert run(_argv_on_edited_db(indexed, tmp_path, field, token, command)) == 2
        captured = capsys.readouterr()
        assert "line 4" in captured.err and repr(token) in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_non_utf8_database_exits_2(self, indexed, tmp_path, capsys, command):
        argv = _argv_on_edited_db(indexed, tmp_path, 1, "x.pgm", command)
        db = tmp_path / "db.tsv"
        db.write_bytes(db.read_bytes().replace(b"x.pgm", b"\xff.pgm"))
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert f"{db}: line 4: not valid UTF-8" in captured.err
        assert captured.out == ""

    def test_eval_cache_with_a_bad_digest_size_exits_2_naming_it(self, indexed, tmp_path, capsys):
        root, work = indexed
        (tmp_path / "db.tsv").write_bytes((work / "db.tsv").read_bytes())
        data = (work / "db.tsv.cols").read_bytes()
        (tmp_path / "db.tsv.cols").write_bytes(data[:104] + struct.pack("<q", 32) + data[112:])  # D, not 9 * 32
        code = run(["eval", "--db", str(tmp_path / "db.tsv"), "--manifest", str(work / "rot.tsv"),
                    "--root", str(work / "rot"), "--mode", "hybrid", "--out", str(tmp_path / "pr.csv")])
        assert code == 2
        assert capsys.readouterr().err == (f"tir eval: error: {tmp_path / 'db.tsv.cols'}: 32 bytes of image digests"
                                           f" for 9 records (0 or 32 per record)\n")
        assert not (tmp_path / "pr.csv").exists()

    def test_eval_ignores_a_cache_of_another_version(self, indexed, tmp_path, capsys):
        # Line 1 names these database bytes but version 1: the queries are extracted, and the CSV is the same.
        root, work = indexed
        argv = ["eval", "--manifest", str(work / "rot.tsv"), "--root", str(work / "rot"), "--mode", "hybrid"]
        assert run([*argv, "--db", str(work / "db.tsv"), "--out", str(tmp_path / "held.csv")]) == 0
        assert " reused=9 extracted=0 " in capsys.readouterr().err
        (tmp_path / "db.tsv").write_bytes((work / "db.tsv").read_bytes())
        cache = (work / "db.tsv.cols").read_bytes()
        assert cache.startswith(b"TIRCOLS\t2\t")
        (tmp_path / "db.tsv.cols").write_bytes(cache.replace(b"\t2\t", b"\t1\t", 1))
        assert run([*argv, "--db", str(tmp_path / "db.tsv"), "--out", str(tmp_path / "other.csv")]) == 0
        assert " reused=0 extracted=9 " in capsys.readouterr().err
        assert (tmp_path / "other.csv").read_bytes() == (tmp_path / "held.csv").read_bytes()

    def test_eval_ignores_the_previous_formats_cache_and_digests_sidecar(self, indexed, tmp_path, capsys):
        # Version 1 kept the image digests in a second sidecar, `<db>.digests`. Both of its files are bound to
        # these database bytes, neither applies, and neither is touched: the record lines are parsed.
        root, work = indexed
        argv = ["eval", "--manifest", str(work / "rot.tsv"), "--root", str(work / "rot"), "--mode", "hybrid"]
        assert run([*argv, "--db", str(work / "db.tsv"), "--out", str(tmp_path / "held.csv")]) == 0
        capsys.readouterr()
        db_file = tmp_path / "db.tsv"
        db_file.write_bytes((work / "db.tsv").read_bytes())
        old = _previous_format_sidecars(work / "db.tsv")
        for name, data in old.items():
            (tmp_path / name).write_bytes(data)
        with mock.patch.object(index, "_cached_columns", side_effect=AssertionError("the cache was read")):
            loaded = load_index(db_file)
        assert loaded.digests is None
        assert loaded.records == load_index(work / "db.tsv").records
        assert run([*argv, "--db", str(db_file), "--out", str(tmp_path / "other.csv")]) == 0
        assert " reused=0 extracted=9 " in capsys.readouterr().err
        assert (tmp_path / "other.csv").read_bytes() == (tmp_path / "held.csv").read_bytes()
        assert {name: (tmp_path / name).read_bytes() for name in old} == old

    def test_index_over_the_previous_format_writes_a_cache_that_carries_the_digests(self, indexed, tmp_path):
        # tir index writes the database and its column cache only; an old `<db>.digests` stays as it was.
        root, work = indexed
        old = _previous_format_sidecars(work / "db.tsv")
        for name, data in old.items():
            (tmp_path / name).write_bytes(data)
        assert run(["index", "--manifest", str(work / "rot.tsv"), "--root", str(work / "rot"),
                    "--out", str(tmp_path / "db.tsv"), "--jobs", "1"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db.tsv", "db.tsv.cols", "db.tsv.digests"]
        for name in ("db.tsv", "db.tsv.cols"):
            assert (tmp_path / name).read_bytes() == (work / name).read_bytes()
        assert (tmp_path / "db.tsv.digests").read_bytes() == old["db.tsv.digests"]
        digests = load_index(tmp_path / "db.tsv").digests
        assert digests is not None and digests == load_index(work / "db.tsv").digests

    def test_eval_non_utf8_manifest_exits_2(self, indexed, tmp_path, capsys):
        root, work = indexed
        manifest = tmp_path / "m.tsv"
        manifest.write_bytes(b"kite_rot0.pgm\tkite\nkite\xff_rot60.pgm\tkite\n")
        code = run(["eval", "--db", str(work / "db.tsv"), "--manifest", str(manifest), "--root", str(work / "rot"),
                    "--mode", "hybrid", "--out", str(tmp_path / "pr.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert f"{manifest}: line 2: not valid UTF-8" in captured.err
        assert captured.out == ""


class TestGenRotations:
    def test_single_angle_writes_one_file_per_image(self, base_dataset, tmp_path, capsys):
        code = run([
            "gen-rotations", "--manifest", str(base_dataset / "base.tsv"),
            "--root", str(base_dataset), "--angles", "0",
            "--out-dir", str(tmp_path / "out"), "--out-manifest", str(tmp_path / "m.tsv"),
        ])
        assert code == 0
        assert len(list((tmp_path / "out").glob("*.pgm"))) == 3
        assert capsys.readouterr().out == ""

    def test_missing_second_base_image_writes_nothing(self, base_dataset, tmp_path, capsys):
        # Every base image is read before the first write, so the first entry's rotations are not left behind.
        (tmp_path / "m.tsv").write_text(f"{base_dataset / 'tri_wide.pgm'}\ttri_wide\ngone.pgm\tgone\n")
        code = run(["gen-rotations", "--manifest", str(tmp_path / "m.tsv"), "--root", str(tmp_path),
                    "--angles", "0,90", "--out-dir", str(tmp_path / "out"),
                    "--out-manifest", str(tmp_path / "rot.tsv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("tir gen-rotations: error: base image 'gone.pgm': ")
        assert list(tmp_path.rglob("*_rot*.pgm")) == []
        assert not (tmp_path / "rot.tsv").exists()


class TestPipeline:
    def test_query_self_retrieval_and_output_format(self, indexed, capsys):
        root, work = indexed
        query_file = work / "rot" / "tri_wide_rot60.pgm"
        code = run(["query", "--db", str(work / "db.tsv"), "--image", str(query_file), "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines, "query must print results"
        first = lines[0].split("\t")
        assert first[0] == "1"
        assert first[1] == "tri_wide_rot60.pgm"
        assert first[2] == "tri_wide"
        assert first[3] == "0"
        assert float(first[4]) == 0.0
        for rank, line in enumerate(lines, start=1):
            assert line.split("\t")[0] == str(rank)

    def test_identical_queries_have_identical_stdout(self, indexed, capsys):
        root, work = indexed
        args = ["query", "--db", str(work / "db.tsv"),
                "--image", str(work / "rot" / "kite_rot0.pgm")]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_index_stdout_is_empty(self, indexed, tmp_path, capsys):
        root, work = indexed
        code = run(["index", "--manifest", str(work / "rot.tsv"), "--root", str(work / "rot"),
                    "--out", str(tmp_path / "db.tsv")])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "indexed" in captured.err

    def test_eval_writes_csv_and_keeps_stdout_clean(self, indexed, tmp_path, capsys):
        root, work = indexed
        code = run(["eval", "--db", str(work / "db.tsv"), "--manifest", str(work / "rot.tsv"),
                    "--root", str(work / "rot"), "--mode", "hybrid",
                    "--out", str(tmp_path / "pr.csv"), "--top", "3"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = (tmp_path / "pr.csv").read_text().splitlines()
        assert lines[0] == "query_path,class,mode,precision,recall"
        assert lines[-1].startswith("MEAN,,hybrid,")

    def test_eval_reuses_the_indexed_features_of_held_queries(self, indexed, tmp_path, capsys):
        # The same CSV whether the queries' features come from the column cache or from extraction.
        root, work = indexed
        (tmp_path / "db.tsv").write_bytes((work / "db.tsv").read_bytes())  # no column cache beside it
        held = read_manifest(work / "rot.tsv").entries
        save_pgm(benchmark_shapes()[3][1], tmp_path / "new.pgm")  # an image the database does not hold
        write_manifest(Manifest((*held[:2], (str(tmp_path / "new.pgm"), held[0][1]))), tmp_path / "q.tsv")
        runs = []
        for db, manifest in ((work / "db.tsv", work / "rot.tsv"), (tmp_path / "db.tsv", work / "rot.tsv"),
                             (work / "db.tsv", tmp_path / "q.tsv"), (tmp_path / "db.tsv", tmp_path / "q.tsv")):
            for jobs in ("1", "2"):
                out = tmp_path / f"pr{len(runs)}.csv"
                assert run(["eval", "--db", str(db), "--manifest", str(manifest), "--root", str(work / "rot"),
                            "--mode", "hybrid", "--out", str(out), "--jobs", jobs]) == 0
                captured = capsys.readouterr()
                assert captured.out == ""
                runs.append((out.read_bytes(), captured.err.splitlines()[-1].split(" mean_precision")[0]))
        n = len(held)
        assert [err for _, err in runs] == [
            *[f"mode=hybrid queries={n} reused={n} extracted=0"] * 2,
            *[f"mode=hybrid queries={n} reused=0 extracted={n}"] * 2,
            *["mode=hybrid queries=3 reused=2 extracted=1"] * 2,
            *["mode=hybrid queries=3 reused=0 extracted=3"] * 2,
        ]
        assert len({csv for csv, _ in runs[:4]}) == 1 and len({csv for csv, _ in runs[4:]}) == 1

    def test_eval_counts_reused_queries_without_building_hex_digests(self, indexed, tmp_path, capsys):
        root, work = indexed
        made = []

        def kept(make):
            def wrapper(*args, **kwargs):
                made.append(make(*args, **kwargs))
                return made[-1]
            return wrapper

        with (mock.patch.object(cli, "load_index", kept(load_index)),
              mock.patch.object(cli, "build_index", kept(index.build_index))):
            assert run(["eval", "--db", str(work / "db.tsv"), "--manifest", str(work / "rot.tsv"),
                        "--root", str(work / "rot"), "--mode", "hybrid", "--out", str(tmp_path / "pr.csv")]) == 0
        assert " reused=9 extracted=0 " in capsys.readouterr().err
        db, queries = made
        assert db._digest_block is not None and queries._digest_block is not None
        assert "digests" not in vars(db) and "digests" not in vars(queries)  # the cached_property never ran
        assert "_digest_rows" in vars(db)  # the map build_index looked the queries up in

    def test_eval_counts_as_reused_only_what_the_digest_pass_took(self, indexed, tmp_path, capsys, monkeypatch):
        # The pass cannot open one held query, so its worker extracts it: it counts as extracted, and the
        # CSV is the same.
        root, work = indexed
        held = read_manifest(work / "rot.tsv").entries
        argv = ["eval", "--db", str(work / "db.tsv"), "--manifest", str(work / "rot.tsv"), "--root", str(work / "rot"),
                "--mode", "hybrid", "--jobs", "1"]
        assert run([*argv, "--out", str(tmp_path / "held.csv")]) == 0
        capsys.readouterr()
        file_digest = index._file_digest

        def unopened(name):
            if os.path.basename(name) == held[0][0]:
                raise PermissionError("the pass cannot open it")
            return file_digest(name)

        monkeypatch.setattr(index, "_file_digest", unopened)
        assert run([*argv, "--out", str(tmp_path / "pr.csv")]) == 0
        assert f" reused={len(held) - 1} extracted=1 " in capsys.readouterr().err
        assert (tmp_path / "pr.csv").read_bytes() == (tmp_path / "held.csv").read_bytes()

    @pytest.mark.parametrize("cache", ["with digests", "without digests", "absent"])
    def test_eval_says_when_the_database_carries_no_digests(self, indexed, tmp_path, capsys, cache):
        # One stderr line before the extraction; stdout, the CSV and the summary line are as without it.
        root, work = indexed
        db_file = tmp_path / "db.tsv"
        db_file.write_bytes((work / "db.tsv").read_bytes())
        if cache == "with digests":
            (tmp_path / "db.tsv.cols").write_bytes((work / "db.tsv.cols").read_bytes())
        elif cache == "without digests":  # a database made from records has none
            db = load_index(work / "db.tsv")
            save_index(FeatureDatabase(db.records, db.extraction_config), db_file)
            assert db_file.read_bytes() == (work / "db.tsv").read_bytes()
        argv = ["eval", "--manifest", str(work / "rot.tsv"), "--root", str(work / "rot"), "--mode", "hybrid"]
        assert run([*argv, "--db", str(work / "db.tsv"), "--out", str(tmp_path / "held.csv")]) == 0
        held = capsys.readouterr().err.splitlines()[-1].replace("reused=9 extracted=0", "reused=0 extracted=9")
        assert run([*argv, "--db", str(db_file), "--out", str(tmp_path / "pr.csv")]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        if cache == "with digests":
            assert " reused=9 extracted=0 " in captured.err and len(captured.err.splitlines()) == 1
        else:
            assert captured.err.splitlines() == [
                f"tir eval: {db_file} carries no image digests, so every query is extracted", held]
        assert (tmp_path / "pr.csv").read_bytes() == (tmp_path / "held.csv").read_bytes()

    @pytest.mark.parametrize("mode", ["corner", "moments", "hybrid"])
    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_eval_reports_the_mean_survivor_count(self, indexed, tmp_path, capsys, mode, exclude_self):
        # The mean number of rows a query ranked, out of the database's: its window's rows (every row in
        # moments mode), less its own record under --exclude-self. Every query here is a record.
        root, work = indexed
        db = load_index(work / "db.tsv")
        counts = db.columns.corner_counts
        ranked = [len(counts) if mode == "moments" else len(corner_filter(count, db.columns)) for count in counts]
        want = sum(ranked) / len(ranked) - exclude_self
        argv = ["eval", "--db", str(work / "db.tsv"), "--manifest", str(work / "rot.tsv"), "--root", str(work / "rot"),
                "--mode", mode, "--out", str(tmp_path / "pr.csv")]
        assert run(argv + ["--exclude-self"] * exclude_self) == 0
        fields = capsys.readouterr().err.split()
        assert fields[-2].startswith("mean_recall=") and fields[-1] == f"survivors={want:g}/{len(counts)}"

    def test_raw_moment_distance_flag_accepted(self, indexed, capsys):
        root, work = indexed
        code = run(["query", "--db", str(work / "db.tsv"),
                    "--image", str(work / "rot" / "kite_rot0.pgm"), "--raw-moment-distance"])
        assert code == 0
        assert capsys.readouterr().out


class TestBenchmarkScriptOptions:
    """scripts/run_benchmark.py parses its options with the CLI's types, before any work."""

    @pytest.fixture(scope="class")
    def script_main(self):
        return runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "run_benchmark.py"))["main"]

    @pytest.mark.parametrize("argv, message", [
        (["--k", "0"], "argument --k: must be >= 1, got 0"),
        (["--k", "1_0"], "argument --k: expected an integer >= 1, got '1_0'"),
        (["--jobs", "0"], "argument --jobs: must be >= 1, got 0"),
        (["--angles", "nan"], "argument --angles: expected a comma-separated list of finite angles"),
        (["--k", "9" * 5000], "argument --k: expected an integer >= 1 of at most 18 digits, got 5000 digits"),
    ], ids=lambda value: f"{len(value[1])}-char" if isinstance(value, list) and len(value[1]) > 100 else None)
    def test_bad_option_is_a_usage_error(self, script_main, monkeypatch, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        monkeypatch.setattr("sys.argv", ["run_benchmark.py", "--out-dir", str(out), *argv])
        with pytest.raises(SystemExit) as exc:
            script_main()
        assert exc.value.code == 1  # a usage error, as in tir; 2 is for data errors
        err = capsys.readouterr().err
        assert message in err and "_positive_int" not in err
        assert not out.exists()
