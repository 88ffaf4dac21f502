import numpy as np
import pytest

from tir.cli import _CONFIGS, build_parser, run
from tir.imaging import GrayImage, save_pgm
from tir.index import ExtractionConfig, Manifest, read_manifest, write_manifest
from tir.matching import ThresholdConfig
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


@pytest.mark.parametrize("argv, want", [
    (["index", "--manifest", "m", "--root", "r", "--out", "o"], ExtractionConfig()),
    (["query", "--db", "d", "--image", "i"], ThresholdConfig()),
    (["eval", "--db", "d", "--manifest", "m", "--root", "r", "--mode", "hybrid", "--out", "o"], ThresholdConfig()),
])
def test_option_defaults_are_the_library_defaults(argv, want):
    args = build_parser().parse_args(argv)
    assert _CONFIGS[args.command](args) == want


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

    def test_bad_angle_list_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gen-rotations", "--manifest", "m", "--root", "r", "--angles", "abc",
                 "--out-dir", "d", "--out-manifest", "o"])
        assert exc.value.code == 1

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
        entry = "manifest entry" if command == "index" else "query"
        assert err.startswith(f"tir {command}: error: {entry} {bad!r}: ")
        assert not (tmp_path / "db.tsv").exists() and not (tmp_path / "pr.csv").exists()

    def test_index_multi_token_label_exits_2_before_extraction(self, base_dataset, tmp_path, capsys, monkeypatch):
        loaded = []
        monkeypatch.setattr("tir.index.load_image", lambda path: loaded.append(path))
        save_pgm(benchmark_shapes()[0][1], tmp_path / "a.pgm")
        (tmp_path / "m.tsv").write_text(f"{base_dataset / 'tri_wide.pgm'}\ttri_wide\na.pgm\tfoo bar\n")
        code = run(["index", "--manifest", str(tmp_path / "m.tsv"), "--root", str(tmp_path),
                    "--out", str(tmp_path / "db.tsv"), "--jobs", "1"])
        assert code == 2
        assert "manifest entry 'a.pgm': class label must be a single token: 'foo bar'" in capsys.readouterr().err
        assert loaded == []
        assert not (tmp_path / "db.tsv").exists()

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

    def test_raw_moment_distance_flag_accepted(self, indexed, capsys):
        root, work = indexed
        code = run(["query", "--db", str(work / "db.tsv"),
                    "--image", str(work / "rot" / "kite_rot0.pgm"), "--raw-moment-distance"])
        assert code == 0
        assert capsys.readouterr().out
