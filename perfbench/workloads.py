"""The three benchmark workloads.

Each workload reads the inputs that inputs.py wrote into its work directory
and offers:

- `setup()`: one set-up, timed by run.py `setup_reps` times, one before
  every `setup_every`-th operation;
- `op(i)`: the i-th timed operation; a round is `inputs` operations;
- `check(i, result)`: output problems of that operation, run untimed;
- `digests()`: sha256 of outputs that must repeat for the same code and seed;
- `aliases`: the workload's own names for end-to-end metrics it prints;
- `report(latencies_ms)`: printed-only metrics under the workload's own names;
- `speedup_batch()` (index-512 and eval-rotated only): a manifest and root
  for timing `build_index` by jobs.

Every call into tir goes through a module attribute (`cli.run`,
`index.load_index`, `index.query`, `imaging.load_image`), so the traced run
sees it.
"""

from __future__ import annotations

import hashlib
import io
import statistics
import subprocess
import sys
from contextlib import redirect_stderr
from functools import cached_property
from pathlib import Path

import numpy as np

from inputs import QUERY_DB_RECORDS
from tir import cli, imaging, index
from tir.matching import ThresholdConfig, adaptive_threshold, log_magnitude

SRC = Path(__file__).resolve().parents[1] / "src"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(*argv: str) -> None:
    """`tir.cli.run` with the diagnostics it writes to stderr kept out of the output."""
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.run(list(argv))
    if code != 0:
        raise RuntimeError(f"tir {argv[0]} exited {code}: {err.getvalue().strip()}")


class Index512:
    """Offline indexing of 512-px polygons: one `tir index` over all of them, CLI defaults."""

    name = "index-512"
    inputs = 1
    setup_reps = 9
    setup_every = 4
    aliases: dict[str, str] = {}

    def __init__(self, work: Path):
        self.work = work
        self.manifest_file = work / "manifest.tsv"
        self.manifest = index.read_manifest(self.manifest_file)
        self.db_file = work / "db.tsv"
        self.db_digest: str | None = None

    def setup(self) -> None:
        # Cold start: what a fresh `tir` process pays before its first image.
        # No timeout: waiting with one polls in steps of up to 50 ms.
        code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import tir.cli"
        subprocess.run([sys.executable, "-c", code], check=True)

    def op(self, i: int) -> None:
        run_cli("index", "--manifest", str(self.manifest_file), "--root", str(self.work / "img"),
                "--out", str(self.db_file))

    def check(self, i: int, result) -> list[str]:
        problems = []
        digest = sha256(self.db_file)
        if self.db_digest is None:
            self.db_digest = digest
        elif digest != self.db_digest:
            problems.append("database bytes differ between operations")
        db = index.load_index(self.db_file)
        want = self.manifest.entries
        if [(r.path, r.class_label) for r in db.records] != list(want):
            problems.append(f"reloaded {len(db.records)} records for {len(want)} manifest entries")
        return problems

    def digests(self) -> dict[str, str]:
        return {"db": self.db_digest}

    def report(self, latencies_ms):
        rate = len(self.manifest.entries) * len(latencies_ms) * 1000.0 / sum(latencies_ms)
        return [("index_images_per_s", rate, "1/s")]

    def speedup_batch(self):
        return self.manifest, self.work / "img"

    def db_bytes(self) -> int:
        return self.db_file.stat().st_size


class Query10k:
    """Online queries (`load_image` + `query`, k=10) against a 10^4-record database."""

    name = "query-10k"
    setup_reps = 15
    setup_every = 36
    aliases = {"latency_p95_ms": "query_p95_ms"}
    k = 10
    digest_queries = 100

    def __init__(self, work: Path):
        self.work = work
        self.db_file = work / "db.tsv"
        self.queries = index.read_manifest(work / "queries.tsv").entries
        self.inputs = len(self.queries)
        self.db = None
        self.query_features: dict[int, tuple[int, tuple[float, ...]]] = {}
        self.top1_hit: dict[int, bool] = {}  # by query
        self.result_lines: dict[int, str] = {}

    def setup(self) -> None:
        self.db = index.load_index(self.db_file)

    def op(self, i: int):
        image = imaging.load_image(self.work / self.queries[i % len(self.queries)][0])
        return index.query(self.db, image, k=self.k)

    @cached_property
    def reference(self):
        """Per-record arrays for recomputing every answer with numpy."""
        records = self.db.records
        return {
            "counts": np.array([r.corner_count for r in records]),
            "logs": np.array([log_magnitude(r.hu) for r in records]),
            "row": {r.record_id: n for n, r in enumerate(records)},
            "labels": [r.class_label for r in records],
        }

    def _features(self, q: int):
        if q not in self.query_features:
            cfg = self.db.extraction_config
            image = imaging.load_image(self.work / self.queries[q][0])
            count, hu = index.extract_features(image, cfg.edge, cfg.corners)
            self.query_features[q] = count, log_magnitude(hu)
        return self.query_features[q]

    def check(self, i: int, matches) -> list[str]:
        q = i % len(self.queries)
        ref = self.reference
        count, qlog = self._features(q)
        window = adaptive_threshold(count, ThresholdConfig())
        inside = (ref["counts"] >= window.min_t) & (ref["counts"] <= window.max_t)
        expected = np.sort(np.sqrt(((ref["logs"][inside] - qlog) ** 2).sum(axis=1)))[: self.k]
        problems = []
        if len(self.db.records) != QUERY_DB_RECORDS:
            problems.append(f"database holds {len(self.db.records)} records, not {QUERY_DB_RECORDS}")
        if len(matches) > self.k or len(matches) != len(expected):
            problems.append(f"query {q}: {len(matches)} results, expected {len(expected)}")
        keys = [(m.moment_distance, m.record_id) for m in matches]
        if keys != sorted(keys):
            problems.append(f"query {q}: results not sorted by (moment_distance, record_id)")
        rows = [ref["row"][m.record_id] for m in matches]
        if not all(window.contains(int(ref["counts"][r])) for r in rows):
            problems.append(f"query {q}: a result lies outside the window [{window.min_t}, {window.max_t}]")
        got = np.array([m.moment_distance for m in matches])
        own = np.sqrt(((ref["logs"][rows] - qlog) ** 2).sum(axis=1)) if rows else got
        if len(got) == len(expected) and not (np.allclose(got, expected, rtol=1e-9, atol=1e-12)
                                              and np.allclose(got, own, rtol=1e-9, atol=1e-12)):
            problems.append(f"query {q}: distances differ from the numpy recomputation")
        self.top1_hit[q] = bool(matches) and ref["labels"][rows[0]] == self.queries[q][1]
        if i < self.digest_queries:
            self.result_lines[i] = f"{i}\t" + ";".join(f"{m.record_id}:{m.moment_distance!r}" for m in matches)
        return problems

    def digests(self) -> dict[str, str]:
        lines = "\n".join(self.result_lines.get(i, "") for i in range(self.digest_queries))
        return {"db": sha256(self.db_file),
                f"results_first_{self.digest_queries}": hashlib.sha256(lines.encode()).hexdigest()}

    def report(self, latencies_ms):
        return [
            ("query_p50_ms", statistics.median(latencies_ms), "ms"),
            ("query_top1_accuracy", statistics.fmean(self.top1_hit.values()), "ratio"),
        ]

    def db_bytes(self) -> int:
        return self.db_file.stat().st_size


# Mean precision (= mean recall) per mode and sha256 of the PR CSV and the
# database, as written by scripts/run_benchmark.py at the seed commit.
EVAL_REFERENCE = {
    "corner": ("0.339506", "dbafd9c3e13865bd26dd9ecdd51b2a4c000ec6c5cf36853b0f95bc4d25a122fe"),
    "moments": ("0.876543", "1150794848b5646ffa62d54977d4198cbfdcc22cfac602ffbfd740ffef83b59a"),
    "hybrid": ("0.888889", "85b64fc480335eb8b5990afa0aeaaf7e8eaaaaa0bfc95ac075cae980b022dc1d"),
}
EVAL_DB_SHA256 = "b618df94897a11d55330f05f63bf51b48cbc6eb56d2cfb93ed5ab93e16c5ebbf"


class EvalRotated:
    """The paper's protocol: gen-rotations and index as set-up, then eval in three modes."""

    name = "eval-rotated"
    inputs = 1
    setup_reps = 5
    setup_every = 4
    aliases: dict[str, str] = {}

    def __init__(self, work: Path):
        self.work = work
        self.dataset = work / "dataset"
        self.manifest = work / "dataset_manifest.tsv"
        self.db_file = work / "features.tsv"
        self.csv_digests: dict[str, str] = {}
        self.precision: dict[str, float] = {}

    def setup(self) -> None:
        run_cli("gen-rotations", "--manifest", str(self.work / "base_manifest.tsv"),
                "--root", str(self.work / "base"), "--out-dir", str(self.dataset),
                "--out-manifest", str(self.manifest))
        run_cli("index", "--manifest", str(self.manifest), "--root", str(self.dataset),
                "--out", str(self.db_file))

    def op(self, i: int) -> None:
        for mode in EVAL_REFERENCE:
            run_cli("eval", "--db", str(self.db_file), "--manifest", str(self.manifest),
                    "--root", str(self.dataset), "--mode", mode, "--out", str(self.work / f"pr_{mode}.csv"))

    def check(self, i: int, result) -> list[str]:
        problems = []
        if sha256(self.db_file) != EVAL_DB_SHA256:
            problems.append("database bytes differ from the reference")
        for mode, (want_p, want_sha) in EVAL_REFERENCE.items():
            csv = self.work / f"pr_{mode}.csv"
            digest = sha256(csv)
            if self.csv_digests.setdefault(mode, digest) != digest:
                problems.append(f"{mode}: PR CSV bytes differ between operations")
            if digest != want_sha:
                problems.append(f"{mode}: PR CSV bytes differ from the reference")
            _, _, _, p, r = csv.read_text().splitlines()[-1].split(",")
            if p != r:
                problems.append(f"{mode}: mean precision {p} != mean recall {r}")
            if p != want_p:
                problems.append(f"{mode}: mean precision {p}, reference {want_p}")
            self.precision[mode] = float(p)
        return problems

    def digests(self) -> dict[str, str]:
        return {"db": sha256(self.db_file), **{f"pr_{m}.csv": d for m, d in self.csv_digests.items()}}

    def report(self, latencies_ms):
        return [
            ("eval_wall_s", statistics.median(latencies_ms) / 1000.0, "s"),
            *((f"{mode}_precision", self.precision.get(mode, 0.0), "ratio") for mode in ("hybrid", "moments", "corner")),
        ]

    def speedup_batch(self):
        return index.read_manifest(self.manifest), self.dataset

    def db_bytes(self) -> int:
        return self.db_file.stat().st_size


WORKLOADS = {w.name: w for w in (Index512, Query10k, EvalRotated)}
