import errno
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import matroid_hopf

from matroid_hopf import matroid
from matroid_hopf import (
    Catalog,
    CatalogTooLarge,
    InputError,
    Matroid,
    canonical_key,
    cached_catalog,
    enumerate_matroids,
    load_cache,
    save_cache,
    uniform,
    validate,
)
from matroid_hopf.catalog import KNOWN_COUNTS, MAX_CATALOG_N, cache_path
from matroid_hopf.verify import run_all

from oracles import binary_matroid_families, has_u24_minor, unpruned_counts

# frozen from the pre-build unpruned oracle run
GOLDEN_CLASSES = {0: 1, 1: 2, 2: 4, 3: 8, 4: 17}
GOLDEN_LABELED = {0: 1, 1: 2, 2: 5, 3: 16, 4: 68}


def test_counts_match_frozen_goldens(catalogs):
    assert sorted(KNOWN_COUNTS) == list(range(MAX_CATALOG_N + 1))
    for n in range(5):
        assert len(catalogs[n]) == GOLDEN_CLASSES[n]
        assert catalogs[n].labeled_count == GOLDEN_LABELED[n]
        assert KNOWN_COUNTS[n] == (GOLDEN_CLASSES[n], GOLDEN_LABELED[n])


def test_counts_match_live_oracle(catalogs):
    for n in range(4):
        labeled, classes = unpruned_counts(n)
        assert (labeled, classes) == (catalogs[n].labeled_count, len(catalogs[n]))


def test_binary_classes_are_those_without_a_u24_minor(catalogs):
    # Tutte: a matroid is binary iff it has no U_{2,4} minor; on n <= 4
    # elements only U_{2,4} itself is left out
    for n in range(5):
        binary = {canonical_key(Matroid(n, tuple(fam))) for fam in binary_matroid_families(n)}
        excluded = {
            key for key in catalogs[n].classes if not has_u24_minor(key.matroid().independents, n)
        }
        assert binary == excluded
        assert len(binary) == (1, 2, 4, 8, 16)[n]


def test_classes_sorted_and_unique(catalogs):
    for n in range(5):
        keys = catalogs[n].classes
        assert list(keys) == sorted(keys, key=lambda k: (k.n, k.rank, k.family))
        assert len(set(keys)) == len(keys)


def test_representatives_validate(catalogs):
    for n in range(5):
        for key in catalogs[n].classes:
            m = key.matroid()
            assert validate(m.n, m.independents) == m


def test_uniform_matroids_appear_once(catalogs):
    for n in range(5):
        keys = set(catalogs[n].classes)
        for r in range(n + 1):
            assert canonical_key(uniform(r, n)) in keys


def test_closed_under_minors_and_duals(catalogs, catalog_reps):
    universe = {k for n in range(5) for k in catalogs[n].classes}
    for m in catalog_reps:
        for t in range(1 << m.n):
            assert canonical_key(m.restrict(t)) in universe
            assert canonical_key(m.delete(t)) in universe
            assert canonical_key(m.contract(t)) in universe
        assert canonical_key(m.dual()) in universe


def test_too_large():
    with pytest.raises(CatalogTooLarge):
        enumerate_matroids(5)


@pytest.mark.parametrize("n", [-1, -2])
def test_negative_size_is_an_input_error(n, tmp_path):
    with pytest.raises(InputError, match=f"got {n}$"):
        enumerate_matroids(n)
    for cache_dir in (None, tmp_path):
        with pytest.raises(InputError, match=f"got {n}$"):
            cached_catalog(n, cache_dir)


class TestCache:
    def test_round_trip(self, tmp_path, catalogs):
        for n in range(4):
            save_cache(catalogs[n], tmp_path)
            loaded = load_cache(n, tmp_path)
            assert loaded == catalogs[n]

    def test_missing_returns_none(self, tmp_path):
        assert load_cache(2, tmp_path) is None

    def test_version_stamp_checked(self, tmp_path, catalogs):
        path = save_cache(catalogs[2], tmp_path)
        body = path.read_text().replace('"version": 1', '"version": 0')
        path.write_text(body)
        assert load_cache(2, tmp_path) is None

    def test_corrupt_file_ignored(self, tmp_path):
        cache_path(1, tmp_path).parent.mkdir(parents=True, exist_ok=True)
        cache_path(1, tmp_path).write_text("not json\n")
        assert load_cache(1, tmp_path) is None

    @pytest.mark.parametrize("header", ["[1]", "5", "null", '"catalog"'])
    def test_header_must_be_an_object(self, tmp_path, catalogs, header):
        # valid JSON that is not an object is a stale cache, not a crash
        path = save_cache(catalogs[1], tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header] + lines[1:]) + "\n")
        assert load_cache(1, tmp_path) is None
        assert cached_catalog(1, tmp_path) == catalogs[1]

    @pytest.mark.parametrize("line", [0, 1], ids=["header", "record"])
    def test_deeply_nested_line_enumerates_again(self, tmp_path, catalogs, line):
        # json raises RecursionError, not ValueError, at this depth
        path = save_cache(catalogs[2], tmp_path)
        lines = path.read_text().splitlines()
        lines[line] = "[" * 200_000
        path.write_text("\n".join(lines) + "\n")
        assert load_cache(2, tmp_path) is None
        assert cached_catalog(2, tmp_path) == catalogs[2]

    def test_cached_catalog_falls_back_to_enumeration(self, tmp_path, catalogs):
        assert cached_catalog(3, tmp_path) == catalogs[3]

    def test_no_directory_enumerates_without_reading(self, monkeypatch, catalogs):
        def read(*args, **kwargs):
            pytest.fail("read a file")

        monkeypatch.setattr(matroid_hopf.catalog, "load_cache", read)
        monkeypatch.setattr(Path, "is_file", read)
        monkeypatch.setattr(Path, "read_text", read)
        assert cached_catalog(3) == catalogs[3]

    @pytest.mark.parametrize(
        "record",
        [
            pytest.param(uniform(1, 2).to_dict(), id="wrong-size"),
            pytest.param(uniform(2, 4).to_dict(), id="repeated-class"),
            pytest.param([0, 1], id="not-an-object"),
        ],
    )
    def test_records_must_be_distinct_classes_of_size_n(self, tmp_path, catalogs, record):
        # the genuine n = 4 header over 17 copies of one record
        path = save_cache(catalogs[4], tmp_path)
        header = path.read_text().splitlines()[0]
        path.write_text("\n".join([header] + [json.dumps(record)] * 17) + "\n")
        assert load_cache(4, tmp_path) is None
        assert cached_catalog(4, tmp_path) == enumerate_matroids(4)

    @pytest.mark.parametrize(
        "n, genuine, malformed",
        [
            pytest.param(
                1,
                '{"n": 1, "independent": [[]]}',
                '{"n": true, "independent": [[]]}',
                id="bool-n",
            ),
            pytest.param(
                2,
                '{"n": 2, "independent": [[], [0], [1]]}',
                '{"n": 2, "independent": [[], [0], [true]]}',
                id="bool-element",
            ),
        ],
    )
    def test_records_are_read_as_strictly_as_input_files(
        self, tmp_path, catalogs, n, genuine, malformed
    ):
        # true loads as 1, so each record names a genuine class, but the
        # --input reader rejects it
        path = save_cache(catalogs[n], tmp_path)
        body = path.read_text()
        assert genuine in body
        path.write_text(body.replace(genuine, malformed))
        assert load_cache(n, tmp_path) is None
        assert cached_catalog(n, tmp_path) == catalogs[n]

    def test_oversized_record_rejected_before_validating(
        self, tmp_path, catalogs, monkeypatch
    ):
        path = save_cache(catalogs[1], tmp_path)
        header = path.read_text().splitlines()[0]
        record = json.dumps({"n": 11, "independent": [[]]})
        path.write_text("\n".join([header, record, record]) + "\n")
        monkeypatch.setattr(matroid, "validate", lambda *args: pytest.fail("validate was called"))
        assert load_cache(1, tmp_path) is None

    def _rewrite_header(self, path, records, **fields):
        lines = path.read_text().splitlines()
        header = {**json.loads(lines[0]), **fields}
        path.write_text("\n".join([json.dumps(header)] + lines[1 : records + 1]) + "\n")

    def test_truncated_header_rejected(self, tmp_path, catalogs):
        # a header counting one class, over one genuine 4-element record
        path = save_cache(catalogs[4], tmp_path)
        self._rewrite_header(path, 1, count=1)
        assert load_cache(4, tmp_path) is None
        assert cached_catalog(4, tmp_path) == catalogs[4]

    def test_wrong_labeled_count_rejected(self, tmp_path, catalogs):
        # every genuine record, but the header's labeled count is made up
        path = save_cache(catalogs[4], tmp_path)
        self._rewrite_header(path, 17, labeled_count=999)
        assert load_cache(4, tmp_path) is None
        assert cached_catalog(4, tmp_path) == catalogs[4]

    def test_failed_write_keeps_previous_cache(self, tmp_path, catalogs):
        path = save_cache(catalogs[4], tmp_path)
        # A child process rewrites the cache under a 64-byte file-size limit,
        # so its write fails with EFBIG partway through the records.
        script = textwrap.dedent(
            """
            import resource, signal, sys
            from pathlib import Path
            from matroid_hopf import enumerate_matroids, save_cache

            catalog = enumerate_matroids(4)
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (64, resource.RLIM_INFINITY))
            save_cache(catalog, Path(sys.argv[1]))
            """
        )
        child = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(matroid_hopf.__file__).parents[1])},
        )
        assert child.returncode != 0
        assert f"[Errno {errno.EFBIG}]" in child.stderr
        assert load_cache(4, tmp_path) == catalogs[4]
        assert list(tmp_path.iterdir()) == [path]

    def test_unreadable_cache_is_enumerated_again(self, tmp_path, monkeypatch, catalogs):
        for n in range(3):
            save_cache(catalogs[n], tmp_path)
        read_text = Path.read_text

        def denied(path, *args, **kwargs):
            if path.parent == tmp_path:
                raise PermissionError(errno.EACCES, "Permission denied", str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", denied)
        assert load_cache(2, tmp_path) is None
        assert cached_catalog(2, tmp_path) == catalogs[2]
        # verify enumerates the catalogs again instead of ending in a traceback
        rows = run_all(max_n=2, cache_dir=tmp_path)
        assert rows == run_all(max_n=2)
        assert all(row.ok for row in rows)
