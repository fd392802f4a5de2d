import errno
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import matroid_hopf

from matroid_hopf import (
    Catalog,
    CatalogTooLarge,
    canonical_key,
    cached_catalog,
    enumerate_matroids,
    load_cache,
    save_cache,
    uniform,
    validate,
)
from matroid_hopf.catalog import (
    CACHE_ENV_VAR,
    KNOWN_COUNTS,
    MAX_CATALOG_N,
    cache_path,
    default_cache_dir,
)

from oracles import unpruned_counts

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


def test_classes_sorted_and_unique(catalogs):
    for n in range(5):
        keys = catalogs[n].classes
        assert list(keys) == sorted(keys, key=lambda k: k.sort_key())
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

    def test_cached_catalog_falls_back_to_enumeration(self, tmp_path, catalogs):
        assert cached_catalog(3, tmp_path) == catalogs[3]

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

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
