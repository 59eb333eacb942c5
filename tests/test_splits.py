"""Split builders: quota handling, buffers, determinism, audits."""

import numpy as np
import pytest

from peftseg.data import SampleInfo
from peftseg.errors import SplitError
from peftseg.splits import (_single_linkage_clusters, audit_splits,
                            build_buffered_spatial_splits, build_class_balanced_splits,
                            haversine_km, min_cross_split_distance)


def entry(sid, region="r", lat=0.0, lon=0.0, labels=(0,)):
    return SampleInfo(sample_id=sid, region=region, lat=lat, lon=lon,
                      day_of_year=1, year=2020, labels=tuple(labels))


def grid_pool(n, spacing_deg=1.0):
    """n samples on a line, far enough apart to be singleton clusters."""
    return [entry(f"s{i:03d}", lat=0.0, lon=i * spacing_deg) for i in range(n)]


# ---------------------------------------------------------------------------
# haversine


def test_haversine_known_value():
    # one degree of longitude at the equator is ~111.19 km
    assert abs(haversine_km(0.0, 0.0, 0.0, 1.0) - 111.19) < 0.1


def test_haversine_zero_distance():
    assert haversine_km(45.0, 9.0, 45.0, 9.0) == 0.0


# ---------------------------------------------------------------------------
# class-balanced builder


def test_single_class_quota_sizes():
    pool = [entry(f"s{i}", labels=(0,)) for i in range(10)]
    result = build_class_balanced_splits(pool, quotas={"train": 3, "val": 1, "test": 1},
                                         ghos_quota=0, seed=0)
    counts = result.report["per_class_counts"]
    assert counts["train"].get(0, 0) <= 3
    assert counts["val"].get(0, 0) <= 1
    assert counts["test"].get(0, 0) <= 1
    values = list(result.assignment.values())
    assert len(result.assignment) == len(set(result.assignment))
    assert values.count("train") == 3 and values.count("val") == 1 and values.count("test") == 1


def test_ghos_only_from_excluded_regions():
    rng = np.random.default_rng(0)
    pool = []
    for i in range(400):
        region = ("austria", "ireland", "core1", "core2")[i % 4]
        labels = tuple(sorted(set(rng.integers(0, 19, size=rng.integers(1, 4)).tolist())))
        pool.append(entry(f"s{i:04d}", region=region, labels=labels))
    result = build_class_balanced_splits(pool, quotas={"train": 8, "val": 2, "test": 2},
                                         excluded_regions=("austria", "ireland"),
                                         ghos_quota=2, seed=3)
    by_id = {e.sample_id: e for e in pool}
    for sid, split in result.assignment.items():
        if split == "ghos":
            assert by_id[sid].region in ("austria", "ireland")
        else:
            assert by_id[sid].region not in ("austria", "ireland")
    assert any(s == "ghos" for s in result.assignment.values())


def test_quota_never_exceeded_multilabel():
    rng = np.random.default_rng(1)
    pool = []
    for i in range(300):
        labels = tuple(sorted(set(rng.integers(0, 6, size=rng.integers(1, 4)).tolist())))
        pool.append(entry(f"s{i:04d}", labels=labels))
    quotas = {"train": 10, "val": 4, "test": 4}
    result = build_class_balanced_splits(pool, quotas=quotas, ghos_quota=0, seed=5)
    for split, quota in quotas.items():
        for cls, count in result.report["per_class_counts"][split].items():
            assert count <= quota, (split, cls)


def test_shortfall_is_warning_not_error():
    pool = [entry("s0", labels=(0,)), entry("s1", labels=(0,))]
    result = build_class_balanced_splits(pool, quotas={"train": 5, "val": 1, "test": 1},
                                         ghos_quota=0, seed=0)
    assert any("short of quota" in w for w in result.report["warnings"])


def test_balanced_rerun_identical():
    rng = np.random.default_rng(2)
    pool = [entry(f"s{i:04d}", region=("a", "b")[i % 2],
                  labels=tuple(sorted(set(rng.integers(0, 5, size=2).tolist()))))
            for i in range(100)]
    a = build_class_balanced_splits(pool, quotas={"train": 6, "val": 2, "test": 2},
                                    excluded_regions=("b",), ghos_quota=2, seed=42)
    b = build_class_balanced_splits(pool, quotas={"train": 6, "val": 2, "test": 2},
                                    excluded_regions=("b",), ghos_quota=2, seed=42)
    assert a.assignment == b.assignment
    assert a.report == b.report


# ---------------------------------------------------------------------------
# buffered spatial builder


def test_close_samples_share_split_always():
    # two samples 1 km apart must land in the same split, every seed
    for seed in range(10):
        pool = [entry("a", lat=0.0, lon=0.0), entry("b", lat=0.009, lon=0.0)] + grid_pool(8)
        pool[2:] = [entry(f"far{i}", lat=10.0 + i, lon=30.0) for i in range(8)]
        result = build_buffered_spatial_splits(pool, buffer_km=5.0, seed=seed)
        assert result.assignment["a"] == result.assignment["b"], seed


def test_single_linkage_chains_and_orders_clusters():
    # 0.04 degrees of longitude at the equator is about 4.4 km: z1-z2 and
    # z2-a link under a 5 km buffer, z1-a (8.9 km) only through z2
    pool = [entry("z1", lon=0.0), entry("m", lon=5.0), entry("a", lon=0.08),
            entry("z2", lon=0.04)]
    clusters = _single_linkage_clusters(pool, buffer_km=5.0)
    assert [[e.sample_id for e in c] for c in clusters] == [["z1", "a", "z2"], ["m"]]


def test_single_linkage_matches_flood_fill_reference():
    rng = np.random.default_rng(5)
    pool = [entry(f"s{i:03d}", lat=float(rng.uniform(-0.3, 0.3)),
                  lon=float(rng.uniform(-0.3, 0.3))) for i in rng.permutation(80)]
    root = {}
    for start in pool:
        if start.sample_id in root:
            continue
        root[start.sample_id] = start.sample_id
        stack = [start]
        while stack:
            a = stack.pop()
            for b in pool:
                if b.sample_id not in root and haversine_km(a.lat, a.lon, b.lat, b.lon) < 5.0:
                    root[b.sample_id] = start.sample_id
                    stack.append(b)
    expected = sorted(({sid for sid in root if root[sid] == r} for r in set(root.values())), key=min)
    got = [{e.sample_id for e in c} for c in _single_linkage_clusters(pool, buffer_km=5.0)]
    assert any(len(c) > 1 for c in got)
    assert got == expected


def test_min_cross_split_distance_at_least_buffer():
    rng = np.random.default_rng(7)
    pool = [entry(f"s{i:03d}", lat=float(rng.uniform(-1, 1)), lon=float(rng.uniform(-1, 1)))
            for i in range(60)]
    result = build_buffered_spatial_splits(pool, buffer_km=5.0, seed=1)
    min_km = min_cross_split_distance(pool, result.assignment)
    assert min_km >= 5.0
    audit = audit_splits(pool, result.assignment, buffer_km=5.0)
    assert audit["buffer_respected"]


def test_min_cross_split_distance_equals_pairwise_loop():
    rng = np.random.default_rng(21)
    pool = [entry(f"s{i:03d}", lat=float(rng.uniform(-2, 2)), lon=float(rng.uniform(-2, 2)))
            for i in range(120)]
    assignment = {e.sample_id: ("train", "val", "test")[int(rng.integers(3))] for e in pool[:110]}
    entries = [e for e in pool if e.sample_id in assignment]
    lats = np.array([e.lat for e in entries])
    lons = np.array([e.lon for e in entries])
    reference = float("inf")
    for i, a in enumerate(entries):
        dists = haversine_km(lats[i], lons[i], lats[i + 1:], lons[i + 1:])
        for b, d in zip(entries[i + 1:], dists):
            if assignment[a.sample_id] != assignment[b.sample_id]:
                reference = min(reference, float(d))
    assert min_cross_split_distance(pool, assignment) == reference


def test_exact_sizes_for_singleton_clusters():
    # 10 mutually distant samples at ratios (0.6, 0.2, 0.2) -> sizes (6, 2, 2)
    pool = grid_pool(10)
    result = build_buffered_spatial_splits(
        pool, buffer_km=5.0, ratios={"train": 0.6, "val": 0.2, "test": 0.2}, seed=0)
    sizes = result.report["sizes"]
    assert (sizes["train"], sizes["val"], sizes["test"]) == (6, 2, 2)


def test_single_spanning_cluster_rejected():
    pool = [entry(f"s{i}", lat=0.0, lon=i * 0.01) for i in range(10)]  # ~1.1 km apart
    with pytest.raises(SplitError):
        build_buffered_spatial_splits(pool, buffer_km=5.0, seed=0)


def test_buffered_rerun_identical():
    rng = np.random.default_rng(9)
    pool = [entry(f"s{i:03d}", lat=float(rng.uniform(-2, 2)), lon=float(rng.uniform(-2, 2)))
            for i in range(40)]
    a = build_buffered_spatial_splits(pool, buffer_km=5.0, seed=11)
    b = build_buffered_spatial_splits(pool, buffer_km=5.0, seed=11)
    assert a.assignment == b.assignment


def test_audit_reports_unassigned_and_disjoint():
    pool = grid_pool(5)
    assignment = {"s000": "train", "s001": "val"}
    report = audit_splits(pool, assignment)
    assert report["unassigned"] == ["s002", "s003", "s004"]
    assert report["assigned"] == 2
