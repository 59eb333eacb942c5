"""Split builders: quota handling, buffers, determinism, audits."""

import numpy as np
import pytest

from peftseg import splits
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


@pytest.mark.parametrize("quotas", [None, {"train": 5}])
def test_audit_rejects_a_sample_absent_from_the_pool(quotas):
    pool = grid_pool(3)
    with pytest.raises(SplitError, match="ghost"):
        audit_splits(pool, {"s000": "train", "ghost": "val"}, quotas=quotas)
    with pytest.raises(SplitError, match="ghost"):
        audit_splits(pool, {"s000": "train", "ghost": "val"}, buffer_km=5.0, quotas=quotas)


# ---------------------------------------------------------------------------
# KD-tree neighbour search against the pairwise references


def flood_fill_clusters(pool, buffer_km):
    """Clusters by exhaustive flood fill, members in pool order."""
    root = {}
    for start in pool:
        if start.sample_id in root:
            continue
        root[start.sample_id] = start.sample_id
        stack = [start]
        while stack:
            a = stack.pop()
            for b in pool:
                if b.sample_id not in root and haversine_km(a.lat, a.lon, b.lat, b.lon) < buffer_km:
                    root[b.sample_id] = start.sample_id
                    stack.append(b)
    clusters = [[e.sample_id for e in pool if root[e.sample_id] == r] for r in set(root.values())]
    return sorted(clusters, key=min)


def pairwise_min(pool, assignment):
    """Minimum over every cross-split pair, in row form and pool order."""
    entries = [e for e in pool if e.sample_id in assignment]
    lats = np.array([e.lat for e in entries])
    lons = np.array([e.lon for e in entries])
    best = float("inf")
    for i, a in enumerate(entries):
        dists = haversine_km(lats[i], lons[i], lats[i + 1:], lons[i + 1:])
        for b, d in zip(entries[i + 1:], dists):
            if assignment[a.sample_id] != assignment[b.sample_id]:
                best = min(best, float(d))
    return best


def adversarial_pool(kind):
    rng = np.random.default_rng(3)
    if kind == "antimeridian":
        # 0.002 degrees of longitude across the date line is about 0.2 km
        lats = rng.uniform(-60, 60, 30)
        sites = [(lat, sign * 179.999) for lat in lats for sign in (1, -1)]
        sites += [(lat, 180.0 * sign) for lat, sign in zip(rng.uniform(-60, 60, 10), (1, -1) * 5)]
    elif kind == "poles":
        sites = [(sign * (90 - rng.uniform(0, 0.01)), rng.uniform(-180, 180))
                 for sign in (1, -1) for _ in range(30)]
        sites += [(90.0, 0.0), (-90.0, 45.0), (89.99, 180.0)]
    else:  # duplicates: ten sites twice, one site three times
        base = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(20)]
        sites = base + base[:10] + [(0.5, 0.5)] * 3
    order = rng.permutation(len(sites))
    return [entry(f"s{i:03d}", lat=float(sites[i][0]), lon=float(sites[i][1])) for i in order]


@pytest.mark.parametrize("kind", ["antimeridian", "poles", "duplicates"])
def test_kd_tree_matches_pairwise_reference_on_adversarial_pools(kind):
    pool = adversarial_pool(kind)
    for buffer_km in (0.0, 0.5, 5.0, 50.0, 25000.0):
        got = [[e.sample_id for e in c] for c in _single_linkage_clusters(pool, buffer_km)]
        assert got == flood_fill_clusters(pool, buffer_km), buffer_km
    rng = np.random.default_rng(4)
    for _ in range(5):
        assignment = {e.sample_id: ("train", "val", "test")[int(rng.integers(3))] for e in pool}
        assert min_cross_split_distance(pool, assignment) == pairwise_min(pool, assignment)
    if kind == "duplicates":
        twins = [e for e in pool if (e.lat, e.lon) == (0.5, 0.5)]
        assignment = {e.sample_id: "train" for e in pool}
        assignment[twins[0].sample_id] = "test"
        assert min_cross_split_distance(pool, assignment) == 0.0


def test_buffer_boundary_is_decided_by_haversine():
    # a pair 1e-9 km inside the buffer links, 1e-9 km outside it does not;
    # both lie within the widened chord radius, so haversine makes the call
    a, b = entry("a", lat=10.0, lon=20.0), entry("b", lat=10.03, lon=20.02)
    far = [entry(f"far{i}", lat=-30.0 + 3 * i, lon=-40.0) for i in range(6)]
    pool = [a, b] + far
    d = float(haversine_km(a.lat, a.lon, b.lat, b.lon))
    for buffer_km, linked in ((d + 1e-9, True), (d - 1e-9, False)):
        got = [[e.sample_id for e in c] for c in _single_linkage_clusters(pool, buffer_km)]
        assert got == flood_fill_clusters(pool, buffer_km)
        assert (["a", "b"] in got) is linked
        result = build_buffered_spatial_splits(pool, buffer_km=buffer_km, seed=0)
        assert result.report["min_cross_split_km"] == pairwise_min(pool, result.assignment)
    assert min_cross_split_distance(pool, {"a": "train", "b": "val"}) == d


def test_single_split_and_single_site_give_inf():
    pool = grid_pool(5)
    assert min_cross_split_distance(pool, {e.sample_id: "train" for e in pool}) == float("inf")
    assert audit_splits(pool, {e.sample_id: "train" for e in pool},
                        buffer_km=5.0)["min_cross_split_km"] == float("inf")
    one = [entry("only", lat=12.0, lon=34.0)]
    assert [[e.sample_id for e in c] for c in _single_linkage_clusters(one, 5.0)] == [["only"]]
    assert min_cross_split_distance(one, {"only": "val"}) == float("inf")
    assert min_cross_split_distance(one, {}) == float("inf")


BAD_SITES = [(float("nan"), 0.0), (0.0, float("nan")), (float("inf"), 0.0), (0.0, -float("inf")),
             (90.5, 0.0), (-91.0, 0.0), (0.0, 180.01), (0.0, -181.0)]


@pytest.mark.parametrize("lat,lon", BAD_SITES)
def test_bad_coordinates_raise_split_error_naming_the_sample(lat, lon):
    # train at (0, 0) and test 0.11 km away: a NaN site in val once hid the pair
    pool = ([entry("a", lat=0.0, lon=0.0), entry("bad", lat=lat, lon=lon),
             entry("c", lat=0.0, lon=0.001)]
            + [entry(f"far{i}", lat=20.0 + 3 * i, lon=30.0) for i in range(6)])
    assignment = {"a": "train", "bad": "val", "c": "test"}
    with pytest.raises(SplitError, match="bad"):
        build_buffered_spatial_splits(pool, buffer_km=5.0, seed=0)
    with pytest.raises(SplitError, match="bad"):
        min_cross_split_distance(pool, assignment)
    with pytest.raises(SplitError, match="bad"):
        audit_splits(pool, assignment, buffer_km=5.0)


@pytest.mark.parametrize("buffer_km", [-1.0, -1e-12, float("nan"), float("inf")])
def test_bad_buffer_raises_split_error(buffer_km):
    pool = grid_pool(10)
    with pytest.raises(SplitError, match="buffer_km"):
        build_buffered_spatial_splits(pool, buffer_km=buffer_km, seed=0)
    with pytest.raises(SplitError, match="buffer_km"):
        audit_splits(pool, {"s000": "train", "s001": "val"}, buffer_km=buffer_km)


def town_pool(seed, towns=(10, 5), per_town=40):
    """The geo-eval site pool: towns of about 1 km spread on a jittered
    0.5-degree grid, so each town is one cluster at a 5 km buffer."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    pool = []
    for i in range(towns[0]):
        for j in range(towns[1]):
            lat0 = 40.0 + 0.5 * i + rng.uniform(-0.1, 0.1)
            lon0 = 5.0 + 0.5 * j + rng.uniform(-0.1, 0.1)
            offsets = np.clip(rng.normal(0.0, 0.01, size=(per_town, 2)), -0.03, 0.03)
            for k, (dlat, dlon) in enumerate(offsets):
                pool.append(entry(f"site_{i}_{j}_{k:02d}", lat=float(lat0 + dlat),
                                  lon=float(lon0 + dlon)))
    return pool


def test_buffered_split_and_audit_measure_near_pairs_only(monkeypatch):
    # an exhaustive sweep measures about 3 n^2 / 2 distances here (6e6)
    pool = town_pool(1)
    measured = []

    def counting(*args):
        out = haversine_km(*args)
        measured.append(np.size(out))
        return out

    monkeypatch.setattr(splits, "haversine_km", counting)
    built = build_buffered_spatial_splits(pool, buffer_km=5.0, seed=1)
    audit = audit_splits(pool, built.assignment, buffer_km=5.0)
    assert built.report["num_clusters"] == 50 and audit["buffer_respected"]
    assert sum(measured) < 50 * len(pool)
