"""Split-construction procedures and their audits.

Two builders: a class-balanced sampler drawing per-class quotas from a
multi-label pool with excluded regions feeding a geographic hold-out, and a
buffered spatial builder that single-links samples closer than the buffer
into clusters and assigns whole clusters to splits, guaranteeing a minimum
cross-split distance. Both are deterministic given the seed.

Near pairs come from a KD-tree (``scipy.spatial.cKDTree``) over each site's
3-D unit vector, never from a sweep over all pairs. The chord between two unit
vectors grows monotonically with great-circle distance, so a chord radius of
``2 sin(km / 2R)``, widened by a relative 1e-9 plus 1e-12 to cover the
rounding of both the vectors and ``haversine_km``, returns every pair the
haversine test could accept. ``haversine_km`` then decides each candidate and
gives every reported distance, so clusters and minima are those an exhaustive
pairwise sweep would produce, bit for bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import SplitError

EARTH_RADIUS_KM = 6371.0088


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km; accepts scalars or broadcastable arrays."""
    lat1, lon1, lat2, lon2 = (np.deg2rad(np.asarray(v, dtype=np.float64))
                              for v in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


@dataclass
class SplitResult:
    assignment: dict[str, str]
    report: dict = field(default_factory=dict)


def _check_pool(pool):
    ids = [e.sample_id for e in pool]
    if len(set(ids)) != len(ids):
        raise SplitError("pool contains duplicate sample ids")
    if not pool:
        raise SplitError("pool is empty")


def build_class_balanced_splits(pool, quotas=None, excluded_regions=(), ghos_quota: int = 50,
                                seed: int = 0) -> SplitResult:
    """Per-class quota sampling without replacement from a multi-label pool.

    Classes are processed in ascending frequency order so rare classes draw
    first; a candidate is accepted only if none of its labels would exceed the
    split's quota. The hold-out draws exclusively from the excluded regions.
    Shortfalls are recorded as warnings, not errors.
    """
    _check_pool(pool)
    quotas = dict(quotas or {"train": 250, "val": 50, "test": 50})
    excluded = set(excluded_regions)
    rng = np.random.default_rng(seed)

    freq = Counter()
    for entry in pool:
        freq.update(entry.labels)
    class_order = sorted(freq, key=lambda c: (freq[c], c))

    assignment: dict[str, str] = {}
    counts = {split: Counter() for split in list(quotas) + ["ghos"]}
    warnings: list[str] = []

    def draw(split: str, quota: int, candidates_pool):
        for cls in class_order:
            if counts[split][cls] >= quota:
                continue
            candidates = sorted(
                (e for e in candidates_pool
                 if e.sample_id not in assignment and cls in e.labels),
                key=lambda e: e.sample_id,
            )
            rng.shuffle(candidates)
            for entry in candidates:
                if counts[split][cls] >= quota:
                    break
                if any(counts[split][c] >= quota for c in entry.labels):
                    continue
                assignment[entry.sample_id] = split
                for c in entry.labels:
                    counts[split][c] += 1
            if counts[split][cls] < quota:
                warnings.append(
                    f"{split}: class {cls} short of quota ({counts[split][cls]}/{quota})")

    main_pool = [e for e in pool if e.region not in excluded]
    for split in ("train", "val", "test"):
        if split in quotas:
            draw(split, quotas[split], main_pool)
    ghos_pool = [e for e in pool if e.region in excluded]
    if excluded:
        draw("ghos", ghos_quota, ghos_pool)

    report = {
        "per_class_counts": {split: dict(sorted(c.items())) for split, c in counts.items()},
        "sizes": dict(Counter(assignment.values())),
        "warnings": warnings,
        "unassigned": sorted(e.sample_id for e in pool if e.sample_id not in assignment),
    }
    return SplitResult(assignment=assignment, report=report)


def _coordinates(entries) -> tuple[np.ndarray, np.ndarray]:
    """Latitudes and longitudes in degrees; a non-finite or out-of-range value
    raises SplitError naming its sample."""
    lats = np.array([e.lat for e in entries], dtype=np.float64)
    lons = np.array([e.lon for e in entries], dtype=np.float64)
    bad = ~((np.abs(lats) <= 90) & (np.abs(lons) <= 180))  # NaN fails both tests
    if bad.any():
        i = int(np.argmax(bad))
        raise SplitError(f"sample {entries[i].sample_id}: latitude {lats[i]} and longitude "
                         f"{lons[i]} must be finite, within [-90, 90] and [-180, 180]")
    return lats, lons


def _check_buffer(buffer_km) -> None:
    if not (np.isfinite(buffer_km) and buffer_km >= 0):
        raise SplitError(f"buffer_km must be finite and non-negative, got {buffer_km}")


def _unit_vectors(lats, lons) -> np.ndarray:
    lat, lon = np.deg2rad(lats), np.deg2rad(lons)
    return np.column_stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])


def _widen(chord: float) -> float:
    """A chord radius enlarged past the rounding of unit vectors and haversine."""
    return float(chord) * (1 + 1e-9) + 1e-12


def _single_linkage_clusters(pool, buffer_km: float) -> list[list]:
    """Connected components of the graph joining samples closer than the
    buffer; members keep pool order, clusters sort by smallest sample id."""
    n = len(pool)
    lats, lons = _coordinates(pool)
    chord = 2 * np.sin(min(buffer_km / (2 * EARTH_RADIUS_KM), np.pi / 2))
    pairs = cKDTree(_unit_vectors(lats, lons)).query_pairs(_widen(chord), output_type="ndarray")
    i, j = pairs.T
    near = haversine_km(lats[i], lons[i], lats[j], lons[j]) < buffer_km
    graph = coo_matrix((np.ones(int(near.sum()), dtype=bool), (i[near], j[near])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    groups: dict[int, list] = {}
    for label, entry in zip(labels, pool):
        groups.setdefault(label, []).append(entry)
    return sorted(groups.values(), key=lambda cluster: min(e.sample_id for e in cluster))


def build_buffered_spatial_splits(pool, buffer_km: float = 5.0, ratios=None,
                                  seed: int = 0) -> SplitResult:
    """Cluster samples closer than the buffer, then assign whole clusters.

    Clusters are shuffled deterministically and greedily given to the split
    with the largest remaining deficit (ties resolved train > val > test), so
    close-by samples always share a split and every cross-split pair is at
    least ``buffer_km`` apart.
    """
    _check_pool(pool)
    ratios = dict(ratios or {"train": 0.6, "val": 0.2, "test": 0.2})
    if any(r < 0 for r in ratios.values()) or abs(sum(ratios.values()) - 1.0) > 1e-9:
        raise SplitError(f"ratios must be non-negative and sum to 1, got {ratios}")
    active = [s for s, r in ratios.items() if r > 0]
    _check_buffer(buffer_km)

    clusters = _single_linkage_clusters(pool, buffer_km)
    if len(clusters) < len(active):
        raise SplitError(
            f"only {len(clusters)} cluster(s) at buffer {buffer_km} km for {len(active)} splits; "
            f"largest cluster spans {max(len(c) for c in clusters)} of {len(pool)} samples")

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(clusters))

    n = len(pool)
    targets = {s: ratios[s] * n for s in active}
    assigned_counts = {s: 0 for s in active}
    assignment: dict[str, str] = {}
    for ci in order:
        cluster = clusters[ci]
        split = max(active, key=lambda s: (targets[s] - assigned_counts[s], -active.index(s)))
        for entry in cluster:
            assignment[entry.sample_id] = split
        assigned_counts[split] += len(cluster)

    report = {
        "num_clusters": len(clusters),
        "cluster_sizes": sorted((len(c) for c in clusters), reverse=True),
        "sizes": dict(assigned_counts),
        "min_cross_split_km": min_cross_split_distance(pool, assignment),
    }
    return SplitResult(assignment=assignment, report=report)


def min_cross_split_distance(pool, assignment: dict[str, str]) -> float:
    """Minimum haversine distance between samples of different splits, exact:
    the KD-tree picks the candidates, haversine decides.

    A tree over the other splits' samples gives each sample its nearest
    cross-split chord. Only the rows holding a cross-split sample within the
    smallest of those chords, widened for rounding, are measured, each pair
    once in the row form of a sweep over all pairs (sample ``i`` against its
    partners ``j > i`` in pool order), so the returned float is the
    exhaustive minimum.
    """
    entries = [e for e in pool if e.sample_id in assignment]
    lats, lons = _coordinates(entries)
    splits = np.array([assignment[e.sample_id] for e in entries])
    names = np.unique(splits)
    if len(names) < 2:
        return float("inf")
    xyz = _unit_vectors(lats, lons)
    others: dict[str, tuple[cKDTree, np.ndarray]] = {}
    nearest = np.empty(len(entries))
    for name in names:
        mine = splits == name
        rows = np.nonzero(~mine)[0]
        others[name] = (cKDTree(xyz[rows]), rows)
        nearest[mine] = others[name][0].query(xyz[mine])[0]
    radius = _widen(nearest.min())
    best = float("inf")
    for i in np.nonzero(nearest <= radius)[0]:
        tree, rows = others[splits[i]]
        js = rows[tree.query_ball_point(xyz[i], radius)]
        js = js[js > i]
        if len(js):
            best = min(best, float(haversine_km(lats[i], lons[i], lats[js], lons[js]).min()))
    return best


def audit_splits(pool, assignment: dict[str, str], buffer_km: float | None = None,
                 quotas: dict | None = None) -> dict:
    """Disjointness/coverage report, plus distance and quota checks on demand.
    An assigned sample that is not in the pool raises SplitError naming it."""
    by_id = {e.sample_id: e for e in pool}
    absent = sorted(sid for sid in assignment if sid not in by_id)
    if absent:
        raise SplitError(f"assignment names samples absent from the pool: {absent}")
    sizes = Counter(assignment.values())
    unassigned = sorted(e.sample_id for e in pool if e.sample_id not in assignment)
    report = {
        "sizes": dict(sizes),
        "unassigned": unassigned,
        "assigned": len(assignment),
    }
    if buffer_km is not None:
        _check_buffer(buffer_km)
        min_km = min_cross_split_distance(pool, assignment)
        report["min_cross_split_km"] = min_km
        report["buffer_km"] = buffer_km
        report["buffer_respected"] = bool(min_km >= buffer_km)
    if quotas is not None:
        per_class = {split: Counter() for split in set(assignment.values())}
        for sid, split in assignment.items():
            for c in by_id[sid].labels:
                per_class[split][c] += 1
        report["per_class_counts"] = {s: dict(sorted(c.items())) for s, c in per_class.items()}
        report["quota_respected"] = all(
            count <= quotas.get(split, float("inf"))
            for split, counter in per_class.items() if split in quotas
            for count in counter.values()
        )
    return report
