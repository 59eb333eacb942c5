"""Split-construction procedures and their audits.

Two builders: a class-balanced sampler drawing per-class quotas from a
multi-label pool with excluded regions feeding a geographic hold-out, and a
buffered spatial builder that single-links samples closer than the buffer
into clusters and assigns whole clusters to splits, guaranteeing a minimum
cross-split distance. Both are deterministic given the seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

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


def _single_linkage_clusters(pool, buffer_km: float) -> list[list]:
    """Connected components of the graph joining samples closer than the
    buffer; members keep pool order, clusters sort by smallest sample id."""
    n = len(pool)
    lats = np.array([e.lat for e in pool])
    lons = np.array([e.lon for e in pool])
    near = [i + 1 + np.nonzero(haversine_km(lats[i], lons[i], lats[i + 1:], lons[i + 1:])
                               < buffer_km)[0] for i in range(n)]
    rows = np.repeat(np.arange(n), [len(cols) for cols in near])
    graph = coo_matrix((np.ones(len(rows), dtype=bool), (rows, np.concatenate(near))),
                       shape=(n, n))
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
    """Exhaustive minimum haversine distance between samples of different splits."""
    entries = [e for e in pool if e.sample_id in assignment]
    best = float("inf")
    lats = np.array([e.lat for e in entries])
    lons = np.array([e.lon for e in entries])
    splits = np.array([assignment[e.sample_id] for e in entries])
    for i in range(len(entries)):
        dists = haversine_km(lats[i], lons[i], lats[i + 1:], lons[i + 1:])
        cross = splits[i + 1:] != splits[i]
        if cross.any():
            best = min(best, float(dists[cross].min()))
    return best


def audit_splits(pool, assignment: dict[str, str], buffer_km: float | None = None,
                 quotas: dict | None = None) -> dict:
    """Disjointness/coverage report, plus distance and quota checks on demand."""
    sizes = Counter(assignment.values())
    unassigned = sorted(e.sample_id for e in pool if e.sample_id not in assignment)
    report = {
        "sizes": dict(sizes),
        "unassigned": unassigned,
        "assigned": len(assignment),
    }
    if buffer_km is not None:
        min_km = min_cross_split_distance(pool, assignment)
        report["min_cross_split_km"] = min_km
        report["buffer_km"] = buffer_km
        report["buffer_respected"] = bool(min_km >= buffer_km)
    if quotas is not None:
        per_class = {split: Counter() for split in set(assignment.values())}
        by_id = {e.sample_id: e for e in pool}
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
