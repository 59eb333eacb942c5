"""Sample transforms, manifest persistence, and blob storage."""

import json
import warnings

import numpy as np
import pytest

from peftseg.data import (DatasetManifest, IGNORE_INDEX, Sample, SampleInfo,
                          compute_band_stats, denormalize, normalize, reflect_pad_to,
                          subset_bands)
from peftseg.errors import DataError

BANDS = ("b1", "b2", "b3")


def make_sample(h=12, w=12, bands=BANDS, seed=0):
    rng = np.random.default_rng(seed)
    return Sample(
        sample_id="s0",
        image=rng.normal(2.0, 1.5, size=(len(bands), h, w)).astype(np.float32),
        mask=rng.integers(0, 2, size=(h, w)).astype(np.uint8),
        bands=bands,
        lat=47.0, lon=8.5, day_of_year=180, year=2022, region="r0",
    )


def test_mask_extent_must_match():
    with pytest.raises(DataError):
        Sample(sample_id="x", image=np.zeros((2, 4, 4), dtype=np.float32),
               mask=np.zeros((5, 4), dtype=np.uint8), bands=("a", "b"),
               lat=0, lon=0, day_of_year=1, year=2020, region="r")


def test_normalize_constant_band_is_zero():
    sample = make_sample()
    sample.image[0] = 7.5
    stats = {"b1": (7.5, 2.0), "b2": (0.0, 1.0), "b3": (0.0, 1.0)}
    out = normalize(sample, stats)
    assert not out.image[0].any()


def test_normalize_round_trip():
    sample = make_sample()
    stats = {"b1": (1.0, 2.0), "b2": (-3.0, 0.5), "b3": (0.2, 4.0)}
    back = denormalize(normalize(sample, stats), stats)
    np.testing.assert_allclose(back.image, sample.image, atol=1e-6)


def test_normalize_missing_stats_rejected():
    with pytest.raises(DataError):
        normalize(make_sample(), {"b1": (0.0, 1.0)})


def test_recomputed_stats_match(tmp_path):
    samples = [make_sample(seed=i) for i in range(5)]
    stats = compute_band_stats(samples, BANDS)
    normalized = [normalize(s, stats) for s in samples]
    re_stats = compute_band_stats(normalized, BANDS)
    for band in BANDS:
        assert abs(re_stats[band][0]) <= 1e-4
        assert abs(re_stats[band][1] - 1.0) <= 1e-4


def test_subset_keep_all_is_identity():
    sample = make_sample()
    out = subset_bands(sample, BANDS)
    np.testing.assert_array_equal(out.image, sample.image)
    assert out.bands == sample.bands


def test_subset_preserves_order_and_filters():
    sample = make_sample()
    out = subset_bands(sample, ["b3", "b1"])
    assert out.bands == ("b1", "b3")
    np.testing.assert_array_equal(out.image[0], sample.image[0])
    np.testing.assert_array_equal(out.image[1], sample.image[2])


def test_subset_unknown_band_rejected():
    with pytest.raises(DataError):
        subset_bands(make_sample(), ["b9"])


def test_reflect_pad_to_target():
    sample = make_sample(h=120, w=120)
    out = reflect_pad_to(sample, (128, 128))
    assert out.image.shape == (3, 128, 128)
    assert out.mask.shape == (128, 128)
    # padded border is ignore-labeled, interior mask preserved
    assert (out.mask[:4] == IGNORE_INDEX).all()
    np.testing.assert_array_equal(out.mask[4:124, 4:124], sample.mask)
    np.testing.assert_array_equal(out.image[:, 4:124, 4:124], sample.image)


def test_reflect_pad_identity_when_extent_matches():
    sample = make_sample()
    assert reflect_pad_to(sample, (12, 12)) is sample


def test_reflect_pad_smaller_target_rejected():
    with pytest.raises(DataError):
        reflect_pad_to(make_sample(), (8, 12))


def test_reflection_does_not_repeat_edge():
    sample = make_sample(h=3, w=3)
    sample.image[0, 0] = [1.0, 2.0, 3.0]
    out = reflect_pad_to(sample, (3, 5))
    np.testing.assert_array_equal(out.image[0, 0], [2.0, 1.0, 2.0, 3.0, 2.0])


def test_sample_storage_round_trip(tmp_path):
    manifest = DatasetManifest(root=tmp_path, num_classes=2, class_names=["a", "b"],
                               bands=BANDS, band_stats={b: (0.0, 1.0) for b in BANDS},
                               samples=[], splits={})
    sample = make_sample()
    manifest.save_sample(sample)
    loaded = manifest.load_sample("s0")
    assert np.array_equal(loaded.image.view(np.uint32), sample.image.view(np.uint32))
    np.testing.assert_array_equal(loaded.mask, sample.mask)
    assert loaded.bands == sample.bands and loaded.region == sample.region


@pytest.mark.parametrize("blob", ["img", "mask"])
def test_truncated_sample_blob_rejected(tmp_path, blob):
    manifest = DatasetManifest(root=tmp_path, num_classes=2, class_names=["a", "b"],
                               bands=BANDS, band_stats={b: (0.0, 1.0) for b in BANDS},
                               samples=[], splits={})
    manifest.save_sample(make_sample())
    path = tmp_path / "samples" / f"s0.{blob}"
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(DataError, match="'s0'.*s0." + blob):
        manifest.load_sample("s0")


@pytest.mark.parametrize("fault", ["unparsable sidecar", "sidecar without region",
                                   "non-list shape", "missing img"])
def test_unreadable_sample_raises_data_error_naming_it(tmp_path, fault):
    manifest = DatasetManifest(root=tmp_path, num_classes=2, class_names=["a", "b"],
                               bands=BANDS, band_stats={b: (0.0, 1.0) for b in BANDS},
                               samples=[], splits={})
    manifest.save_sample(make_sample())
    sidecar = tmp_path / "samples" / "s0.json"
    meta = json.loads(sidecar.read_text())
    if fault == "unparsable sidecar":
        sidecar.write_text("{\"bands\": [")
    elif fault == "sidecar without region":
        del meta["region"]
        sidecar.write_text(json.dumps(meta))
    elif fault == "non-list shape":
        sidecar.write_text(json.dumps({**meta, "shape": 5}))
    else:
        (tmp_path / "samples" / "s0.img").unlink()
    with pytest.raises(DataError, match="'s0'"):
        manifest.load_sample("s0")


@pytest.mark.parametrize("fault", ["unparsable", "missing key", "mistyped samples"])
def test_unreadable_manifest_raises_data_error(tmp_path, fault):
    DatasetManifest(root=tmp_path, num_classes=2, class_names=["a", "b"], bands=BANDS,
                    band_stats={b: (0.0, 1.0) for b in BANDS}, samples=[], splits={}).save()
    path = tmp_path / "manifest.json"
    payload = json.loads(path.read_text())
    if fault == "unparsable":
        path.write_text(path.read_text()[:-2])
    elif fault == "missing key":
        del payload["splits"]
        path.write_text(json.dumps(payload))
    else:
        path.write_text(json.dumps({**payload, "samples": 5}))
    with pytest.raises(DataError, match="manifest.json"):
        DatasetManifest.load(tmp_path)


def test_manifest_round_trip(tmp_path):
    info = SampleInfo(sample_id="s0", region="r0", lat=1.0, lon=2.0,
                      day_of_year=3, year=2021, labels=(0, 1))
    manifest = DatasetManifest(root=tmp_path, num_classes=2, class_names=["a", "b"],
                               bands=BANDS, band_stats={b: (0.5, 2.0) for b in BANDS},
                               samples=[info], splits={"s0": "train"})
    manifest.save()
    loaded = DatasetManifest.load(tmp_path)
    assert loaded.num_classes == 2
    assert loaded.samples == [info]
    assert loaded.splits == {"s0": "train"}
    assert loaded.band_stats == {b: (0.5, 2.0) for b in BANDS}


def test_zero_std_rejected(tmp_path):
    with pytest.raises(DataError):
        DatasetManifest(root=tmp_path, num_classes=2, class_names=["a", "b"],
                        bands=BANDS, band_stats={"b1": (0.0, 0.0)}, samples=[], splits={})


@pytest.mark.parametrize("mean,std", [(0.0, np.nan), (np.nan, 1.0), (np.inf, 1.0),
                                      (0.0, np.inf), (0.0, -1.0)])
def test_unusable_band_stat_rejected_by_manifest_and_normalize(tmp_path, mean, std):
    """A NaN std passes a ``std <= 0`` test: such a manifest.json once loaded and
    evaluated to a plausible mIoU from NaN logits."""
    stats = {b: (0.0, 1.0) for b in BANDS}
    DatasetManifest(root=tmp_path, num_classes=2, class_names=["a", "b"],
                    bands=BANDS, band_stats=stats, samples=[], splits={}).save()
    path = tmp_path / "manifest.json"
    payload = json.loads(path.read_text())
    payload["band_stats"]["b2"] = {"mean": mean, "std": std}
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="'b2'"):
        DatasetManifest.load(tmp_path)
    with pytest.raises(DataError, match="'b2'"):
        normalize(make_sample(), {**stats, "b2": (mean, std)})


@pytest.mark.parametrize("pixel", [np.nan, np.inf])
def test_non_finite_pixel_makes_band_stats_raise(pixel):
    samples = [make_sample(seed=i) for i in range(3)]
    samples[1].image[1, 4, 4] = pixel
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from inf - inf on the way
        with pytest.raises(DataError, match="band 'b2' has a non-finite pixel"):
            compute_band_stats(samples, BANDS)


def test_verify_files_lists_missing(tmp_path):
    info = SampleInfo(sample_id="ghost", region="r", lat=0, lon=0,
                      day_of_year=1, year=2020, labels=(0,))
    manifest = DatasetManifest(root=tmp_path, num_classes=2, class_names=["a", "b"],
                               bands=BANDS, band_stats={b: (0.0, 1.0) for b in BANDS},
                               samples=[info], splits={})
    assert manifest.verify_files() == ["ghost"]
