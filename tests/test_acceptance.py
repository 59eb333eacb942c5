"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The learning-based
criteria share the session-cached method x seed training grid from conftest,
so the whole suite stays in the minutes range on one CPU.
"""

import json
import time
import zlib

import numpy as np

from peftseg.autodiff import Tensor, functional as F, grad_check
from peftseg.autodiff.primitives import registered_primitives
from peftseg.backbone import ViTBackbone, vit_base_config, vit_large_config
from peftseg.diagnostics import distance_report, lora_param_count, vpt_param_count
from peftseg.metrics import ConfusionMatrix, miou
from peftseg.model import build_model
from peftseg.peft import LoraConfig, VptConfig, attach_lora, merge_lora, policy_trains
from peftseg.splits import (build_buffered_spatial_splits, build_class_balanced_splits,
                            min_cross_split_distance)
from peftseg.training import EarlyStopping, ReduceOnPlateau
from peftseg.data import SampleInfo

from conftest import BANDS6, BANDS10, DESK_SEEDS, METHOD_LRS, tiny_backbone
from test_metrics import brute_force_miou


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} [{status}] {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def clone_model(run_cfg, trained_model):
    """Fresh build with the trained weights, so tests can mutate freely."""
    model = build_model(run_cfg.backbone, run_cfg.decoder, run_cfg.method,
                        seed=run_cfg.seed, lora_cfg=run_cfg.lora,
                        vpt_cfg=run_cfg.vpt, adapter_cfg=run_cfg.adapter)
    model.load_state_dict(trained_model.state_dict())
    return model


# ---------------------------------------------------------------------------
# 1. parameter-count table reproduction (exact integers, < 1 s)


def test_criterion_1_parameter_table():
    t0 = time.perf_counter()
    vit_b = vit_base_config(BANDS6)
    vit_l = vit_large_config(BANDS6)
    values = {
        "vit_b_vpt": vpt_param_count(vit_b, VptConfig()),
        "vit_b_lora": lora_param_count(vit_b, LoraConfig()),
        "vit_l_vpt": vpt_param_count(vit_l, VptConfig()),
        "vit_l_lora": lora_param_count(vit_l, LoraConfig()),
    }
    elapsed = time.perf_counter() - t0
    expected = {"vit_b_vpt": 921_600, "vit_b_lora": 2_064_384,
                "vit_l_vpt": 2_457_600, "vit_l_lora": 5_505_024}
    ok = values == expected and elapsed < 1.0
    report(1, "published parameter counts reproduced exactly", ok,
           f"{values}, {elapsed * 1e3:.1f} ms")


# ---------------------------------------------------------------------------
# 2. LoRA identity at attachment + merge equivalence after training


def test_criterion_2_lora_identity_and_merge(desk_runs, desk_manifest, desk_backbone):
    worst_attach = 0.0
    for cfg_seed in (0, 1):
        cfg = tiny_backbone()
        plain = ViTBackbone(cfg, seed=cfg_seed)
        adapted = attach_lora(ViTBackbone(cfg, seed=cfg_seed), LoraConfig(), seed=cfg_seed + 50)
        for trial in range(20):
            rng = np.random.default_rng(1000 * cfg_seed + trial)
            image = rng.normal(size=(6, 64, 64)).astype(np.float32)
            a = plain.forward_features(plain.embed_patches(image))[-1].data
            b = adapted.forward_features(adapted.embed_patches(image))[-1].data
            worst_attach = max(worst_attach, float(np.abs(a - b).max()))

    from conftest import desk_run_config
    run_cfg = desk_run_config(desk_manifest, desk_backbone, "lora", 0)
    model = clone_model(run_cfg, desk_runs[("lora", 0)].model)
    rng = np.random.default_rng(77)
    images = rng.normal(size=(2, 6, 64, 64)).astype(np.float32)
    before = model.forward(images).data.copy()
    merge_lora(model.backbone)
    after = model.forward(images).data
    worst_merge = float(np.abs(before - after).max())

    ok = worst_attach <= 1e-6 and worst_merge <= 1e-5
    report(2, "LoRA attachment identity <= 1e-6 and merge equivalence <= 1e-5", ok,
           f"attach {worst_attach:.2e}, merge {worst_merge:.2e}")


# ---------------------------------------------------------------------------
# 3. gradient correctness for every differentiable primitive + adjoint


GRAD_EPS = 1e-3


def _top_two_gap(x: np.ndarray, k: int) -> float:
    """Smallest gap between the two largest values of any k x k pooling window."""
    b, c, h, w = x.shape
    windows = x.reshape(b, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
    top = np.sort(windows.reshape(-1, k * k), axis=1)
    return float((top[:, -1] - top[:, -2]).min())


def _bn_relu_kink_gap(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> float:
    """Smallest distance of a training-mode batch-norm output from 0, over its
    slope in x: how far an input may move before some output crosses the kink."""
    x = x.astype(np.float64)
    mean, var = x.mean(axis=(0, 2, 3), keepdims=True), x.var(axis=(0, 2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    scale = np.abs(gamma.reshape(1, -1, 1, 1)) * inv
    return float((np.abs((x - mean) * inv * gamma.reshape(1, -1, 1, 1)
                         + beta.reshape(1, -1, 1, 1)) / scale).min())


def _gradcheck_case(op_id: str, rng: np.random.Generator):
    """Point tensor and scalar-valued function exercising one primitive."""
    def pt(shape, scale=1.0, away_from_zero=False):
        arr = rng.normal(size=shape) * scale
        if away_from_zero:
            arr = np.where(np.abs(arr) < 0.1, arr + 0.3 * np.sign(arr + 1e-12), arr)
        return Tensor(arr.astype(np.float32))

    if op_id == "add":
        other, c = pt((3, 4)), pt((3, 4))
        return pt((3, 4)), lambda x: F.sum(F.mul(F.add(x, other), c))
    if op_id == "sub":
        other, c = pt((3, 4)), pt((3, 4))
        return pt((3, 4)), lambda x: F.sum(F.mul(F.sub(x, other), c))
    if op_id == "mul":
        other, c = pt((3, 4)), pt((3, 4))
        return pt((3, 4)), lambda x: F.sum(F.mul(F.mul(x, other), c))
    if op_id == "neg":
        c = pt((5,))
        return pt((5,)), lambda x: F.sum(F.mul(F.neg(x), c))
    if op_id == "scale":
        c = pt((5,))
        return pt((5,)), lambda x: F.sum(F.mul(F.scale(x, 2.5), c))
    if op_id == "reshape":
        c = pt((6,))
        return pt((2, 3)), lambda x: F.sum(F.mul(F.reshape(x, (6,)), c))
    if op_id == "transpose":
        c = pt((3, 2))
        return pt((2, 3)), lambda x: F.sum(F.mul(F.transpose(x, (1, 0)), c))
    if op_id == "slice":
        c = pt((2, 2))
        return pt((4, 3)), lambda x: F.sum(F.mul(F.slice_ranges(x, ((1, 3), (0, 2))), c))
    if op_id == "concat":
        other = pt((2, 2))
        c = pt((2, 5))
        return pt((2, 3)), lambda x: F.sum(F.mul(F.concat([x, other], axis=1), c))
    if op_id == "sum":
        c = pt((3,))
        return pt((3, 4)), lambda x: F.sum(F.mul(F.sum(x, axes=(1,)), c))
    if op_id == "mean":
        c = pt((4,))
        return pt((3, 4)), lambda x: F.sum(F.mul(F.mean(x, axes=(0,)), c))
    if op_id == "matmul":
        w = pt((4, 3))
        c = pt((2, 3))
        return pt((2, 4)), lambda x: F.sum(F.mul(F.matmul(x, w), c))
    if op_id == "matmul bias":  # the point is the bias, added inside the matmul node
        a, w = pt((2, 4)), pt((3, 4))
        c = pt((2, 3))
        return pt((3,)), lambda x: F.sum(F.mul(F.matmul(a, w, x, transpose_b=True), c))
    if op_id == "matmul bias addend":  # the point reaches every input of one node
        w, w2 = pt((4, 3)), pt((4, 3))
        c = pt((2, 3))
        return pt((2, 4)), lambda x: F.sum(F.mul(F.matmul(
            x, w, F.slice_ranges(F.mean(x, axes=(0,)), ((0, 3),)), F.matmul(x, w2)), c))
    if op_id == "gelu":
        c = pt((8,))
        return pt((8,)), lambda x: F.sum(F.mul(F.gelu(x), c))
    if op_id == "relu":
        c = pt((8,))
        return pt((8,), away_from_zero=True), lambda x: F.sum(F.mul(F.relu(x), c))
    if op_id == "softmax":
        c = pt((2, 5))
        return pt((2, 5)), lambda x: F.sum(F.mul(F.softmax(x, axis=-1), c))
    if op_id == "softmax alpha":  # the attention scale folded into softmax
        c = pt((2, 3, 4))
        return pt((2, 3, 4)), lambda x: F.sum(F.mul(F.softmax(x, axis=-1, alpha=0.35), c))
    if op_id == "log_softmax":
        c = pt((2, 5))
        return pt((2, 5)), lambda x: F.sum(F.mul(F.log_softmax(x, axis=-1), c))
    if op_id == "layer_norm":
        g, b, c = pt((6,)), pt((6,)), pt((3, 6))
        return pt((3, 6)), lambda x: F.sum(F.mul(F.layer_norm(x, g, b), c))
    if op_id == "batch_norm2d":
        g, b = pt((2,)), pt((2,))
        rm = Tensor(np.zeros(2, dtype=np.float32))
        rv = Tensor(np.ones(2, dtype=np.float32))
        c = pt((2, 2, 3, 3))
        return pt((2, 2, 3, 3)), lambda x: F.sum(F.mul(
            F.batch_norm2d(x, g, b, rm, rv, training=True), c))
    if op_id == "batch_norm2d relu":  # the conv-BN-ReLU block's fused ReLU
        g, b = pt((2,)), pt((2,))
        rm = Tensor(np.zeros(2, dtype=np.float32))
        rv = Tensor(np.ones(2, dtype=np.float32))
        c = pt((2, 2, 3, 3))
        x = pt((2, 2, 3, 3))
        # keep every output more than 4*eps (in input units) from the ReLU kink
        while _bn_relu_kink_gap(x.data, g.data, b.data) <= 4 * GRAD_EPS:
            x = pt((2, 2, 3, 3))
        return x, lambda x: F.sum(F.mul(
            F.batch_norm2d(x, g, b, rm, rv, training=True, relu=True), c))
    if op_id == "conv2d":
        w = pt((3, 2, 3, 3), scale=0.5)
        c = pt((1, 3, 3, 3))
        return pt((1, 2, 5, 5)), lambda x: F.sum(F.mul(
            F.conv2d(x, w, stride=2, padding=1), c))
    if op_id == "resized_conv2d":  # the composite of a conv over a resized map
        w = pt((3, 2, 3, 3), scale=0.5)
        c = pt((1, 3, 5, 7))
        return pt((1, 2, 3, 4)), lambda x: F.sum(F.mul(F.resized_conv2d(x, w, 5, 7, padding=1), c))
    if op_id == "resized_conv2d weight":
        x = pt((1, 2, 3, 4))
        c = pt((1, 3, 5, 7))
        return pt((3, 2, 3, 3), scale=0.5), lambda w: F.sum(F.mul(
            F.resized_conv2d(x, w, 5, 7, padding=1), c))
    if op_id == "conv_transpose2d":
        w = pt((2, 3, 2, 2), scale=0.5)
        c = pt((1, 3, 6, 6))
        return pt((1, 2, 3, 3)), lambda x: F.sum(F.mul(
            F.conv_transpose2d(x, w, stride=2), c))
    if op_id == "bilinear_resize":
        c = pt((1, 2, 5, 7))
        return pt((1, 2, 3, 4)), lambda x: F.sum(F.mul(F.bilinear_resize(x, 5, 7), c))
    if op_id == "reflect_pad2d":
        c = pt((1, 1, 7, 8))
        return pt((1, 1, 3, 4)), lambda x: F.sum(F.mul(F.reflect_pad2d(x, 2, 2), c))
    if op_id == "avg_pool2d":
        c = pt((1, 2, 2, 2))
        return pt((1, 2, 5, 5)), lambda x: F.sum(F.mul(F.avg_pool2d(x, 2, 2), c))
    if op_id == "max_pool2d":
        c = pt((1, 1, 2, 2))
        x = pt((1, 1, 4, 4))
        # a central difference across the max kink is no derivative: keep every
        # window's top two values more than 2*eps apart
        while _top_two_gap(x.data, 2) <= 2 * GRAD_EPS:
            x = pt((1, 1, 4, 4))
        return x, lambda x: F.sum(F.mul(F.max_pool2d(x, 2, 2), c))
    if op_id == "adaptive_avg_pool2d":
        c = pt((1, 2, 3, 3))
        return pt((1, 2, 5, 7)), lambda x: F.sum(F.mul(F.adaptive_avg_pool2d(x, 3, 3), c))
    if op_id == "dropout":
        c = pt((4, 4))
        return pt((4, 4)), lambda x: F.sum(F.mul(F.dropout(x, 0.4, seed=7), c))
    raise AssertionError(f"no gradient-check case for primitive {op_id!r}")


def test_criterion_3_gradients_and_adjoint():
    worst = {}
    for op_id in (*registered_primitives(), "softmax alpha", "batch_norm2d relu", "matmul bias",
                  "matmul bias addend", "resized_conv2d", "resized_conv2d weight"):
        errs = []
        for instance in range(20):
            rng = np.random.default_rng(zlib.crc32(f"{op_id}/{instance}".encode()))
            point, fn = _gradcheck_case(op_id, rng)
            errs.append(grad_check(fn, point, eps=GRAD_EPS))
        worst[op_id] = max(errs)
    grad_ok = all(err <= 1e-3 for err in worst.values())

    adjoint_worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(500 + trial)
        stride = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        pad = int(rng.integers(0, k))
        h = int(rng.integers(k + 2, k + 7))
        x = Tensor(rng.normal(size=(2, 3, h, h)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 3, k, k)).astype(np.float32))
        y = F.conv2d(x, w, stride=stride, padding=pad)
        z = Tensor(rng.normal(size=y.shape).astype(np.float32))
        xt = F.conv_transpose2d(z, w, stride=stride, padding=pad, output_size=(h, h))
        lhs = float(np.vdot(y.data.astype(np.float64), z.data.astype(np.float64)))
        rhs = float(np.vdot(x.data.astype(np.float64), xt.data.astype(np.float64)))
        adjoint_worst = max(adjoint_worst,
                            abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    adjoint_ok = adjoint_worst <= 1e-5

    bad = {op: f"{err:.1e}" for op, err in worst.items() if err > 1e-3}
    report(3, "all primitives pass grad check <= 1e-3; conv adjoint <= 1e-5",
           grad_ok and adjoint_ok,
           f"{len(worst)} cases, worst {max(worst.values()):.1e}"
           f"{', failing ' + str(bad) if bad else ''}, adjoint {adjoint_worst:.1e}")


# ---------------------------------------------------------------------------
# 4. freeze-policy soundness over full 30-epoch runs


def test_criterion_4_frozen_bitwise(desk_runs, desk_manifest, desk_backbone):
    from conftest import desk_run_config
    violations = []
    for method in ("linear_probe", "lora", "vpt", "vit_adapter"):
        cfg = desk_run_config(desk_manifest, desk_backbone, method, 0)
        run = desk_runs[(method, 0)]
        assert len(run.history) == 30, "expected the full 30-epoch budget"
        initial = build_model(cfg.backbone, cfg.decoder, cfg.method, seed=cfg.seed,
                              lora_cfg=cfg.lora, vpt_cfg=cfg.vpt, adapter_cfg=cfg.adapter)
        trained = {name: t for name, t in run.model.named_parameters()}
        for name, t0 in initial.named_parameters():
            if policy_trains(method, name):
                continue
            if not np.array_equal(t0.data, trained[name].data):
                violations.append((method, name))
    report(4, "frozen parameters bitwise unchanged after full 30-epoch runs",
           not violations, f"checked 4 policies{'; violations ' + str(violations[:3]) if violations else ''}")


# ---------------------------------------------------------------------------
# 5. scheduler / early-stop state machine traces


def test_criterion_5_protocol_state_machine():
    class Opt:
        lr = 1.0

    opt = Opt()
    sched = ReduceOnPlateau(opt, patience=4, factor=0.5)
    lr_trace = {}
    for epoch, metric in enumerate([50, 49, 48, 47, 46, 45, 44, 43, 42, 41], start=1):
        sched.step(metric)
        lr_trace[epoch] = opt.lr
    plateau_ok = (lr_trace[4] == 1.0 and lr_trace[5] == 0.5
                  and lr_trace[8] == 0.5 and lr_trace[9] == 0.25)

    stopper = EarlyStopping(patience=15)
    stop_epoch = None
    for epoch, metric in enumerate(range(100, 0, -1), start=1):
        if stopper.step(metric):
            stop_epoch = epoch
            break
    stop_ok = stop_epoch == 16  # best at epoch 1, then 15 bad epochs

    improving = EarlyStopping(patience=15)
    never = all(not improving.step(m) for m in range(1, 40))

    ok = plateau_ok and stop_ok and never
    report(5, "plateau (patience 4, factor 0.5) and early-stop (15) traces exact", ok,
           f"lr@5 {lr_trace[5]}, lr@9 {lr_trace[9]}, stop at {stop_epoch}")


# ---------------------------------------------------------------------------
# 6. desk-scale learning: thresholds and method ordering over 5-seed means


def test_criterion_6_desk_scale_learning(desk_runs):
    means = {}
    for method in ("full_finetune", "lora", "linear_probe"):
        scores = [desk_runs[(method, s)].final_metrics["test"]["miou"] for s in DESK_SEEDS]
        means[method] = float(np.mean(scores))
    ok = (means["full_finetune"] >= 90.0 and means["lora"] >= 90.0
          and means["linear_probe"] >= 70.0
          and means["full_finetune"] > means["linear_probe"]
          and means["lora"] > means["linear_probe"]
          and abs(means["full_finetune"] - means["lora"]) <= 5.0)
    report(6, "full FT and LoRA >= 90, linear probe >= 70, full ~ LoRA > probe", ok,
           ", ".join(f"{m} {v:.1f}" for m, v in means.items()))


# ---------------------------------------------------------------------------
# 7. generalization diagnostics: distance ordering and GHOS gap


def test_criterion_7_generalization(desk_runs, desk_manifest):
    orderings = []
    for seed in DESK_SEEDS:
        model = desk_runs[("full_finetune", seed)].model
        rep = distance_report(model, desk_manifest)
        orderings.append((seed, rep.val, rep.test, rep.ghos,
                          rep.ghos > rep.test >= rep.val))
    distance_ok = all(flag for *_, flag in orderings)

    gap_ok = True
    gaps = {}
    for method in METHOD_LRS:
        test_mean = float(np.mean([desk_runs[(method, s)].final_metrics["test"]["miou"]
                                   for s in DESK_SEEDS]))
        ghos_mean = float(np.mean([desk_runs[(method, s)].final_metrics["ghos"]["miou"]
                                   for s in DESK_SEEDS]))
        gaps[method] = (test_mean, ghos_mean)
        if ghos_mean > test_mean:
            gap_ok = False

    sample = orderings[0]
    report(7, "mean min-distance ghos > test >= val and GHOS mIoU <= test mIoU",
           distance_ok and gap_ok,
           f"seed0 distances v/t/g {sample[1]:.2f}/{sample[2]:.2f}/{sample[3]:.2f}; "
           + ", ".join(f"{m} {t:.0f}->{g:.0f}" for m, (t, g) in gaps.items()))


# ---------------------------------------------------------------------------
# 8. mIoU oracle equivalence


def test_criterion_8_miou_oracle():
    rng = np.random.default_rng(4242)
    checked = 0
    exact = True
    for _ in range(200):
        k = int(rng.integers(2, 7))
        h, w = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        ref = rng.integers(0, k, size=(h, w))
        ref = np.where(rng.random((h, w)) < 0.25, 255, ref)
        pred = rng.integers(0, k, size=(h, w))
        if (ref == 255).all():
            continue
        cm = ConfusionMatrix(k)
        cm.update(ref, pred)
        try:
            ours = miou(cm)
        except Exception:
            continue
        if abs(ours - brute_force_miou(ref, pred, k)) > 1e-9:
            exact = False
        checked += 1
    report(8, "mIoU equals brute-force set computation incl. ignore handling",
           exact and checked >= 150, f"{checked} random pairs")


# ---------------------------------------------------------------------------
# 9. split-builder audits


def test_criterion_9_split_audits():
    rng = np.random.default_rng(31)
    geo_pool = [SampleInfo(sample_id=f"g{i:03d}", region="r",
                           lat=float(rng.uniform(-1.5, 1.5)), lon=float(rng.uniform(-1.5, 1.5)),
                           day_of_year=1, year=2020, labels=(0,))
                for i in range(80)]
    buffered = build_buffered_spatial_splits(geo_pool, buffer_km=5.0, seed=4)
    min_km = min_cross_split_distance(geo_pool, buffered.assignment)
    buffered_again = build_buffered_spatial_splits(geo_pool, buffer_km=5.0, seed=4)
    buffered_identical = (json.dumps(buffered.assignment, sort_keys=True).encode()
                          == json.dumps(buffered_again.assignment, sort_keys=True).encode())

    label_pool = []
    for i in range(1500):
        region = ("austria", "ireland", "core_a", "core_b", "core_c")[int(rng.integers(0, 5))]
        labels = tuple(sorted(set(rng.integers(0, 19, size=int(rng.integers(1, 5))).tolist())))
        label_pool.append(SampleInfo(sample_id=f"s{i:05d}", region=region, lat=0.0, lon=0.0,
                                     day_of_year=1, year=2020, labels=labels))
    quotas = {"train": 250, "val": 50, "test": 50}
    balanced = build_class_balanced_splits(label_pool, quotas=quotas,
                                           excluded_regions=("austria", "ireland"),
                                           ghos_quota=50, seed=9)
    counts = balanced.report["per_class_counts"]
    quota_ok = all(count <= quotas[split]
                   for split in quotas for count in counts[split].values())
    quota_ok &= all(count <= 50 for count in counts["ghos"].values())
    by_id = {e.sample_id: e for e in label_pool}
    ghos_ok = all(by_id[sid].region in ("austria", "ireland")
                  for sid, split in balanced.assignment.items() if split == "ghos")
    non_ghos_ok = all(by_id[sid].region not in ("austria", "ireland")
                      for sid, split in balanced.assignment.items() if split != "ghos")
    balanced_again = build_class_balanced_splits(label_pool, quotas=quotas,
                                                 excluded_regions=("austria", "ireland"),
                                                 ghos_quota=50, seed=9)
    balanced_identical = (json.dumps(balanced.assignment, sort_keys=True).encode()
                          == json.dumps(balanced_again.assignment, sort_keys=True).encode())

    ok = (min_km >= 5.0 and buffered_identical and quota_ok and ghos_ok
          and non_ghos_ok and balanced_identical)
    report(9, "buffer >= 5 km, quotas respected, GHOS exclusive, reruns byte-identical",
           ok, f"min cross-split {min_km:.2f} km")


# ---------------------------------------------------------------------------
# 10. band robustness: exact equivalence + similar degradation when frozen


def test_criterion_10_band_robustness(band_runs):
    cfg = tiny_backbone(bands=BANDS10, image=(32, 32))
    backbone = ViTBackbone(cfg, seed=8)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(5):
        image = rng.normal(size=(10, 32, 32)).astype(np.float32)
        imputed = image.copy()
        imputed[6:] = 0.0
        sub = backbone.forward_features(backbone.embed_patches(image[:6], BANDS10[:6]))[-1].data
        full = backbone.forward_features(backbone.embed_patches(imputed, BANDS10))[-1].data
        worst = max(worst, float(np.abs(sub - full).max()))
    equiv_ok = worst <= 1e-6

    drops = {}
    for method in ("full_finetune", "linear_probe"):
        all_mean = float(np.mean([band_runs[(method, "all", s)].final_metrics["test"]["miou"]
                                  for s in (0, 1, 2)]))
        sub_mean = float(np.mean([band_runs[(method, "subset", s)].final_metrics["test"]["miou"]
                                  for s in (0, 1, 2)]))
        drops[method] = all_mean - sub_mean
    # "small and statistically similar": documented bounds, since the
    # criterion makes no fixed numeric claim
    small_ok = all(drop <= 8.0 for drop in drops.values())
    similar_ok = abs(drops["full_finetune"] - drops["linear_probe"]) <= 6.0

    report(10, "band-subset forward equivalence <= 1e-6; similar small drops "
               "for frozen vs unfrozen patch embeddings",
           equiv_ok and small_ok and similar_ok,
           f"equiv {worst:.1e}, drops full {drops['full_finetune']:.1f}pp, "
           f"probe {drops['linear_probe']:.1f}pp")
