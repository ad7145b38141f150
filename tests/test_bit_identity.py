"""Bit-identity of the vectorized weight build, the supported-band kernel and
the fused confusion kernel against in-test copies of the straightforward
scalar sampler, dense fixed-order accumulation loop and masked bincount they
replace, and of mIoU's exact mean against a sum of Fractions."""

import json
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsadapt.cli import main
from hsadapt.cube_io import HyperCube, LabelMask, write_mask
from hsadapt.errors import EmptySupportError, ValidationError
from hsadapt.metrics import ConfusionMatrix, accumulate_confusion, miou
from hsadapt.resample import WeightMatrix, build_weight_matrix, resample_cube
from hsadapt.spectral import SensorSpec, SrfTable, TargetBand, WavelengthGrid
from oracles import confusion_tally


def scalar_srf(grid, col, wavelength):
    """Per-entry sampler: zero outside the table, the tabulated value at a
    tabulation point, np.interp between."""
    grid = np.asarray(grid, dtype=np.float64)
    if wavelength < grid[0] or wavelength > grid[-1]:
        return 0.0
    col = np.asarray(col, dtype=np.float64)
    exact = np.nonzero(grid == wavelength)[0]
    if exact.size:
        return float(col[exact[0]])
    return float(np.interp(wavelength, grid, col))


def dense_resample(data, weights, allow_nan):
    """Dense fixed-order float64 loop: every pixel sums j = 0..C-1 in order,
    zero-weight terms included; NaN inputs are zero-filled, then the output
    bands they support are poisoned."""
    h, w, c = data.shape
    block = data.astype(np.float64).reshape(-1, c)
    poisoned = None
    if allow_nan:
        nan_mask = np.isnan(block)
        poisoned = nan_mask @ (weights > 0.0)
        block = np.where(nan_mask, 0.0, block)
    acc = np.zeros((block.shape[0], weights.shape[1]), dtype=np.float64)
    for j in range(c):
        acc += block[:, j, None] * weights[j, :]
    if poisoned is not None:
        acc[poisoned] = np.nan
    return acc.astype(np.float32).reshape(h, w, -1)


@st.composite
def srf_cases(draw):
    n_tab = draw(st.integers(2, 12))
    tab = np.unique(draw(st.lists(st.floats(400.0, 900.0), min_size=n_tab, max_size=n_tab)))
    assume(tab.size >= 2)
    k = draw(st.integers(1, 3))
    cols = [
        draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, 0.3, 7.5e-3]) | st.floats(0.0, 2.0),
                      min_size=tab.size, max_size=tab.size))
        for _ in range(k)
    ]
    # Input centers: exact tabulation points (both ends always), points between
    # them, and points outside the table.
    lam = {float(tab[0]), float(tab[-1])}
    lam |= set(draw(st.lists(st.sampled_from(tab.tolist()), max_size=6)))
    lam |= set(draw(st.lists(st.floats(350.0, 950.0), max_size=8)))
    return tab, cols, np.sort(np.fromiter(lam, dtype=np.float64))


@settings(max_examples=60, deadline=None)
@given(srf_cases())
def test_weights_equal_per_entry_scalar_sampling(case):
    tab, cols, lam = case
    names = tuple(f"B{i}" for i in range(len(cols)))
    table = SrfTable(grid=tuple(tab.tolist()), sensitivities=tuple(tuple(c) for c in cols),
                     band_names=names)
    spec = SensorSpec("t", tuple(TargetBand(n, 500.0) for n in names))
    raw = np.asarray([[scalar_srf(tab, col, x) for col in cols] for x in lam], dtype=np.float64)
    sums = raw.sum(axis=0)
    grid = WavelengthGrid(tuple(lam.tolist()))
    if np.any(sums == 0.0):
        with pytest.raises(EmptySupportError):
            build_weight_matrix(grid, table, spec)
        return
    w = build_weight_matrix(grid, table, spec)
    want = raw / sums
    assert w.weights.tobytes() == want.tobytes()
    assert w.support_counts == tuple(int(n) for n in np.count_nonzero(want, axis=0))


QUIET_NANS = [0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFFFFFFF]


@st.composite
def kernel_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    c, k = draw(st.integers(1, 16)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        # Equal power-of-two weights on values of very different magnitude:
        # every product is exact, so the sum shows the accumulation order.
        raw = np.zeros((c, k))
        for b in range(k):
            support = 2 ** int(rng.integers(0, int(np.log2(c)) + 1))
            raw[rng.choice(c, support, replace=False), b] = 1.0
        values = np.float32([2.0**100, -(2.0**100), 1.0, -1.0, 2.0**-30, 0.0])
        data = rng.choice(values, (h, w, c))
    else:
        density = draw(st.sampled_from([0.15, 0.5, 1.0]))
        raw = rng.random((c, k)) * (rng.random((c, k)) < density)
        raw[rng.integers(0, c, k), np.arange(k)] += 0.5  # every band has support
        scale = draw(st.sampled_from([1.0, 1e-3, 1e4]))
        data = (rng.standard_normal((h, w, c)) * scale).astype(np.float32)
        data[rng.random((h, w, c)) < 0.05] = 0.0
        data[rng.random((h, w, c)) < 0.05] = -0.0
    weights = raw / raw.sum(axis=0)
    allow_nan = draw(st.booleans())
    if allow_nan:
        r0 = draw(st.integers(0, h - 1))
        bands = rng.random(c) < 0.3
        # Quiet NaNs of either sign and with a payload; the oracle writes
        # every output NaN as 0x7FC00000 whatever the input's bits.
        bits = draw(st.sampled_from(QUIET_NANS))
        data.view(np.uint32)[r0 : r0 + draw(st.integers(1, 3)), :, bands] = bits
    return data, weights, allow_nan


@settings(max_examples=40, deadline=None)
@given(kernel_cases(), st.sampled_from([1, 7, 64]), st.sampled_from([1, 2]))
def test_resample_equals_dense_fixed_order_loop(case, tile, threads):
    data, weights, allow_nan = case
    wavelengths = tuple(400.0 + 10.0 * j for j in range(data.shape[2]))
    wm = WeightMatrix(
        weights=weights,
        band_names=tuple(f"B{i}" for i in range(weights.shape[1])),
        band_centers=(500.0,) * weights.shape[1],
        source_wavelengths=wavelengths,
    )
    cube = HyperCube(data=data, wavelengths=wavelengths)
    out = resample_cube(cube, wm, tile=tile, threads=threads, allow_nan=allow_nan)
    assert out.data.tobytes() == dense_resample(data, weights, allow_nan).tobytes()


def test_the_kernel_starts_no_thread(monkeypatch):
    """Every run is summed on the calling thread: asking for 4 threads starts
    none and gives the bytes of 1."""
    rng = np.random.default_rng(7)
    data = rng.random((8, 8, 6), dtype=np.float32)  # 16 runs of 2² pixels
    weights = rng.random((6, 3))
    wavelengths = tuple(400.0 + 10.0 * j for j in range(6))
    wm = WeightMatrix(
        weights=weights / weights.sum(axis=0),
        band_names=("B0", "B1", "B2"),
        band_centers=(500.0,) * 3,
        source_wavelengths=wavelengths,
    )
    cube = HyperCube(data=data, wavelengths=wavelengths)
    one = resample_cube(cube, wm, tile=2, threads=1).data.tobytes()

    def refuse(self):
        raise AssertionError("the kernel started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert resample_cube(cube, wm, tile=2, threads=4).data.tobytes() == one


def masked_confusion(p, t, n_classes, ignore_value):
    """Boolean-mask the kept pixels, range-check them (truth first, then
    prediction, first offender in C order), then bincount truth×prediction.
    Returns (counts, ignored)."""
    keep = t != ignore_value
    t_bad = keep & ((t < 0) | (t >= n_classes))
    if np.any(t_bad):
        raise ValidationError(f"truth label {int(t[t_bad][0])} outside [0, {n_classes})")
    pk = p[keep]
    p_bad = (pk < 0) | (pk >= n_classes)
    if np.any(p_bad):
        raise ValidationError(f"pred label {int(pk[p_bad][0])} outside [0, {n_classes})")
    tk = t[keep].astype(np.int64)
    hist = np.bincount(n_classes * tk + pk.astype(np.int64), minlength=n_classes**2)
    return hist.reshape(n_classes, n_classes), int(np.count_nonzero(~keep))


INT16 = (-(2**15), 2**15 - 1)


@st.composite
def confusion_cases(draw):
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    ignore = draw(st.sampled_from(["class", -1, INT16[0], INT16[1], 2**15, -(2**15) - 1, 2**70]))
    if ignore == "class":
        ignore = draw(st.integers(0, n - 1))
    truth = rng.integers(0, n, shape, dtype=np.int16)
    pred = rng.integers(0, n, shape, dtype=np.int16)
    if INT16[0] <= ignore <= INT16[1]:
        truth[rng.random(shape) < 0.3] = ignore
    # A mask may hold one negative value, its own ignore_value.
    negative = {"truth": ignore if INT16[0] <= ignore < 0 else None, "pred": None}
    for side in draw(st.sampled_from([(), ("truth",), ("pred",), ("truth", "pred")])):
        bad = draw(st.integers(n, INT16[1]) | st.integers(INT16[0], -1))
        if bad < 0 and negative[side] not in (None, bad):
            bad = INT16[1]  # the mask already holds another negative value
        if bad < 0:
            negative[side] = bad
        labels = truth if side == "truth" else pred
        labels[rng.random(shape) < draw(st.sampled_from([0.05, 0.5]))] = bad
    truth_mask = LabelMask(truth, -1 if negative["truth"] is None else negative["truth"])
    pred_mask = LabelMask(pred, -1 if negative["pred"] is None else negative["pred"])
    return pred_mask, truth_mask, n, ignore


@settings(max_examples=150, deadline=None)
@given(confusion_cases())
def test_fused_confusion_equals_masked_bincount(case):
    """The chip's matrix equals both oracles' and merges into a prior pool in
    place; a bad chip raises the oracle's error, type and message alike."""
    pred, truth, n, ignore = case
    try:
        want_counts, want_ignored = masked_confusion(pred.labels, truth.labels, n, ignore)
    except ValidationError as want:
        assert confusion_tally(pred.labels.tolist(), truth.labels.tolist(), n, ignore) is None
        with pytest.raises(ValidationError) as got:
            accumulate_confusion(pred, truth, n, ignore)
        assert type(got.value) is type(want) and str(got.value) == str(want)
        return
    tally_counts, tally_ignored = confusion_tally(
        pred.labels.tolist(), truth.labels.tolist(), n, ignore
    )
    assert np.array_equal(want_counts, tally_counts) and want_ignored == tally_ignored
    chip = accumulate_confusion(pred, truth, n, ignore)
    assert chip.n_classes == n and chip.counts.dtype == np.int64
    assert np.array_equal(chip.counts, want_counts) and chip.ignored_pixels == want_ignored
    prior = np.arange(n * n, dtype=np.int64).reshape(n, n)
    pool = ConfusionMatrix(n_classes=n, counts=prior.copy(), ignored_pixels=5)
    pool_counts = pool.counts
    assert pool.merge(chip) is pool and pool.counts is pool_counts
    assert np.array_equal(pool.counts, prior + want_counts)
    assert pool.ignored_pixels == 5 + want_ignored
    assert np.array_equal(chip.counts, want_counts) and chip.ignored_pixels == want_ignored


def masked_seg_report(chips, n_classes, ignore_value, per_chip):
    """The metrics seg report built from masked_confusion: chips in stem
    order, one matrix per chip merged into a pooled one."""
    pooled = np.zeros((n_classes, n_classes), dtype=np.int64)
    ignored = 0
    rows = []
    for stem, (pred, truth) in sorted(chips.items()):
        counts, chip_ignored = masked_confusion(pred, truth, n_classes, ignore_value)
        rows.append({"chip": stem, "miou": miou(ConfusionMatrix(n_classes, counts)).miou})
        pooled += counts
        ignored += chip_ignored
    report = miou(ConfusionMatrix(n_classes, pooled)).to_dict()
    report["ignored_pixels"] = ignored
    report["chips"] = len(chips)
    if per_chip:
        report["per_chip"] = rows
        report["per_chip_mean_miou"] = float(np.mean([r["miou"] for r in rows]))
    return (json.dumps(report, indent=2) + "\n").encode("utf-8")


@pytest.mark.parametrize("per_chip", [False, True])
def test_seg_report_bytes_equal_masked_bincount_report(tmp_path, capsys, per_chip):
    n, ignore = 6, -1
    rng = np.random.default_rng(2024)
    chips = {}
    for d in ("pred", "truth"):
        (tmp_path / d).mkdir()
    for i in rng.permutation(50):
        truth = rng.integers(0, n, (24, 20), dtype=np.int16)
        truth[rng.random(truth.shape) < 0.1] = ignore
        pred = np.where(rng.random(truth.shape) < 0.3, rng.integers(0, n, truth.shape),
                        np.maximum(truth, 0)).astype(np.int16)
        stem = f"chip{i}"  # chip10 sorts before chip2: stem order, not numeric
        chips[stem] = (pred, truth)
        (tmp_path / "pred" / f"{stem}.hsm").write_bytes(write_mask(LabelMask(pred, ignore)))
        (tmp_path / "truth" / f"{stem}.hsm").write_bytes(write_mask(LabelMask(truth, ignore)))
    out = tmp_path / "report.json"
    argv = ["metrics", "seg", "--pred-dir", str(tmp_path / "pred"), "--truth-dir",
            str(tmp_path / "truth"), "--classes", str(n), "--out", str(out)]
    assert main(argv + (["--per-chip"] if per_chip else [])) == 0
    assert out.read_bytes() == masked_seg_report(chips, n, ignore, per_chip)


def fraction_seg_report(counts):
    """The SegReport dict from one Fraction per present class, summed exactly
    and rounded once."""
    rows, cols = counts.sum(axis=1).tolist(), counts.sum(axis=0).tolist()
    ratios = {}
    for c, (row, col) in enumerate(zip(rows, cols)):
        inter = int(counts[c, c])
        if row + col - inter:
            ratios[c] = Fraction(inter, row + col - inter)
    if not ratios:
        return None
    return {
        "per_class_iou": {str(c): float(r) for c, r in ratios.items()},
        "miou": float(sum(ratios.values(), Fraction(0)) / len(ratios)),
        "present_classes": len(ratios),
    }


PRIMES = [p for p in range(2, 2000) if all(p % q for q in range(2, int(p**0.5) + 1))]


@st.composite
def iou_counts(draw):
    """A confusion matrix with drawn per-class intersections and unions:
    class c >= 1 keeps its intersection on the diagonal and sends the rest of
    its union to class 0, as truth labelled c and predicted 0."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["small", "coprime", "near-2**40"]))
    if kind == "coprime":  # no two unions share a factor
        unions = draw(st.lists(st.sampled_from(PRIMES), min_size=n, max_size=n, unique=True))
    elif kind == "near-2**40":
        unions = draw(st.lists(st.integers(2**40 - 2**12, 2**40), min_size=n, max_size=n))
    else:
        unions = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
    absent = draw(st.sets(st.integers(0, n - 1)))
    shares = draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))  # in 64ths
    counts = np.zeros((n, n), dtype=np.int64)
    for c, (u, share) in enumerate(zip(unions, shares)):
        if c not in absent:
            i = u * share // 64
            counts[c, c] = i
            counts[c, 0] += u - i
    return counts


@settings(max_examples=200, deadline=None)
@given(iou_counts())
def test_miou_equals_fraction_mean(counts):
    want = fraction_seg_report(counts)
    if want is None:
        with pytest.raises(ValidationError):
            miou(ConfusionMatrix(counts.shape[0], counts))
        return
    report = miou(ConfusionMatrix(counts.shape[0], counts))
    assert json.dumps(report.to_dict()) == json.dumps(want)  # repr: equal strings, equal bits
    assert type(report.miou) is float and report.miou == want["miou"]
    assert all(type(c) is int and type(v) is float for c, v in report.per_class_iou.items())
