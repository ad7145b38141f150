import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsadapt.cube_io import LabelMask
from hsadapt.errors import DegenerateBaselineError, ValidationError
from hsadapt.metrics import (
    ConfusionMatrix,
    _bin_offsets,
    accumulate_confusion,
    baseline_mse,
    miou,
    nmse,
)
from oracles import confusion_tally, two_pass_baseline


def mask(arr, ignore=-1):
    return LabelMask(labels=np.asarray(arr, dtype=np.int16), ignore_value=ignore)


class TestAccumulateConfusion:
    def test_perfect_prediction_is_diagonal(self):
        m = mask([[0, 1], [2, 1]])
        acc = accumulate_confusion(m, m, n_classes=3)
        assert np.array_equal(acc.counts, np.diag([1, 2, 1]))
        assert acc.ignored_pixels == 0

    def test_all_ignored(self):
        truth = mask([[-1, -1], [-1, -1]])
        pred = mask([[0, 1], [1, 0]])
        acc = accumulate_confusion(pred, truth, n_classes=2)
        assert acc.counts.sum() == 0
        assert acc.ignored_pixels == 4

    def test_hand_counted_2x2(self):
        pred = mask([[0, 0], [1, 1]])
        truth = mask([[0, 1], [1, 1]])
        acc = accumulate_confusion(pred, truth, n_classes=2)
        assert np.array_equal(acc.counts, [[1, 0], [1, 2]])
        oracle_counts, oracle_ign = confusion_tally([[0, 0], [1, 1]], [[0, 1], [1, 1]], 2, -1)
        assert np.array_equal(acc.counts, oracle_counts)
        assert acc.ignored_pixels == oracle_ign

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            accumulate_confusion(mask([[0]]), mask([[0, 1]]), n_classes=2)

    def test_out_of_range_labels(self):
        with pytest.raises(ValidationError):
            accumulate_confusion(mask([[5]]), mask([[0]]), n_classes=2)
        with pytest.raises(ValidationError):
            accumulate_confusion(mask([[0]]), mask([[7]]), n_classes=2)

    def test_pred_in_ignored_region_is_discarded(self):
        truth = mask([[-1]])
        pred = mask([[1]])
        acc = accumulate_confusion(pred, truth, n_classes=2)
        assert acc.counts.sum() == 0

    def test_partition_associativity(self):
        rng = np.random.default_rng(0)
        pred_arr = rng.integers(0, 3, (8, 8)).astype(np.int16)
        truth_arr = rng.integers(-1, 3, (8, 8)).astype(np.int16)
        whole = accumulate_confusion(mask(pred_arr), mask(truth_arr), 3)
        top = accumulate_confusion(mask(pred_arr[:4]), mask(truth_arr[:4]), 3)
        bottom = accumulate_confusion(mask(pred_arr[4:]), mask(truth_arr[4:]), 3)
        merged = top.merge(bottom)
        assert np.array_equal(whole.counts, merged.counts)
        assert whole.ignored_pixels == merged.ignored_pixels

    def test_randomized_against_tally_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            pred_arr = rng.integers(0, 4, (6, 5)).astype(np.int16)
            truth_arr = rng.integers(-1, 4, (6, 5)).astype(np.int16)
            acc = accumulate_confusion(mask(pred_arr), mask(truth_arr), 4)
            oc, oi = confusion_tally(pred_arr.tolist(), truth_arr.tolist(), 4, -1)
            assert np.array_equal(acc.counts, oc)
            assert acc.ignored_pixels == oi


@pytest.mark.parametrize("n", [1, 2, 12, 179, 180, 300, 2048, 32768])
@pytest.mark.parametrize("ignore", [-1, 0, 1, -(2**15), 2**15 - 1, 2**15, -(2**15) - 1])
def test_label_tables_match_a_per_label_build(n, ignore):
    """Each 16-bit pattern's row and column, as one comparison per label
    gives them, in the smallest integer type that holds every bin index."""
    labels = np.arange(1 << 16, dtype=np.uint16).view(np.int16).astype(np.int64)
    in_range = (labels >= 0) & (labels < n)
    want_rows = np.where(labels == ignore, n, np.where(in_range, labels, n + 1)) * (n + 1)
    want_cols = np.where(in_range, labels, n)
    rows, cols = _bin_offsets(n, ignore)
    assert rows.dtype == cols.dtype == (np.int16 if n < 180 else np.int32)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert not rows.flags.writeable and not cols.flags.writeable


def test_label_tables_are_built_in_place():
    """The two 65,536-entry int16 tables take 256 KiB, and building them
    takes little more."""
    tracemalloc.start()
    try:
        _bin_offsets.__wrapped__(12, -1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 300 * 1024


class TestMiou:
    def test_diagonal_is_one(self):
        acc = ConfusionMatrix(n_classes=3, counts=np.diag([4, 5, 6]).astype(np.int64))
        report = miou(acc)
        assert report.miou == 1.0
        assert report.present_classes == 3

    def test_hand_counted_7_12(self):
        acc = ConfusionMatrix(n_classes=2, counts=np.asarray([[1, 0], [1, 2]], dtype=np.int64))
        report = miou(acc)
        assert report.per_class_iou[0] == pytest.approx(1 / 2)
        assert report.per_class_iou[1] == pytest.approx(2 / 3)
        assert report.miou == pytest.approx(7 / 12, abs=0)

    def test_zero_intersection_nonzero_union(self):
        acc = ConfusionMatrix(n_classes=2, counts=np.asarray([[0, 3], [0, 0]], dtype=np.int64))
        report = miou(acc)
        assert report.miou == 0.0

    def test_absent_class_excluded_not_zero(self):
        acc = ConfusionMatrix(n_classes=3, counts=np.asarray(
            [[2, 0, 0], [0, 2, 0], [0, 0, 0]], dtype=np.int64))
        report = miou(acc)
        assert report.present_classes == 2
        assert 2 not in report.per_class_iou
        assert report.miou == 1.0

    def test_all_unions_zero_errors(self):
        with pytest.raises(ValidationError):
            miou(ConfusionMatrix(n_classes=2))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        pred_arr = rng.integers(0, n, (6, 6)).astype(np.int16)
        truth_arr = rng.integers(-1, n, (6, 6)).astype(np.int16)
        base = miou(accumulate_confusion(mask(pred_arr), mask(truth_arr), n))
        perm = rng.permutation(n).astype(np.int16)
        p2 = perm[pred_arr]
        t2 = np.where(truth_arr == -1, -1, perm[np.clip(truth_arr, 0, None)]).astype(np.int16)
        permuted = miou(accumulate_confusion(mask(p2), mask(t2), n))
        assert permuted.miou == pytest.approx(base.miou, rel=1e-12)


class TestBaselineMse:
    def test_zero_variance_is_degenerate(self):
        with pytest.raises(DegenerateBaselineError):
            baseline_mse(np.asarray([[2.0], [2.0], [2.0]]))

    def test_two_point_column(self):
        assert baseline_mse(np.asarray([[1.0], [3.0]]))[0] == 1.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(10)
        table = rng.normal(size=(100, 4))
        got = baseline_mse(table)
        want = two_pass_baseline([table[:, i].tolist() for i in range(4)])
        assert np.max(np.abs(got - np.asarray(want))) < 1e-12

    def test_requires_two_rows(self):
        with pytest.raises(ValidationError):
            baseline_mse(np.asarray([[1.0, 2.0]]))


class TestNmse:
    def test_perfect_prediction_is_zero(self):
        t = np.asarray([[1.0, 2.0], [3.0, 4.0]])
        report = nmse(t, t, np.asarray([1.0, 1.0]))
        assert report.nmse == 0.0

    def test_mean_predictor_on_train_is_p(self):
        rng = np.random.default_rng(3)
        train = rng.normal(size=(50, 4)) * [1.0, 10.0, 0.1, 5.0]
        base = baseline_mse(train)
        pred = np.tile(train.mean(axis=0), (50, 1))
        report = nmse(pred, train, base, ("K", "P2O5", "Mg", "pH"))
        assert report.nmse == pytest.approx(4.0, abs=1e-12)

    def test_single_param_arithmetic(self):
        report = nmse(np.asarray([[1.0], [3.0]]), np.asarray([[2.0], [2.0]]), np.asarray([1.0]))
        assert report.per_param_mse == (1.0,)
        assert report.nmse == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            nmse(np.zeros((2, 2)), np.zeros((3, 2)), np.ones(2))

    def test_non_finite_rejected(self):
        bad = np.asarray([[np.nan, 0.0]])
        with pytest.raises(ValidationError):
            nmse(bad, np.zeros((1, 2)), np.ones(2))

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(21)
        train = rng.normal(size=(40, 3))
        pred = rng.normal(size=(20, 3))
        truth = rng.normal(size=(20, 3))
        base = nmse(pred, truth, baseline_mse(train)).nmse
        scale = np.asarray([2.0, 0.5, 7.0])
        shift = np.asarray([-1.0, 4.0, 0.25])
        scaled = nmse(
            pred * scale + shift, truth * scale + shift, baseline_mse(train * scale + shift)
        ).nmse
        assert scaled == pytest.approx(base, rel=1e-9)
