"""Evaluation metrics: pooled-confusion mean IoU for segmentation and the
normalized MSE (sum of per-parameter MSE over mean-predictor MSE) for
multi-target regression."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cube_io import LabelMask
from .errors import DegenerateBaselineError, ValidationError


@dataclass
class ConfusionMatrix:
    """Pooled truth×prediction counts; rows are truth, columns prediction.

    Counts are 64-bit: thousands of 128×128 chips overflow 32 bits in aggregate.
    """

    n_classes: int
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]
    ignored_pixels: int = 0

    def __post_init__(self):
        if self.n_classes < 1:
            raise ValidationError("need at least one class")
        if self.counts is None:
            self.counts = np.zeros((self.n_classes, self.n_classes), dtype=np.int64)
        elif self.counts.shape != (self.n_classes, self.n_classes):
            raise ValidationError("counts shape does not match n_classes")

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        """Add other's counts into this matrix in place and return it."""
        if other.n_classes != self.n_classes:
            raise ValidationError("cannot merge confusion matrices with different class counts")
        self.counts += other.counts
        self.ignored_pixels += other.ignored_pixels
        return self


@dataclass(frozen=True)
class SegReport:
    per_class_iou: dict[int, float]
    miou: float
    present_classes: int

    def to_dict(self) -> dict:
        return {
            "per_class_iou": {str(c): v for c, v in sorted(self.per_class_iou.items())},
            "miou": self.miou,
            "present_classes": self.present_classes,
        }


@dataclass(frozen=True)
class RegReport:
    param_names: tuple[str, ...]
    per_param_mse: tuple[float, ...]
    baseline_mse: tuple[float, ...]
    nmse: float

    def to_dict(self) -> dict:
        return {
            "per_param_mse": dict(zip(self.param_names, self.per_param_mse)),
            "baseline_mse": dict(zip(self.param_names, self.baseline_mse)),
            "nmse": self.nmse,
        }


def _label_error(p: np.ndarray, t: np.ndarray, n_classes: int, ignore_value: int) -> ValidationError:
    """The first out-of-range label in C order, truth checked before prediction."""
    keep = t != ignore_value
    t_bad = keep & ((t < 0) | (t >= n_classes))
    if np.any(t_bad):
        return ValidationError(f"truth label {int(t[t_bad][0])} outside [0, {n_classes})")
    pk = p[keep]
    p_bad = (pk < 0) | (pk >= n_classes)
    return ValidationError(f"pred label {int(pk[p_bad][0])} outside [0, {n_classes})")


def accumulate_confusion(
    pred: LabelMask, truth: LabelMask, n_classes: int, ignore_value: int = -1
) -> ConfusionMatrix:
    """One chip's confusion matrix; pool chips with ConfusionMatrix.merge.

    Pixels whose truth equals ignore_value are dropped entirely; the ignore
    value applies to truth only, so predictions inside ignored regions are
    discarded whatever labels the LabelMask holds. A mask read from a file
    has already been checked against its own header, though: read_mask
    refuses any negative label other than that header's ignore_value, in
    truth and prediction alike.
    """
    if n_classes < 1:  # before any bin is counted for it
        raise ValidationError("need at least one class")
    p = pred.labels
    t = truth.labels
    if p.shape != t.shape:
        raise ValidationError(f"shape mismatch: pred {p.shape} vs truth {t.shape}")
    n = n_classes
    ignored = t == ignore_value  # an ignore value outside int16 matches nothing
    # As uint16 every negative label is at least 2**15, so one comparison per
    # mask finds each label outside [0, n); a bad chip is refused before its
    # histogram is allocated.
    bad = np.maximum(t.view(np.uint16), p.view(np.uint16)) >= min(n, 1 << 15)
    bad &= ~ignored
    if bad.any():
        raise _label_error(p, t, n, ignore_value)
    # Each pixel's bin is t·n + p, in the smallest integer type that holds
    # the n² class bins and the one sentinel bin, n², of the ignored pixels.
    # np.bincount still makes an intp copy, but building the codes as intp was
    # slower over a run of many chips: each pass over them moves 4× the bytes.
    dtype = np.int16 if n * n < 1 << 15 else np.int32 if n * n < 1 << 31 else np.int64
    codes = t.astype(dtype)
    codes *= n
    codes += p
    np.copyto(codes, n * n, where=ignored)
    hist = np.bincount(codes.ravel(), minlength=n * n + 1)
    # The counts are a view of the histogram: the chip costs no second matrix.
    return ConfusionMatrix(n, counts=hist[: n * n].reshape(n, n), ignored_pixels=int(hist[n * n]))


def miou(acc: ConfusionMatrix) -> SegReport:
    """Unweighted mean IoU over classes with nonzero union; absent classes are
    excluded from the mean rather than scored zero."""
    inter = np.diag(acc.counts)
    union = acc.counts.sum(axis=0) + acc.counts.sum(axis=1) - inter
    present = np.nonzero(union > 0)[0]
    if present.size == 0:
        raise ValidationError("every class has zero union; mIoU is undefined")
    # Exact rational mean over integer counts, rounded once at the end, so
    # hand-computable cases come out exactly (e.g. (1/2 + 2/3)/2 == 7/12).
    # Python's int/int division rounds correctly, so each float is the one
    # fractions.Fraction would give, without importing it and decimal.
    classes, inters, unions = present.tolist(), inter[present].tolist(), union[present].tolist()
    total, denominator = _exact_sum(list(zip(inters, unions)))
    return SegReport(
        per_class_iou={c: i / u for c, i, u in zip(classes, inters, unions)},
        miou=total / (denominator * len(classes)),
        present_classes=len(classes),
    )


def _exact_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """The sum of fractions n/d, unreduced. The terms are added in pairs,
    round after round, so the big integers grow in a balanced tree; a running
    sum would multiply an ever larger denominator once per term."""
    while len(terms) > 1:
        pairs = zip(terms[::2], terms[1::2])
        # The last term of an odd count waits for the next round.
        terms = [(a * d + c * b, b * d) for (a, b), (c, d) in pairs] + terms[len(terms) & ~1 :]
    return terms[0]


def baseline_mse(train_targets: np.ndarray) -> np.ndarray:
    """Per-parameter MSE of the train-mean predictor: the population variance."""
    y = np.asarray(train_targets, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] < 2:
        raise ValidationError("training targets must be N×P with N >= 2")
    if not np.all(np.isfinite(y)):
        raise ValidationError("training targets contain non-finite values")
    base = y.var(axis=0)  # ddof=0: mean squared deviation from the mean
    zero = np.nonzero(base == 0.0)[0]
    if zero.size:
        raise DegenerateBaselineError(
            f"parameter(s) at column(s) {zero.tolist()} have zero training variance; "
            "normalized MSE is undefined"
        )
    return base


def nmse(
    pred: np.ndarray,
    truth: np.ndarray,
    baseline: np.ndarray,
    param_names: tuple[str, ...] | None = None,
) -> RegReport:
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    b = np.asarray(baseline, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 2:
        raise ValidationError(f"shape mismatch: pred {p.shape} vs truth {t.shape}")
    if b.shape != (p.shape[1],):
        raise ValidationError("baseline length must match the parameter count")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise ValidationError("predictions/targets contain non-finite values")
    if np.any(b <= 0):
        raise ValidationError("baseline MSE entries must be positive")
    mse = np.mean((p - t) ** 2, axis=0)
    names = param_names or tuple(f"p{i}" for i in range(p.shape[1]))
    return RegReport(
        param_names=tuple(names),
        per_param_mse=tuple(float(x) for x in mse),
        baseline_mse=tuple(float(x) for x in b),
        nmse=float(np.sum(mse / b)),
    )
