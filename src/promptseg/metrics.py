"""Segmentation metrics."""

import numpy as np


def confusion(pred, gt, class_count):
    """class_count x class_count counts, rows = ground truth, cols = prediction."""
    pred = np.asarray(pred).reshape(-1)
    gt = np.asarray(gt).reshape(-1)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape}, gt {gt.shape}")
    for name, m in (("pred", pred), ("gt", gt)):
        if m.size and (m.min() < 0 or m.max() >= class_count):
            raise ValueError(f"{name} contains labels outside [0, {class_count})")
    idx = gt.astype(np.int64) * class_count + pred.astype(np.int64)
    return np.bincount(idx, minlength=class_count * class_count).reshape(
        class_count, class_count
    )


def miou(pred, gt, class_count):
    """Per-class IoU (NaN where a class is absent from both masks) and the mean.

    Classes missing from both prediction and ground truth are excluded from
    the mean; a class present in only one of them scores 0 and is included.
    """
    cm = confusion(pred, gt, class_count)
    inter = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - inter
    iou = np.full(class_count, np.nan)
    seen = union > 0
    iou[seen] = inter[seen] / union[seen]
    mean = float(np.nanmean(iou[seen])) if seen.any() else float("nan")
    return iou, mean
