"""Reference implementations the library is checked against.

Everything here is written as plain per-element loops over numpy scalars,
trading speed for obviousness, except the allocating forms of the decode's
arithmetic, which the in-place code must equal byte for byte. Nothing
imports the package under test.
"""

import math

import numpy as np


def normalize_rows_loop(m):
    m = np.asarray(m, dtype=np.float64)
    out = np.empty_like(m)
    for i in range(m.shape[0]):
        out[i] = m[i] / np.sqrt((m[i] ** 2).sum())
    return out


def softmax_direct(v, tau):
    e = np.exp(np.asarray(v, dtype=np.float64) / tau)
    return e / e.sum()


def downsample_count_loop(mask, grid_h, grid_w, num_classes, ignore):
    H, W = mask.shape
    n = grid_h * grid_w
    frac = np.zeros((n, num_classes))
    sizes = np.zeros(n)
    for y in range(H):
        for x in range(W):
            cell = (y * grid_h // H) * grid_w + (x * grid_w // W)
            sizes[cell] += 1
            if mask[y, x] != ignore:
                frac[cell, mask[y, x]] += 1.0
    frac /= sizes[:, None]
    for c in range(num_classes):
        s = frac[:, c].sum()
        if s > 0:
            frac[:, c] /= s
    return frac


def bilinear_direct(grid, out_h, out_w):
    """Non-separable direct bilinear at pixel centers with edge clamping."""
    in_h, in_w, C = grid.shape
    out = np.zeros((out_h, out_w, C))
    for oy in range(out_h):
        sy = (oy + 0.5) * in_h / out_h - 0.5
        y0 = int(np.floor(sy))
        wy = sy - y0
        y0c, y1c = min(max(y0, 0), in_h - 1), min(max(y0 + 1, 0), in_h - 1)
        for ox in range(out_w):
            sx = (ox + 0.5) * in_w / out_w - 0.5
            x0 = int(np.floor(sx))
            wx = sx - x0
            x0c, x1c = min(max(x0, 0), in_w - 1), min(max(x0 + 1, 0), in_w - 1)
            out[oy, ox] = ((1 - wy) * (1 - wx) * grid[y0c, x0c]
                           + (1 - wy) * wx * grid[y0c, x1c]
                           + wy * (1 - wx) * grid[y1c, x0c]
                           + wy * wx * grid[y1c, x1c])
    return out


def linear_resample_weights_alloc(n_src, n_dst, start=0, stop=None):
    """(lo, hi, w1) of 1-d bilinear resampling, clamped by np.clip."""
    dst = np.arange(start, n_dst if stop is None else stop, dtype=np.float64)
    s = (dst + 0.5) * (n_src / n_dst) - 0.5
    i0 = np.floor(s).astype(np.int64)
    w1 = s - i0
    lo = np.clip(i0, 0, n_src - 1)
    hi = np.clip(i0 + 1, 0, n_src - 1)
    return lo, hi, w1


def upsample_alloc(data, grid_h, grid_w, out_h, out_w, rows=None, cols=None):
    """Separable bilinear upsampling of (grid_h * grid_w, C) probabilities,
    each axis blend a fresh expression; rows=(start, stop) and cols select
    output rows and columns as numerics.upsample_probs does."""
    start, stop = (0, out_h) if rows is None else rows
    grid = np.asarray(data, dtype=np.float64).reshape(grid_h, grid_w, -1)
    lo, hi, w = linear_resample_weights_alloc(grid_h, out_h, start, stop)
    grid = grid[lo] * (1.0 - w)[:, None, None] + grid[hi] * w[:, None, None]
    lo, hi, w = linear_resample_weights_alloc(grid_w, out_w)
    if cols is not None:
        lo, hi, w = lo[cols], hi[cols], w[cols]
    return grid[:, lo] * (1.0 - w)[None, :, None] + grid[:, hi] * w[None, :, None]


def softmax_alloc(scores, tau):
    """Max-subtracted temperature softmax over the last axis, each step a
    fresh array."""
    z = np.asarray(scores, dtype=np.float64) / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def argmax_scan(grid):
    H, W, C = grid.shape
    out = np.zeros((H, W), dtype=np.int64)
    for y in range(H):
        for x in range(W):
            best, best_c = -np.inf, 0
            for c in range(C):
                if grid[y, x, c] > best:
                    best, best_c = grid[y, x, c], c
            out[y, x] = best_c
    return out


def pool_classes_loop(x_rows, p):
    """dict class -> unit pooled vector, for columns with mass."""
    n, d = x_rows.shape
    out = {}
    for c in range(p.shape[1]):
        if p[:, c].sum() > 0:
            v = np.zeros(d)
            for j in range(n):
                v += p[j, c] * x_rows[j]
            out[c] = v / np.linalg.norm(v)
    return out


def pool_whole_product(x_rows, p):
    """dict class -> unit float64 vector, for columns with mass: row c of the
    whole (C, n) @ (n, d) product p.T @ x, divided by the square root of its
    dot with itself, as support.unit does. Not a loop: an add's records must
    match this formula, rounded to float32, bit for bit."""
    pooled = np.asarray(p, dtype=np.float64).T @ x_rows
    return {int(c): pooled[c] / math.sqrt(pooled[c].dot(pooled[c]))
            for c in np.flatnonzero(p.sum(axis=0) > 0)}


def knn_fullsort(query, vectors, entry_ids, k):
    """entry ids of the top-k by (similarity desc, entry_id asc)."""
    sims = [float(np.dot(v, query)) for v in vectors]
    order = sorted(range(len(vectors)), key=lambda i: (-sims[i], entry_ids[i]))
    return [entry_ids[i] for i in order[: min(k, len(vectors))]]


def fd_gradients(loss_of_params, weights, bias, step=1e-5):
    """Central finite differences of a scalar loss over (weights, bias)."""
    dw = np.zeros_like(weights)
    db = np.zeros_like(bias)
    for idx in np.ndindex(*weights.shape):
        wp, wm = weights.copy(), weights.copy()
        wp[idx] += step
        wm[idx] -= step
        dw[idx] = (loss_of_params(wp, bias) - loss_of_params(wm, bias)) / (2 * step)
    for i in range(bias.size):
        bp, bm = bias.copy(), bias.copy()
        bp[i] += step
        bm[i] -= step
        db[i] = (loss_of_params(weights, bp) - loss_of_params(weights, bm)) / (2 * step)
    return dw, db


def max_relative_error(analytic, numeric, floor=1e-6):
    denom = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def miou_loop(preds, gts, num_classes, ignore):
    tp = np.zeros(num_classes)
    fp = np.zeros(num_classes)
    fn = np.zeros(num_classes)
    for p, g in zip(preds, gts):
        for y in range(g.shape[0]):
            for x in range(g.shape[1]):
                if g[y, x] == ignore:
                    continue
                if p[y, x] == g[y, x]:
                    tp[g[y, x]] += 1
                else:
                    fp[p[y, x]] += 1
                    fn[g[y, x]] += 1
    ious = {}
    for c in range(num_classes):
        union = tp[c] + fp[c] + fn[c]
        if union > 0:
            ious[c] = tp[c] / union
    mean = sum(ious.values()) / len(ious) if ious else float("nan")
    return ious, mean


def region_pool_loop(x_rows, assignments, grid_h, grid_w, region_count):
    H, W = assignments.shape
    n = grid_h * grid_w
    S = np.zeros((n, region_count))
    sizes = np.zeros(n)
    for y in range(H):
        for x in range(W):
            cell = (y * grid_h // H) * grid_w + (x * grid_w // W)
            S[cell, assignments[y, x]] += 1
            sizes[cell] += 1
    S /= sizes[:, None]
    out = np.zeros((region_count, x_rows.shape[1]))
    for r in range(region_count):
        col = S[:, r] / S[:, r].sum()
        v = np.zeros(x_rows.shape[1])
        for j in range(n):
            v += col[j] * x_rows[j]
        out[r] = v / np.linalg.norm(v)
    return out


def pseudo_features_loop(x_rows, text_rows, wanted_classes):
    """argmax-assign patches to classes by text similarity, mean per class."""
    n = x_rows.shape[0]
    assign = []
    for j in range(n):
        sims = [float(np.dot(t, x_rows[j])) for t in text_rows]
        best, best_c = -np.inf, 0
        for c, s in enumerate(sims):
            if s > best:
                best, best_c = s, c
        assign.append(best_c)
    out = []
    for c in sorted(wanted_classes):
        rows = [x_rows[j] for j in range(n) if assign[j] == c]
        if rows:
            v = np.mean(rows, axis=0)
            out.append((c, v / np.linalg.norm(v)))
    return out


def _unit_copy(v):
    v = np.asarray(v, dtype=np.float64)
    assert abs(float(np.linalg.norm(v)) - 1.0) <= 1e-4, "expected a unit vector"
    return v.copy()


def fuse(t, v, lam):
    """Normalized interpolation lam*t + (1-lam)*v of two unit vectors, one
    row at a time. The endpoints copy t or v and never read the other."""
    assert 0.0 <= lam <= 1.0
    if lam == 1.0:
        return _unit_copy(t)
    if lam == 0.0:
        return _unit_copy(v)
    m = lam * _unit_copy(t) + (1.0 - lam) * _unit_copy(v)
    return m / math.sqrt(m.dot(m))


def pseudo_label_distribution(vec, text_rows, tau):
    """Max-subtracted temperature softmax of one vector's text similarities."""
    z = (np.asarray(text_rows, dtype=np.float64) @ np.asarray(vec, dtype=np.float64)) / tau
    e = np.exp(z - z.max())
    return e / e.sum()


def _log_softmax_loop(weights, bias, x):
    """log softmax(weights @ x + bias) as a list over classes."""
    C, d = weights.shape
    z = [float(bias[c]) + sum(float(weights[c, j]) * float(x[j]) for j in range(d))
         for c in range(C)]
    top = max(z)
    lse = top + math.log(sum(math.exp(v - top) for v in z))
    return [v - lse for v in z]


def weighted_ce_loop(weights, bias, vecs, labels, item_w):
    """Sum over items of item_w * -log softmax(weights @ x + bias)[label],
    and its gradients (dW, db), one item and one class at a time."""
    C, d = weights.shape
    loss, dw, db = 0.0, np.zeros((C, d)), np.zeros(C)
    for x, y, w in zip(vecs, labels, item_w):
        logp = _log_softmax_loop(weights, bias, x)
        loss += float(w) * -logp[int(y)]
        for c in range(C):
            dz = float(w) * (math.exp(logp[c]) - (1.0 if c == y else 0.0))
            db[c] += dz
            for j in range(d):
                dw[c, j] += dz * float(x[j])
    return loss, dw, db


def pseudo_kl_loop(weights, bias, vecs, targets, item_w):
    """Sum over items of item_w * KL(target || softmax(weights @ x + bias)),
    and its gradients (dW, db), one item and one class at a time."""
    C, d = weights.shape
    loss, dw, db = 0.0, np.zeros((C, d)), np.zeros(C)
    for x, t, w in zip(vecs, targets, item_w):
        logq = _log_softmax_loop(weights, bias, x)
        loss += float(w) * sum(float(t[c]) * (math.log(float(t[c])) - logq[c])
                               for c in range(C) if t[c] > 0)
        for c in range(C):
            dz = float(w) * (math.exp(logq[c]) - float(t[c]))
            db[c] += dz
            for j in range(d):
                dw[c, j] += dz * float(x[j])
    return loss, dw, db
