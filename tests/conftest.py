import numpy as np

from segtta.numerics import DenseFeatureMap, l2_normalize_rows
from segtta.support import SupportStore, TextBank, add_support_image

# pass/fail lines for the acceptance suite, printed at the end of the run
ACCEPTANCE_RESULTS = []


def record_criterion(num: int, name: str, ok: bool) -> None:
    ACCEPTANCE_RESULTS.append((num, name, ok))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, ok in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(
            f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")


def unit_rows(rng, n, d):
    return l2_normalize_rows(rng.standard_normal((n, d)))


def make_bank(rng, num_classes, dim, absent=()):
    feats = unit_rows(rng, num_classes, dim).astype(np.float32)
    present = np.ones(num_classes, dtype=bool)
    for c in absent:
        present[c] = False
        feats[c] = 0.0
    return TextBank(feats, present)


def feature_map(rows, grid_h, grid_w, cell_pixels=4):
    rows = np.asarray(rows, dtype=np.float64)
    return DenseFeatureMap(rows, grid_h, grid_w, grid_h * cell_pixels,
                           grid_w * cell_pixels)


def random_store(rng, num_classes, dim, images=6, grid=4, lambdas=None,
                 bank=None):
    """Store filled from random single-class images (class i % C)."""
    from segtta.numerics import LabelMask
    from segtta.support import DEFAULT_LAMBDAS, attach_text
    store = SupportStore.empty(num_classes, dim,
                               tuple(lambdas) if lambdas else DEFAULT_LAMBDAS)
    for i in range(images):
        c = i % num_classes
        x = feature_map(unit_rows(rng, grid * grid, dim), grid, grid)
        mask = LabelMask(np.full((x.image_h, x.image_w), c, dtype=np.int64),
                         num_classes)
        add_support_image(store, x, mask, f"img{i}")
    if bank is not None:
        attach_text(store, bank)
    return store


def append_records(store: SupportStore, records) -> None:
    """Append row_dtype records that carry their own entry ids, as
    fileio.load_store does: written into reserved rows, then committed."""
    n = len(records)
    if n:
        store._reserve_rows(n)[:] = records
        store._commit_rows(n, int(records["entry_id"].max()) + 1)


def stores_equal(a: SupportStore, b: SupportStore, exact=True, tol=0.0) -> bool:
    if (a.num_classes, a.dim, tuple(a.lambdas)) != (b.num_classes, b.dim,
                                                    tuple(b.lambdas)):
        return False
    if a.next_entry_id != b.next_entry_id or len(a.entries) != len(b.entries):
        return False
    for ea, eb in zip(a.entries, b.entries):
        if (ea.class_id, ea.image_id, ea.entry_id) != (eb.class_id, eb.image_id,
                                                       eb.entry_id):
            return False
        if exact and ea.vector.tobytes() != eb.vector.tobytes():
            return False
        if not exact and np.abs(ea.vector - eb.vector).max() > tol:
            return False
    if not np.array_equal(a.class_counts, b.class_counts):
        return False
    if exact:
        if a.class_accumulators.tobytes() != b.class_accumulators.tobytes():
            return False
    elif np.abs(a.class_accumulators - b.class_accumulators).max() > tol:
        return False
    if set(a.fused) != set(b.fused):
        return False
    for c in a.fused:
        if exact and a.fused[c].tobytes() != b.fused[c].tobytes():
            return False
        if not exact and np.abs(a.fused[c] - b.fused[c]).max() > tol:
            return False
    return True
