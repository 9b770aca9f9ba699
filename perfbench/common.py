"""Shared pieces of the benchmark: repo paths, thread pinning, the small
binary writers/readers the benchmark uses for its own inputs and checks, and
the summary statistics every workload reports.

The benchmark never trusts the library to check itself: label maps are read
back with the reader below, and mIoU is computed here from a confusion matrix.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from pathlib import Path
from time import perf_counter, process_time, thread_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# One fixed BLAS pool size for every workload. One thread keeps the adapter's
# small matmuls free of pool hand-off cost and leaves the second core of a
# two-core box to absorb noise from other processes.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

IGNORE = 65535

NAMES = ("sweep-small", "query-large", "store-100k")


def pin_threads(env=None) -> dict:
    """Set the BLAS thread variables; call before numpy is imported."""
    env = os.environ if env is None else env
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def import_segtta():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "segtta" / "__init__.py").is_file():
        raise SystemExit(f"error: no segtta package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import segtta
    if Path(segtta.__file__).resolve().parent != (SRC / "segtta").resolve():
        raise SystemExit(f"error: segtta imported from {segtta.__file__}, not {SRC}")
    return segtta


def environment() -> dict:
    """Interpreter, numpy and BLAS versions plus the pinned thread count."""
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
    }


# --- file formats (little-endian, see the package README) ---

def write_rnsf(path, arr) -> None:
    import numpy as np
    arr = np.asarray(arr, dtype="<f4")
    with open(path, "wb") as f:
        f.write(b"RNSF" + struct.pack("<BBB", 1, 0, arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(arr.tobytes())


def write_rnsm(path, labels) -> None:
    import numpy as np
    labels = np.asarray(labels)
    h, w = labels.shape
    with open(path, "wb") as f:
        f.write(b"RNSM" + struct.pack("<BQQ", 1, h, w))
        f.write(np.ascontiguousarray(labels, dtype="<u2").tobytes())


def read_rnsm(path):
    import numpy as np
    raw = Path(path).read_bytes()
    if raw[:5] != b"RNSM\x01":
        raise ValueError(f"{path}: not an RNSM v1 file")
    h, w = struct.unpack("<QQ", raw[5:21])
    if len(raw) != 21 + 2 * h * w:
        raise ValueError(f"{path}: size does not match {h}x{w}")
    return np.frombuffer(raw, dtype="<u2", offset=21).reshape(h, w)


def write_rnss(path, num_classes, dim, lambdas, class_ids, entry_ids, image_ids,
               vectors) -> None:
    """Store snapshot in one write; per-class sums and counts derived here."""
    import numpy as np
    rec = np.dtype([("c", "<u4"), ("e", "<u8"), ("i", "<u8"), ("v", "<f4", (dim,))])
    rows = np.empty(len(class_ids), dtype=rec)
    rows["c"], rows["e"], rows["i"], rows["v"] = class_ids, entry_ids, image_ids, vectors
    acc = np.zeros((num_classes, dim))
    np.add.at(acc, np.asarray(class_ids), np.asarray(vectors, dtype=np.float64))
    counts = np.bincount(class_ids, minlength=num_classes)
    with open(path, "wb") as f:
        f.write(b"RNSS" + struct.pack("<BIII", 1, num_classes, dim, len(lambdas)))
        f.write(struct.pack(f"<{len(lambdas)}d", *lambdas))
        f.write(struct.pack("<Q", len(rows)))
        f.write(rows.tobytes())
        f.write(acc.astype("<f4").tobytes())
        f.write(counts.astype("<u8").tobytes())


# --- speed calibration ---

def _small_ops_kernel():
    """Interpreter-bound: a softmax-regression loop on tiny arrays."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 50 * 16).reshape(50, 16)

    def run():
        w = np.zeros((10, 16))
        for _ in range(400):
            logits = x @ w.T
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            w -= 0.01 * (p.T @ x)
    return run


def _gemm_kernel():
    """Compute-bound: float64 matmuls shaped like a C=150, d=512 training
    step, into buffers allocated once so page faults do not enter the time."""
    import numpy as np
    x = np.linspace(-1.0, 1.0, 450 * 512).reshape(450, 512)
    w = np.linspace(1.0, -1.0, 150 * 512).reshape(150, 512)
    logits = np.empty((450, 150))
    grad = np.empty((150, 512))

    def run():
        for _ in range(8):
            np.matmul(x, w.T, out=logits)
            np.matmul(logits.T, x, out=grad)
    return run


def _scan_kernel():
    """Memory-bound: stack many small rows, score them, sort like retrieval."""
    import numpy as np
    rows = list(np.linspace(-1.0, 1.0, 10000 * 64).reshape(10000, 64))
    ids = np.arange(10000)
    q = np.linspace(1.0, -1.0, 64 * 64).reshape(64, 64)
    stacked = np.empty((10000, 64))
    sims = np.empty((64, 10000))

    def run():
        np.stack(rows, out=stacked)
        np.matmul(q, stacked.T, out=sims)
        for r in sims[:6]:
            np.lexsort((ids, -r))
    return run


# kernel builders and each kernel's median time on the reference machine
# (2 vCPU x86-64 VM, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread)
KERNELS = {
    "interpreter": (_small_ops_kernel, 0.0090),
    "gemm": (_gemm_kernel, 0.0270),
    "scan": (_scan_kernel, 0.0108),
}


class Calibrator:
    """Rescales wall time to the reference machine's speed.

    A shared virtual machine changes speed by tens of percent over seconds
    to minutes (other tenants, clock changes). Fixed numpy kernels, each
    shaped like one kind of cost, run between measured operations (a tick:
    each kernel three times, keeping the median; at most one tick every
    `every` seconds unless asked; time spent in ticks is counted in `spent`
    so that a tick inside an operation can be left out of its time). An
    operation's time is multiplied by the kernel's reference time over the
    mean kernel time of the two ticks before and the two after it. A change
    to segtta moves the operations but not the kernels, which never call it.

    Rescaling would absorb CPU work that the library leaves running in other
    threads of the process (it slows the kernels, not the operations), so
    each tick also records the CPU time other threads used during it; a tick
    in which they used more than `OTHER_CPU_SHARE` of its own CPU time is
    counted in `busy_ticks` and fails the run.
    """

    OTHER_CPU_SHARE = 0.05

    def __init__(self, kernel_names, every: float = 0.25):
        self.kernels = {name: KERNELS[name][0]() for name in kernel_names}
        self.every = every
        self.runs = {name: [] for name in kernel_names}   # per tick, all runs
        self.times = {name: [] for name in kernel_names}  # per tick, median run
        self.ticks = 0
        self.last = float("-inf")
        self.spent = 0.0   # seconds spent in ticks, kept out of operation times
        self.other_cpu = []   # per tick: CPU seconds of the process's other threads
        self.busy_ticks = 0

    def due(self) -> bool:
        return perf_counter() - self.last >= self.every

    def tick(self) -> None:
        start = perf_counter()
        cpu, own = process_time(), thread_time()
        for name, kernel in self.kernels.items():
            runs = []
            for _ in range(3):
                t0 = perf_counter()
                kernel()
                runs.append(perf_counter() - t0)
            self.runs[name].append(runs)
            self.times[name].append(median(runs))
        own = thread_time() - own
        other = process_time() - cpu - own
        self.other_cpu.append(other)
        self.busy_ticks += other > self.OTHER_CPU_SHARE * own
        self.ticks += 1
        self.last = perf_counter()
        self.spent += self.last - start

    def factor(self, name: str, at: int) -> float:
        """Factor for an operation that ended after tick `at` - 1."""
        window = self.times[name][max(0, at - 2):at + 2]
        return KERNELS[name][1] * len(window) / sum(window)


# --- checks and statistics ---

def confusion(pred, gt, num_classes):
    """Confusion counts over non-ignore ground-truth pixels."""
    import numpy as np
    valid = gt != IGNORE
    g = gt[valid].astype(np.int64)
    p = pred[valid].astype(np.int64)
    return np.bincount(g * num_classes + p, minlength=num_classes * num_classes
                       ).reshape(num_classes, num_classes)


def miou(conf) -> float:
    """Mean IoU over classes that occur in ground truth or prediction."""
    import numpy as np
    tp = np.diag(conf).astype(np.float64)
    union = conf.sum(axis=0) + conf.sum(axis=1) - tp
    seen = union > 0
    return float((tp[seen] / union[seen]).mean())


def label_problem(labels, shape, num_classes) -> str | None:
    """Why a label map is wrong, or None when its shape and range are right."""
    if tuple(labels.shape) != tuple(shape):
        return f"label map {tuple(labels.shape)} != image {tuple(shape)}"
    if labels.size and (int(labels.min()) < 0 or int(labels.max()) >= num_classes):
        return f"labels outside [0, {num_classes})"
    return None


def median(values) -> float:
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def tail(values) -> dict:
    """Highest percentile with at least ten samples beyond it.

    Below twenty samples that percentile would not lie above the median, so
    the maximum is reported instead, marked with zero samples beyond it.
    """
    s = sorted(values)
    n = len(s)
    if n >= 20:
        return {"value": s[n - 11], "percentile": round(100.0 * (n - 10) / n, 2),
                "samples": n, "beyond": 10}
    return {"value": s[-1], "percentile": 100.0, "samples": n, "beyond": 0}


def finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)
