"""Point-to-point ICP pose refinement.

Correspondences are nearest model points; each iteration solves the
best-fit rigid transform in closed form (SVD orthogonal Procrustes).
Both steps minimize the same sum of squared correspondence distances,
so the RMS error is non-increasing iteration to iteration.

Nearest model points come from a :class:`CellTable`, a grid of cubic
model cells written in numpy. The first ``icp_refine`` call for a model
builds it, memoized on the model's bytes as ``so3.kernel_model`` is, so
later instances of the same model reuse it. Its answers are exact: each
query gets the index and distance bits a scan of every model point
gives, with ties to the lowest index.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .so3 import Pose, matrix_to_quat

SCAN_BLOCK = 1 << 16   # (query, model point) distances per block: 512 KB of float64
CELL_MARGIN = 1e-6     # a ring decides distances up to (1 - CELL_MARGIN) of its reach

_NEIGHBOURS = np.array(list(itertools.product((-1, 0, 1), repeat=3)))
# each ring: the offsets of the cells whose rows it gathers, and how many
# cells it reaches (the rows of cells c + o cover c + o +- 1)
_RINGS = ((np.zeros((1, 3), dtype=np.int64), 1),
          (np.array(list(itertools.product((-1, 1), repeat=3))), 2))


@dataclass
class IcpResult:
    pose: Pose
    errors: list[float]        # RMS correspondence error after each correspondence step
    converged: bool
    failed: bool = False       # degenerate correspondences; pose is the unchanged init


class CellTable:
    """Exact nearest model points through a grid of cubic cells.

    The cell width depends on the model alone: sqrt(bounding-box surface
    area / K), the spacing of K points spread over the box's surface,
    floored at span / K (a line has no area) and at span / 2**20 so the
    int64 cell keys cannot overflow. Model cells are shifted to start at
    2, so the cells a ring probes around any query stay inside the key
    grid.

    Each cell with a model point among its 27 neighbours owns a row: the
    indices of those points in ascending order, padded with K, the index
    of a sentinel point at +inf. ``keys`` holds the owners' keys, sorted,
    then a largest key whose row, of K alone, serves every cell that owns
    none.

    A query is answered in rings (``_RINGS``), each gathering the rows of
    a set of cells around the query's cell:
    1. its own cell's row;
    2. if the best is beyond one cell, the rows of the cell's 8 diagonal
       neighbours, which together cover the 125 cells within two.
    A query neither ring decides is compared with every model point, in
    blocks of at most ``SCAN_BLOCK`` distances.

    Each squared distance is ``(dx*dx + dy*dy) + dz*dz`` on coordinate
    planes, the sum scipy's ``cKDTree`` forms, so every ring computes
    the bits a full scan computes for the same pair.

    Exactness: a cell index is floor(fl(fl(x - lo) / width)); each of the
    two roundings is relative, so the computed quotient lies within
    2.1 u |a| of the exact a = (x - lo) / width, u = 2**-53, and |a| is
    at most 2**20 + 4 wherever a ring can decide, so within 2**-31 of a.
    A model point outside the cells within r of a query's cell (r = 1
    or 2, the ring's reach) is at least r + 1 cells off along some axis, so in
    exact arithmetic it lies further than width * (r - 2**-30) from the
    query, and its computed distance (two sums, three squares and a
    square root, each with a relative error of at most u) exceeds
    width * r * (1 - 2**-29). A query clipped to the grid's edge is only
    further from every model point than its clipped cell. So a best
    computed squared distance of at most (width * r * (1 - CELL_MARGIN))^2
    is strictly smaller than every one the ring did not compute, and the
    scan's minimum lies among the ring's candidates. Ties: ring 1's row
    and the scan are in ascending index order, so their first argmin is
    the lowest index among the exact ties; ring 2's rows overlap, so it
    takes the lowest index among its smallest distances.
    """

    def __init__(self, points: np.ndarray):
        size = points.shape[0]
        self.lo = points.min(axis=0)
        ext = points.max(axis=0) - self.lo
        span = float(ext.max())
        area = 2.0 * float(ext[0] * ext[1] + ext[1] * ext[2] + ext[2] * ext[0])
        # coincident points share one cell of any width
        self.width = max(math.sqrt(area / size), span / size, span / 2**20) or 1.0
        self.size = size
        self.planes = np.full((3, size + 1), np.inf)   # x, y, z; index K is the sentinel
        self.planes[:, :size] = points.T
        cells = np.floor((points - self.lo) / self.width).astype(np.int64) + 2
        # queries clip to one cell past the model's, and rings probe one further
        self.top = cells.max(axis=0) + 1
        shape = self.top + 2
        self.strides = np.array([1, shape[0], shape[0] * shape[1]])
        # (cell, point) for the 27 cells around each point, in point order;
        # a stable sort by cell keeps each cell's points in ascending order
        owners = ((cells @ self.strides)[:, None] + _NEIGHBOURS @ self.strides).ravel()
        order = np.argsort(owners, kind="stable")
        owners = owners[order]
        heads = np.flatnonzero(np.concatenate([[True], owners[1:] != owners[:-1]]))
        counts = np.diff(np.append(heads, owners.size))
        self.keys = np.append(owners[heads], np.iinfo(np.int64).max)
        self.rows = np.full((self.keys.size, counts.max()), size, dtype=np.int32)
        self.rows[np.repeat(np.arange(heads.size), counts),
                  np.arange(owners.size) - np.repeat(heads, counts)] = order // len(_NEIGHBOURS)
        self.rings = tuple((offsets @ self.strides, reach) for offsets, reach in _RINGS)
        for a in (self.lo, self.planes, self.top, self.strides, self.keys, self.rows):
            a.flags.writeable = False

    def _squared(self, q: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Squared distances from each (n, 3) query to the model points
        ``idx`` (n, r), each ``(dx*dx + dy*dy) + dz*dz``."""
        x, y, z = (np.take(plane, idx) for plane in self.planes)
        x -= q[:, 0:1]
        y -= q[:, 1:2]
        z -= q[:, 2:3]
        x *= x
        x += y * y
        x += z * z
        return x

    def nearest(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """The distance from each (n, 3) query to its nearest model point
        and that point's index, the lowest on ties."""
        q = np.asarray(queries, dtype=float).reshape(-1, 3)
        d2 = np.empty(q.shape[0])
        nn = np.empty(q.shape[0], dtype=np.intp)
        cells = np.floor((q - self.lo) / self.width) + 2.0
        keys = np.clip(cells, 1.0, self.top, out=cells).astype(np.int64) @ self.strides
        todo = np.arange(q.shape[0])
        every = np.arange(self.size)
        for offsets, reach in self.rings + ((None, np.inf),):
            per_query = self.size if offsets is None else offsets.size * self.rows.shape[1]
            step = max(1, SCAN_BLOCK // per_query)
            for i in range(0, todo.size, step):
                f = todo[i:i + step]
                if offsets is None:
                    idx = np.broadcast_to(every, (f.size, self.size))
                else:
                    probe = keys[f, None] + offsets
                    at = np.searchsorted(self.keys, probe)
                    at[self.keys[at] != probe] = self.keys.size - 1
                    idx = self.rows[at].reshape(f.size, -1).astype(np.intp)
                sq = self._squared(q[f], idx)
                if offsets is None or offsets.size == 1:      # candidates in index order
                    j = sq.argmin(axis=1)
                    at = np.arange(f.size)
                    d2[f], nn[f] = sq[at, j], idx[at, j]
                else:
                    d2[f] = low = sq.min(axis=1)
                    nn[f] = np.where(sq == low[:, None], idx, self.size).min(axis=1)
            todo = todo[d2[todo] > (reach * self.width * (1.0 - CELL_MARGIN)) ** 2]
        return np.sqrt(d2), nn


def cell_table(model) -> CellTable:
    """The :class:`CellTable` of a (K, 3) model, memoized on its bytes."""
    model = np.ascontiguousarray(model, dtype=float).reshape(-1, 3)
    return _cell_table(model.tobytes())


@functools.lru_cache(maxsize=16)
def _cell_table(model_bytes: bytes) -> CellTable:
    return CellTable(np.frombuffer(model_bytes).reshape(-1, 3))


def best_fit_transform(A, B) -> tuple[np.ndarray, np.ndarray]:
    """Rigid (R, t) minimizing sum ||R a_i + t - b_i||^2.

    Raises ValueError when the correspondence covariance is rank
    deficient (all points collinear/coincident), where the rotation is
    not determined.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    ca = A.mean(axis=0)
    cb = B.mean(axis=0)
    H = (A - ca).T @ (B - cb)
    U, S, Vt = np.linalg.svd(H)
    if S[1] <= 1e-9 * max(S[0], 1e-300):
        raise ValueError("degenerate correspondences: covariance is rank deficient")
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    t = cb - R @ ca
    return R, t


def icp_refine(scene_points, model, init: Pose,
               max_iters: int = 50, tol: float = 1e-6) -> IcpResult:
    """Refine ``init`` so the posed model matches the instance's scene points.

    Stops when the RMS correspondence error improves by less than
    ``tol`` (mm) or after ``max_iters``. The caller is responsible for
    an init inside the convergence basin; far inits on near-symmetric
    shapes settle on a symmetric equivalent, which the symmetry-aware
    distance treats as correct. Raises ValueError when a cloud is empty,
    or naming the argument when a point or ``init`` is not finite.
    """
    scene = np.asarray(scene_points, dtype=float).reshape(-1, 3)
    mdl = np.asarray(model, dtype=float).reshape(-1, 3)
    if scene.shape[0] == 0 or mdl.shape[0] == 0:
        raise ValueError("ICP needs non-empty scene and model clouds")
    R = init.rotation
    t = init.t.copy()
    for name, a in (("scene_points", scene), ("model", mdl), ("init", np.append(R, t))):
        if not np.isfinite(a).all():
            raise ValueError(f"ICP {name} holds a non-finite value")

    table = cell_table(mdl)
    errors: list[float] = []
    converged = False
    updated = False
    for _ in range(max_iters):
        local = (scene - t) @ R            # scene points in model frame
        d, nn = table.nearest(local)
        rms = float(np.sqrt(np.mean(d * d)))
        errors.append(rms)
        if rms < tol or (len(errors) >= 2 and errors[-2] - errors[-1] < tol):
            converged = True
            break
        try:
            R, t = best_fit_transform(mdl[nn], scene)
            updated = True
        except ValueError:
            return IcpResult(pose=init, errors=errors, converged=False, failed=True)
    pose = Pose(matrix_to_quat(R), t) if updated else init
    return IcpResult(pose=pose, errors=errors, converged=converged)
