"""Point-to-point ICP pose refinement.

Correspondences are nearest model points; each iteration solves the
best-fit rigid transform in closed form (SVD orthogonal Procrustes).
Both steps minimize the same sum of squared correspondence distances,
so the RMS error is non-increasing iteration to iteration.

scipy is imported by the first ``icp_refine`` call, not with the
module: it is the slowest import of the package and nothing else needs
it, so ``import binpose`` and every run without ICP skip it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .so3 import Pose, matrix_to_quat


@dataclass
class IcpResult:
    pose: Pose
    errors: list[float]        # RMS correspondence error after each correspondence step
    converged: bool
    failed: bool = False       # degenerate correspondences; pose is the unchanged init


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
    distance treats as correct.
    """
    scene = np.asarray(scene_points, dtype=float).reshape(-1, 3)
    mdl = np.asarray(model, dtype=float).reshape(-1, 3)
    if scene.shape[0] == 0 or mdl.shape[0] == 0:
        raise ValueError("ICP needs non-empty scene and model clouds")

    from scipy.spatial import cKDTree

    tree = cKDTree(mdl)
    R = init.rotation
    t = init.t.copy()
    errors: list[float] = []
    converged = False
    updated = False
    for _ in range(max_iters):
        local = (scene - t) @ R            # scene points in model frame
        d, nn = tree.query(local)
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
