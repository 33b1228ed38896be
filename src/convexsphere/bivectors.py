"""Bivector algebra of R^4 and the double cover structure of SO(4).

Coefficients live in the fixed basis order
e12, e13, e14, e23, e24, e34. The Hodge star is the exchange
(c12,c13,c14,c23,c24,c34) -> (c34,-c24,c23,c14,-c13,c12), its
eigenspaces E+ and E- carry the fixed orthonormal bases
(e12 +- e34)/sqrt2, (e13 -+ e24)/sqrt2, (e14 +- e23)/sqrt2, and the
induced maps rho_pm: SO(4) -> SO(3) are the two projections whose
kernels are the opposite isoclinic rotations. sigma wedge sigma =
w(sigma) Omega with Omega = e1^e2^e3^e4 detects decomposability.

A bivector sigma = E+- c of one eigenspace has a skew matrix A with
A^2 = -(|c|^2 / 2) I, so its exponential is the isoclinic rotation
cos t I + (sin t / t) A with t = |c| / sqrt2, and rho_pm maps it to
the rotation of R^3 by rotation vector -+sqrt2 c. rho_preimage
inverts this in closed form.
"""

import numpy as np

from .errors import InputError, NotARotation, NotDecomposable, ZeroBivector
from .util import principal_angles

BASIS_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_ROTATION_TOL = 1e-10  # largest entry of R^T R - I of a rotation
_DECOMPOSABLE_TOL = 1e-8  # largest |w(sigma)| / ||sigma||^2 of a decomposable sigma
_ANGLE_TOL = 1e-8  # largest principal angle accepted by invariant_plane_check
_PREIMAGE_TOL = 1e-6  # largest residual of a converged rho_preimage

_STAR_SIGNS = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
STAR = np.fliplr(np.diag(_STAR_SIGNS))

_SQ2 = np.sqrt(0.5)
# columns are the basis bivectors of E+ / E-
E_PLUS = np.array(
    [
        [_SQ2, 0, 0],
        [0, _SQ2, 0],
        [0, 0, _SQ2],
        [0, 0, _SQ2],
        [0, -_SQ2, 0],
        [_SQ2, 0, 0],
    ]
)
E_MINUS = np.array(
    [
        [_SQ2, 0, 0],
        [0, _SQ2, 0],
        [0, 0, _SQ2],
        [0, 0, -_SQ2],
        [0, _SQ2, 0],
        [-_SQ2, 0, 0],
    ]
)


def to_matrix(sigma: np.ndarray) -> np.ndarray:
    """Skew 4x4 matrix A with A[i, j] = coefficient of ei^ej."""
    sigma = np.asarray(sigma, dtype=float)
    a = np.zeros((4, 4))
    for c, (i, j) in zip(sigma, BASIS_PAIRS):
        a[i, j] = c
        a[j, i] = -c
    return a


def from_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if np.max(np.abs(a + a.T)) > 1e-12 * max(1.0, np.abs(a).max()):
        raise InputError("bivector matrix must be skew")
    return np.array([a[i, j] for i, j in BASIS_PAIRS])


def star(sigma: np.ndarray) -> np.ndarray:
    return STAR @ np.asarray(sigma, dtype=float)


def wedge_coeff(a, b) -> float:
    """Coefficient of Omega in a^b; symmetric in the arguments."""
    return float(star(a) @ np.asarray(b, dtype=float))


def w(sigma) -> float:
    """sigma^sigma = w(sigma) Omega; vanishes exactly on decomposables."""
    return wedge_coeff(sigma, sigma)


def split_pm(sigma):
    """Self-dual and anti-self-dual parts (sigma +- *sigma)/2."""
    sigma = np.asarray(sigma, dtype=float)
    s = star(sigma)
    return 0.5 * (sigma + s), 0.5 * (sigma - s)


def lambda2_matrix(rot: np.ndarray) -> np.ndarray:
    """Induced 6x6 map on bivectors (2x2 minors of the 4x4 input)."""
    rot = np.asarray(rot, dtype=float)
    out = np.empty((6, 6))
    for a, (k, l) in enumerate(BASIS_PAIRS):
        for b, (i, j) in enumerate(BASIS_PAIRS):
            out[a, b] = rot[k, i] * rot[l, j] - rot[k, j] * rot[l, i]
    return out


def _check_rotation(rot: np.ndarray, dim: int) -> None:
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (dim, dim):
        raise NotARotation(f"expected a {dim}x{dim} matrix, got {rot.shape}")
    if np.max(np.abs(rot.T @ rot - np.eye(dim))) > _ROTATION_TOL:
        raise NotARotation("matrix is not orthogonal")
    if np.linalg.det(rot) < 0:
        raise NotARotation("matrix has determinant -1")


def rho_pm(rot: np.ndarray, sign: int = +1) -> np.ndarray:
    """Image of a rotation of R^4 in SO(3), acting on E+ (sign=+1) or
    E- (sign=-1). A homomorphism; kernel is the opposite isoclinic
    one-parameter family."""
    _check_rotation(rot, 4)
    basis = E_PLUS if sign > 0 else E_MINUS
    out = basis.T @ lambda2_matrix(rot) @ basis
    if np.max(np.abs(out.T @ out - np.eye(3))) > 1e-9:
        raise NotARotation("induced map failed orthogonality")  # pragma: no cover
    return out


def is_decomposable(sigma) -> bool:
    sigma = np.asarray(sigma, dtype=float)
    nrm2 = float(sigma @ sigma)
    if nrm2 == 0.0:
        return True
    return abs(w(sigma)) <= _DECOMPOSABLE_TOL * nrm2


def plane_from_bivector(sigma) -> np.ndarray:
    """Oriented orthonormal frame (2 rows) of the plane of a
    decomposable bivector u^v."""
    sigma = np.asarray(sigma, dtype=float)
    nrm = np.linalg.norm(sigma)
    if nrm < 1e-12:
        raise ZeroBivector("cannot extract a plane from the zero bivector")
    if not is_decomposable(sigma):
        raise NotDecomposable(
            f"sigma^sigma = {w(sigma):.3e} Omega exceeds {_DECOMPOSABLE_TOL} * ||sigma||^2"
        )
    u_svd, s, _ = np.linalg.svd(to_matrix(sigma))
    frame = u_svd[:, :2].T
    if wedge_like(frame) @ sigma < 0:
        frame = frame[::-1].copy()
    return frame


def wedge_like(frame: np.ndarray) -> np.ndarray:
    """Coefficients of row1 ^ row2 for a 2-row frame."""
    u, v = np.asarray(frame, dtype=float)
    return np.array([u[i] * v[j] - u[j] * v[i] for i, j in BASIS_PAIRS])


def rotation_planes(rot: np.ndarray) -> list:
    """Invariant 2-planes of a rotation of R^4 from its real Schur
    form (unique when the two rotation angles differ)."""
    from scipy.linalg import schur
    _check_rotation(rot, 4)
    _, q = schur(rot, output="real")
    return [q[:, :2].T, q[:, 2:].T]


def invariant_plane_check(rot: np.ndarray, omega) -> dict:
    """For a rotation whose induced bivector map fixes omega (required
    within 1e-8), verify that the rotation's invariant planes are also
    invariant planes of omega's skew matrix, by principal angles."""
    omega = np.asarray(omega, dtype=float)
    defect = np.linalg.norm(lambda2_matrix(rot) @ omega - omega)
    if defect > 1e-8:
        raise InputError(f"omega is not fixed by the rotation (defect {defect:.3e})")
    a = to_matrix(omega)
    planes = rotation_planes(rot)
    report = {"fix_defect": float(defect), "planes": []}
    ok = True
    for p in planes:
        img = p @ a.T  # rows A p_i
        if np.linalg.norm(img) < 1e-12:
            angles = np.zeros(2)  # omega vanishes on the plane; nothing to test
        else:
            angles = principal_angles(p.T, img.T)
        rot_angles = principal_angles(p.T, (p @ rot.T).T)
        entry = {
            "omega_angles": angles.tolist(),
            "rotation_angles": rot_angles.tolist(),
        }
        ok = ok and np.max(angles) <= _ANGLE_TOL and np.max(rot_angles) <= _ANGLE_TOL
        report["planes"].append(entry)
    report["ok"] = bool(ok)
    return report


def unit_pm(sign: int, coeffs) -> np.ndarray:
    """Unit-norm element of E+ or E- from 3 coordinates."""
    c = np.asarray(coeffs, dtype=float)
    nrm = np.linalg.norm(c)
    if nrm < 1e-300:
        raise ZeroBivector("zero coordinates")
    basis = E_PLUS if sign > 0 else E_MINUS
    return basis @ (c / nrm)


def axis_rotation3(axis_index: int, angle: float) -> np.ndarray:
    """Rotation of R^3 about a coordinate axis."""
    c, s = np.cos(angle), np.sin(angle)
    out = np.eye(3)
    i, j = [(1, 2), (2, 0), (0, 1)][axis_index]
    out[i, i] = c
    out[j, j] = c
    out[i, j] = -s
    out[j, i] = s
    return out


def rho_preimage(target: np.ndarray, sign: int = +1) -> dict:
    """A rotation of R^4 mapping to the target under rho_pm: the
    isoclinic exponential of E+- c with c = -sign * v / sqrt2, where v is
    the target's rotation vector (see the module docstring)."""
    from scipy.spatial.transform import Rotation
    target = np.asarray(target, dtype=float)
    _check_rotation(target, 3)
    basis = E_PLUS if sign > 0 else E_MINUS
    c = -sign * _SQ2 * Rotation.from_matrix(target).as_rotvec()
    t = _SQ2 * np.linalg.norm(c)
    # sin(t) / t is np.sinc(t / pi), which is 1 at t = 0
    rot = np.cos(t) * np.eye(4) + np.sinc(t / np.pi) * to_matrix(basis @ c)
    residual = float(np.linalg.norm(rho_pm(rot, sign) - target))
    return {"rotation": rot, "residual": residual, "converged": residual <= _PREIMAGE_TOL}
