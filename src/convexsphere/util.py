"""Small shared helpers: hashing, principal angles, skew exponentials."""

import hashlib
import json

import numpy as np


def content_hash(obj) -> str:
    """sha256 over a canonical JSON encoding. Arrays are converted to
    nested lists; floats go through repr via json, which is stable for
    a fixed platform/blas combination."""
    payload = json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _jsonable(obj):
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"not JSON serializable: {type(obj)}")


def principal_angles(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans of A and B (columns
    need not be orthonormal; thin QR is applied first). Cosines come
    from the Gram SVD and sines from the projected residual, combined
    with arctan2, so angles near zero keep full precision instead of
    bottoming out at the sqrt(eps) floor of arccos."""
    qa = np.linalg.qr(np.atleast_2d(A))[0]
    qb = np.linalg.qr(np.atleast_2d(B))[0]
    gram = qa.T @ qb
    cosv = np.sort(np.clip(np.linalg.svd(gram, compute_uv=False), 0.0, 1.0))[::-1]
    sinv = np.sort(np.clip(np.linalg.svd(qb - qa @ gram, compute_uv=False), 0.0, 1.0))
    k = min(cosv.size, sinv.size)
    return np.arctan2(sinv[:k], cosv[:k])


def skew_exp(skew: np.ndarray, t=1.0) -> np.ndarray:
    """exp(t S) of a real skew-symmetric S, for a scalar t or a stack over
    an array of t: with A = sqrt(S^T S), which S commutes with since
    S^T S = -S^2, exp(t S) = cos(t A) + S sin(t A) / A, from one eigh of
    S^T S in real arithmetic."""
    s = np.asarray(skew, dtype=float)
    lam, v = np.linalg.eigh(s.T @ s)
    tt = np.multiply.outer(t, np.sqrt(np.maximum(lam, 0.0)))
    tsinc = np.asarray(t)[..., None] * np.sinc(tt / np.pi)
    return (v * np.cos(tt)[..., None, :]) @ v.T + s @ ((v * tsinc[..., None, :]) @ v.T)
