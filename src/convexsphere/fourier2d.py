"""Circle-harmonic analysis of planar support functions.

The angle-ordered circle grid has uniform nodes, so coefficient
extraction is a plain real FFT and is exact for trigonometric
polynomials below the Nyquist degree. harmonic_energy of degrees
1..d is the roundness score used by the section search; the
Sturm-Hurwitz count lower-bounds sign changes of functions whose
spectrum starts high.
"""

from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody
from .errors import Degenerate, InputError
from .sphere import hold_copies


@dataclass(frozen=True, eq=False)
class FourierSupport:
    """Truncated circle-harmonic expansion a0 + sum a_q cos + b_q sin."""

    a0: float
    a: np.ndarray  # cosine coefficients, degrees 1..d
    b: np.ndarray  # sine coefficients, degrees 1..d

    @property
    def d(self) -> int:
        return self.a.size

    def __post_init__(self):
        hold_copies(self, "a", "b")
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise InputError("cosine and sine coefficient arrays must match")


def fourier_coeffs(angles: np.ndarray, values: np.ndarray, d: int) -> FourierSupport:
    """Coefficients from uniformly spaced samples (any cyclic order)."""
    order = np.argsort(angles)
    th = np.asarray(angles)[order]
    f = np.asarray(values, dtype=float)[order]
    m = f.size
    if d >= m // 2:
        raise InputError(f"degree {d} not resolved by {m} samples")
    step = 2.0 * np.pi / m
    if np.max(np.abs(np.diff(th) - step)) > 1e-9:
        raise InputError("samples are not uniformly spaced in angle")
    spec = np.fft.rfft(f)
    # sample zero sits at angle th[0], generally nonzero; demodulate
    spec *= np.exp(-1j * np.arange(spec.size) * th[0])
    a0 = float(spec[0].real) / m
    a = 2.0 * spec[1 : d + 1].real / m
    b = -2.0 * spec[1 : d + 1].imag / m
    return FourierSupport(a0, a, b)


def fourier_analyze(body: ConvexBody, d: int) -> FourierSupport:
    """Circle-harmonic coefficients of a planar body's support function."""
    if body.n != 2:
        raise InputError(f"fourier_analyze needs a planar body, got n={body.n}")
    return fourier_coeffs(body.grid.angles, body.support, d)


def reconstruct(fs: FourierSupport, angles: np.ndarray) -> np.ndarray:
    th = np.asarray(angles, dtype=float)
    q = np.arange(1, fs.d + 1)
    return (
        fs.a0
        + np.cos(np.outer(th, q)) @ fs.a
        + np.sin(np.outer(th, q)) @ fs.b
    )


def harmonic_energy(fs: FourierSupport, qmin: int = 1, qmax: int | None = None) -> float:
    """Sum of squared coefficients over degrees qmin..qmax."""
    if qmax is None:
        qmax = fs.d
    if not 1 <= qmin <= qmax <= fs.d:
        raise InputError(f"degree window [{qmin}, {qmax}] outside 1..{fs.d}")
    sl = slice(qmin - 1, qmax)
    return float(np.sum(fs.a[sl] ** 2) + np.sum(fs.b[sl] ** 2))


_DROP_TOL = 1e-9  # relative band around the level that sturm_hurwitz_count drops


def sturm_hurwitz_count(values: np.ndarray, level: float = 0.0) -> int:
    """Number of cyclic sign changes of values - level.

    Samples within _DROP_TOL * scale of the level are discarded before
    counting so that tangencies and quadrature noise do not register
    as crossings; if everything is discarded the count is meaningless
    and Degenerate is raised. For a function whose lowest nonzero
    harmonic has degree q the count is at least 2q.
    """
    f = np.asarray(values, dtype=float) - level
    scale = np.max(np.abs(f)) if f.size else 0.0
    if scale == 0.0:
        raise Degenerate("samples are identically at the level")
    keep = f[np.abs(f) > _DROP_TOL * scale]
    if keep.size == 0:
        raise Degenerate("all samples within the degenerate band around the level")
    s = np.sign(keep)
    return int(np.count_nonzero(s != np.roll(s, 1)))
