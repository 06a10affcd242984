"""Mixed Fourier/trigonometric spectral basis on a wall-bounded periodic strip.

Domain: (0, L) x (0, 1), periodic in x, walls at y = 0 and y = 1.  Scalar
fields carry one of two parities in y:

    cos: f(x, y) = sum_{n, m} c[n, m] exp(i 2 pi n x / L) cos(m pi y)
    sin: f(x, y) = sum_{n, m} c[n, m] exp(i 2 pi n x / L) sin(m pi y)

This module is the single home of the transform conventions.  A real
field needs only the rows n = 0 .. nx/2 of its x spectrum, since
c[-n, m] = conj(c[n, m]): coefficients are complex (nx/2 + 1, ny + 1)
arrays, the rows of a real FFT in x, and the y index is the wavenumber m
itself.  Row n stands for the pair n, -n, so in the sum above and in
Parseval sums the rows 1 .. nx/2 - 1 count twice (Grid.multiplicity);
there are no other hidden scale factors.  Reality is a property of the
layout: the constructor holds the self-conjugate rows n = 0 and nx/2
real, and no operation needs a projection to keep a field real.  Sine
fields keep the m = 0 and m = ny columns at zero: sin(0) vanishes
identically and sin(ny pi y) vanishes at every collocation point, so
neither is representable; dropping them is the Galerkin truncation onto
the representable band.

Both transforms are one real FFT in x (numpy.fft) and a dense product in
y against cached, read-only (ny + 1)^2 cos and sin tables, one per parity
and direction.  The analysis tables fold in the DCT-I wall and column
weights and the 2/ny factor (powers of two, so exactly).  synthesize()
copies the rows into a buffer that each thread reuses for its grid and
batch size, runs one inverse FFT in x for all fields, then one product
per field into a per-thread buffer, copied back into the fresh values.
analyze() runs one product per field into a per-thread buffer, for sine
parity over the interior values only (so wall values, nan included, are
ignored), and keeps the rows of one real FFT in x of it.  synthesize()
takes a sequence of fields of either parity, analyze() a (K, nx, ny + 1)
stack of one parity; one product per field, not one per batch, gives a
batch the bits of single calls.  The product is the faster y pass up to
ny = 128 (one field, one BLAS thread: 5, 22 and 212 us at ny = 32, 64
and 128, against 22, 87 and 270 us for a real FFT of length 2 ny); it is
about even at ny = 256 and 2x slower at ny = 512.  The tables hold
4 (ny + 1)^2 doubles, 0.5 MB at ny = 128.

Collocation points are x_i = i L / nx and y_j = j / ny (walls included).
A velocity field pairs a cos-parity u1 with a sin-parity u2, so the
stress-free wall conditions (u2 = 0 and du1/dy = 0 at y = 0, 1) hold
structurally, as does theta = 0 for sin-parity scalars.

The parity layout of a velocity lives here: fields carry their own
linear arithmetic, so combining fields elsewhere never names a parity;
only code that builds fields from raw coefficient arrays does.
Arithmetic is linear on the coefficients: a + b, a - b and -a combine
fields of one grid and parity (a VectorField componentwise), and a * s,
s * a and a / s scale by a number or a broadcastable array.  Every
result goes through the constructor, so it is a new frozen field with
clean sine columns; an array the package has just computed becomes the
field's coefficients without a copy.  Combining different grids or
parities raises ValueError; a field times a field, or a field plus
anything but a like field, raises TypeError.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Sequence, Union

import numpy as np

__all__ = [
    "Grid",
    "SpectralField",
    "VectorField",
    "synthesize",
    "analyze",
    "leray_project",
    "inner_h",
    "norm_h",
    "norm_v",
    "norm_laplacian",
    "quadrature",
    "random_scalar",
    "random_solenoidal",
    "stokes_smallest_eigenvalue",
    "solenoidality_defect",
]

COS = "cos"
SIN = "sin"


@dataclass(frozen=True)
class Grid:
    """Discretization of (0, L) x (0, 1): nx Fourier modes by ny + 1 wall modes.

    nx and ny must be powers of two (transform efficiency contract) and at
    least 8.  Quadratic products keep the 2/3 band (Orszag's rule), fixed
    so that advection stays orthogonal and its products alias-free:
    |n| <= nx // 3, m <= 2 * ny // 3.
    shape is the collocation shape (nx, ny + 1), coeff_shape the coefficient
    shape (nx/2 + 1, ny + 1); kx, lam and dealias_mask follow the
    coefficient rows n = 0 .. nx/2.
    """

    L: float
    nx: int
    ny: int

    # derived arrays, filled in __post_init__
    x: np.ndarray = field(init=False, repr=False, compare=False)
    y: np.ndarray = field(init=False, repr=False, compare=False)
    kx: np.ndarray = field(init=False, repr=False, compare=False)
    ky: np.ndarray = field(init=False, repr=False, compare=False)
    lam: np.ndarray = field(init=False, repr=False, compare=False)
    weight: np.ndarray = field(init=False, repr=False, compare=False)
    multiplicity: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    quad_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0 < self.L < np.inf):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        # the checkpoint header stores nx and ny as uint32
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if not 8 <= n < 2**32 or n & (n - 1):
                raise ValueError(f"{name} must be a power of two in [8, 2**31], got {n}")
        # the largest lam, in python floats, which overflow to inf without a warning
        kx, ky = np.pi * float(self.nx) / float(self.L), np.pi * float(self.ny)
        if not np.isfinite(kx * kx + ky * ky):
            raise ValueError(f"L={self.L} is too small for nx={self.nx}: lam overflows")

        def put(name: str, arr: np.ndarray) -> None:
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

        nx, ny, L = self.nx, self.ny, self.L
        put("x", np.arange(nx) * (L / nx))
        put("y", np.arange(ny + 1) / ny)
        n = np.fft.rfftfreq(nx, d=1.0 / nx)
        put("kx", 2.0 * np.pi * n / L)
        put("ky", np.pi * np.arange(ny + 1).astype(float))
        lam = self.kx[:, None] ** 2 + self.ky[None, :] ** 2
        put("lam", lam)
        w = np.full(ny + 1, L / 2.0)
        w[0] = L
        put("weight", w)
        # how many rows of the full spectrum each stored row stands for
        mult = np.full(nx // 2 + 1, 2.0)
        mult[0] = mult[-1] = 1.0
        put("multiplicity", mult)
        mask = (n[:, None] <= nx // 3) & (np.arange(ny + 1)[None, :] <= 2 * ny // 3)
        put("dealias_mask", mask)
        wy = np.full(ny + 1, 1.0 / ny)
        wy[0] *= 0.5
        wy[-1] *= 0.5
        put("quad_weights", np.full(nx, L / nx)[:, None] * wy[None, :])

    @property
    def shape(self) -> tuple:
        return (self.nx, self.ny + 1)

    @property
    def coeff_shape(self) -> tuple:
        return (self.nx // 2 + 1, self.ny + 1)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """One real scalar field, stored as parity-tagged complex coefficients.

    Construction copies the coefficients, zeroes the imaginary part of
    the self-conjugate rows (n = 0 and nx/2) and the structurally absent
    sine columns (m = 0 and m = ny), and freezes the array.  Inside the
    package, results that nothing else references (arithmetic, transforms,
    projections, advection terms, steps) are adopted instead of copied: they
    take the same clean-up and freeze, on their own memory.  Operations
    return new fields; instances are immutable values compared by identity.
    """

    grid: Grid
    parity: str
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.parity not in (COS, SIN):
            raise ValueError(f"parity must be 'cos' or 'sin', got {self.parity!r}")
        if isinstance(self.coeffs, _Fresh):
            c = np.asarray(self.coeffs.array, dtype=np.complex128)
        else:
            c = np.array(self.coeffs, dtype=np.complex128, copy=True)
        if c.shape != self.grid.coeff_shape:
            raise ValueError(
                f"coefficient shape {c.shape} does not match grid"
                f" {self.grid.coeff_shape}"
            )
        _clean(c, self.parity).flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, grid: Grid, parity: str) -> "SpectralField":
        return cls(grid, parity, np.zeros(grid.coeff_shape, dtype=np.complex128))

    # numpy defers its binary operators to these, so that array * field and
    # np.float64 * field scale the field instead of building object arrays
    __array_ufunc__ = None

    def _check_like(self, other: "SpectralField") -> None:
        if other.grid != self.grid or other.parity != self.parity:
            raise ValueError(
                f"cannot combine a {self.parity} field on {self.grid}"
                f" with a {other.parity} field on {other.grid}"
            )

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if not isinstance(other, SpectralField):
            return NotImplemented
        self._check_like(other)
        return _adopt(self.grid, self.parity, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if not isinstance(other, SpectralField):
            return NotImplemented
        self._check_like(other)
        return _adopt(self.grid, self.parity, self.coeffs - other.coeffs)

    def __neg__(self) -> "SpectralField":
        return _adopt(self.grid, self.parity, -self.coeffs)

    def __mul__(self, scale) -> "SpectralField":
        if _is_field(scale):
            return NotImplemented
        return _adopt(self.grid, self.parity, self.coeffs * scale)

    def __rmul__(self, scale) -> "SpectralField":
        if _is_field(scale):
            return NotImplemented
        return _adopt(self.grid, self.parity, scale * self.coeffs)

    def __truediv__(self, scale) -> "SpectralField":
        if _is_field(scale):
            return NotImplemented
        return _adopt(self.grid, self.parity, self.coeffs / scale)


@dataclass(frozen=True, eq=False)
class VectorField:
    """Velocity-like pair: cos-parity u1, sin-parity u2, on one grid."""

    u1: SpectralField
    u2: SpectralField

    def __post_init__(self) -> None:
        if self.u1.parity != COS or self.u2.parity != SIN:
            raise ValueError("vector fields require u1 cos-parity, u2 sin-parity")
        if self.u1.grid != self.u2.grid:
            raise ValueError("vector components live on different grids")

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls(SpectralField.zeros(grid, COS), SpectralField.zeros(grid, SIN))

    __array_ufunc__ = None

    def __add__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(self.u1 + other.u1, self.u2 + other.u2)

    def __sub__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(self.u1 - other.u1, self.u2 - other.u2)

    def __neg__(self) -> "VectorField":
        return VectorField(-self.u1, -self.u2)

    def __mul__(self, scale) -> "VectorField":
        if _is_field(scale):
            return NotImplemented
        return VectorField(self.u1 * scale, self.u2 * scale)

    def __rmul__(self, scale) -> "VectorField":
        if _is_field(scale):
            return NotImplemented
        return VectorField(scale * self.u1, scale * self.u2)

    def __truediv__(self, scale) -> "VectorField":
        if _is_field(scale):
            return NotImplemented
        return VectorField(self.u1 / scale, self.u2 / scale)


Field = Union[SpectralField, VectorField]


class _Fresh:
    """An array the package has just computed and holds no other reference
    to; the SpectralField constructor takes it over instead of copying."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


def _clean(c: np.ndarray, parity: str) -> np.ndarray:
    """The constructor's clean-up, in place, also of a stack of arrays: zero
    the imaginary part of the self-conjugate rows n = 0 and nx/2 and, for
    sine parity, the m = 0 and m = ny columns."""
    c.imag[..., 0, :] = 0.0
    c.imag[..., -1, :] = 0.0
    if parity == SIN:
        c[..., 0] = 0.0
        c[..., -1] = 0.0
    return c


def _adopt(grid: Grid, parity: str, coeffs: np.ndarray) -> SpectralField:
    """A field on fresh coefficients: the constructor's clean-up and freeze
    without its copy.  The caller must not touch coeffs afterwards."""
    return SpectralField(grid, parity, _Fresh(coeffs))


def _is_field(x) -> bool:
    return isinstance(x, (SpectralField, VectorField))


# ---------------------------------------------------------------------------
# transforms

# threads can switch between filling a buffer and transforming it, so each
# thread keeps its own buffers
_work = threading.local()


def _buffer(shape: tuple, dtype: type, use: str = "transform") -> np.ndarray:
    """This thread's reused buffer of one shape, dtype and use, live within
    one call only; the transforms' own use is "transform", so a caller
    that fills a buffer of another use can pass it to them.  Reusing it
    keeps the step from returning the memory to the system and faulting it
    back in on every call."""
    buffers = _work.__dict__.setdefault("buffers", {})
    key = (shape, dtype, use)
    if key not in buffers:
        buffers[key] = np.empty(shape, dtype=dtype)
    return buffers[key]


@lru_cache(maxsize=8)
def _y_tables(ny: int) -> dict:
    """The y tables, keyed by (parity, "synthesize" or "analyze"); entry
    [m, j] or [j, m] holds cos or sin of m j pi / ny, from angles reduced
    mod 2 pi; the sines are exact zeros where they vanish (at the walls)."""
    mj = np.outer(np.arange(ny + 1), np.arange(ny + 1)) % (2 * ny)
    cos, sin = np.cos(mj * (np.pi / ny)), np.sin(mj * (np.pi / ny))
    sin[mj % ny == 0] = 0.0
    edge = np.where(np.arange(ny + 1) % ny == 0, 0.5, 1.0)
    tables = {
        (COS, "synthesize"): cos,
        (SIN, "synthesize"): sin,
        (COS, "analyze"): (2.0 / ny) * edge[:, None] * cos * edge[None, :],
        (SIN, "analyze"): (2.0 / ny) * sin,
    }
    for t in tables.values():
        t.flags.writeable = False
    return tables


def synthesize(
    fields: Union[SpectralField, Sequence[SpectralField]]
) -> np.ndarray:
    """Collocation values on the (nx, ny + 1) grid, walls included.

    One field gives an (nx, ny + 1) array; a sequence of fields on one grid
    gives a (K, nx, ny + 1) stack in the order given.  The result is a
    fresh array the caller owns; only the work buffers are reused.
    """
    single = isinstance(fields, SpectralField)
    group = [fields] if single else list(fields)
    g = group[0].grid
    if any(f.grid != g for f in group):
        raise ValueError("fields to synthesize live on different grids")
    half = _buffer((len(group),) + g.coeff_shape, complex)
    np.stack([f.coeffs for f in group], out=half)
    v = np.fft.irfft(half, n=g.nx, axis=-2, norm="forward")
    # one product per field, so that a batch gives the bits of single calls
    tables, w = _y_tables(g.ny), _buffer(g.shape, float)
    for f, vf in zip(group, v):
        np.matmul(vf, tables[f.parity, "synthesize"], out=w)
        vf[...] = w
    return v[0] if single else v


def analyze(
    grid: Grid, values: np.ndarray, parity: str
) -> Union[SpectralField, List[SpectralField]]:
    """Forward transform of real collocation values; exact on the full band.

    (nx, ny + 1) values give one field, a (K, nx, ny + 1) stack gives a
    list of K fields of the one parity, whose coefficients are the rows of
    a real FFT in x.  Sine analysis ignores the wall values.
    """
    c = _analyze(grid, values, parity)
    if c.ndim == 2:
        return _adopt(grid, parity, c)
    return [_adopt(grid, parity, ci) for ci in c]


def _analyze(grid: Grid, values: np.ndarray, parity: str) -> np.ndarray:
    """analyze()'s fresh coefficients, not yet cleaned as fields' are."""
    v = np.asarray(values, dtype=float)
    if v.shape[-2:] != grid.shape or v.ndim not in (2, 3):
        raise ValueError(
            f"value shape {v.shape} does not match grid {grid.shape}"
        )
    # one product per field, as in synthesize(); sine analysis skips the
    # wall values, so that nan or inf walls are ignored too
    table = _y_tables(grid.ny)[parity, "analyze"]
    j = slice(None) if parity == COS else slice(1, -1)
    t, stack = _buffer(v.shape, float), (-1,) + grid.shape
    for vk, tk in zip(v.reshape(stack), t.reshape(stack)):
        np.matmul(vk[:, j], table[j], out=tk)
    return np.fft.rfft(t, axis=-2, norm="forward")


# ---------------------------------------------------------------------------
# projection, inner products and norms (mode by mode; exact on coefficients)


def leray_project(u: VectorField) -> VectorField:
    """Orthogonal projection onto divergence-free fields, mode by mode.

    Subtracts the gradient part grad(phi) with phi solving the per-mode
    Poisson problem; m = 0 columns of u1 are annihilated (pure gradients for
    n != 0, mean-flow gauge for n = 0), which keeps the Stokes operator
    positive definite on the projected space.  Expects band-limited input
    (the dealiased band never carries the m = ny sine column this would
    otherwise generate).
    """
    g = u.grid
    p1, p2 = _leray_coeffs(g, u.u1.coeffs, u.u2.coeffs)
    return VectorField(_adopt(g, COS, p1), _adopt(g, SIN, p2))


def _leray_coeffs(g: Grid, c1: np.ndarray, c2: np.ndarray) -> tuple:
    """leray_project on velocity coefficients: fresh (p1, p2) arrays, not
    yet cleaned as fields' are.

    Per mode the projection is the symmetric 2x2 map
    p1 = a c1 + i b c2, p2 = c c2 - i b c1 (see _leray_factors).
    """
    a, ib, c = _leray_factors(g)
    p1 = a * c1
    p1 += ib * c2
    p2 = c * c2
    p2 -= ib * c1
    return p1, p2


@lru_cache(maxsize=8)
def _leray_factors(g: Grid) -> tuple:
    """Read-only complex (a, i b, c) of the per-mode projection: with
    lam = kx^2 + ky^2, a = 1 - kx^2/lam = ky^2/lam, b = kx ky/lam and
    c = 1 - ky^2/lam = kx^2/lam, taken as the quotients without the
    cancelling subtraction; the gauge entry (0, 0) takes (0, 0, 1), which
    annihilates the mean of u1.  Held complex (an exact cast), so that a
    call casts nothing."""
    kx, ky = g.kx[:, None], g.ky[None, :]
    lam = np.array(g.lam, copy=True)
    lam[0, 0] = 1.0  # the quotients at (0, 0) are 0 / 1
    a, b, c = ky * ky / lam, kx * ky / lam, kx * kx / lam
    c[0, 0] = 1.0
    factors = (a.astype(complex), 1j * b, c.astype(complex))
    for f in factors:
        f.flags.writeable = False
    return factors


@lru_cache(maxsize=32)
def _parseval_weights(g: Grid, power: int) -> np.ndarray:
    """Read-only weights lam^power of the Parseval sums, each row counted
    as often as it appears in the full spectrum."""
    w = g.multiplicity[:, None] * g.weight[None, :] * g.lam**power
    w.flags.writeable = False
    return w


def _inner(f: Field, q: Field, power: int) -> float:
    """Parseval sum of f against q with weights lam^power; a vector field
    sums its two components."""
    if isinstance(f, VectorField):
        return _inner(f.u1, q.u1, power) + _inner(f.u2, q.u2, power)
    w = _parseval_weights(f.grid, power)
    return float(np.sum((f.coeffs * np.conj(q.coeffs)).real * w))


def inner_h(f: Field, q: Field) -> float:
    """L2 inner product over the domain."""
    return _inner(f, q, 0)


def norm_h(f: Field) -> float:
    """L2 norm."""
    return float(np.sqrt(max(_inner(f, f, 0), 0.0)))


def norm_v(f: Field) -> float:
    """H1 seminorm, sqrt(sum lam |c|^2 weight); the natural V-norm."""
    return float(np.sqrt(max(_inner(f, f, 1), 0.0)))


def norm_laplacian(f: Field) -> float:
    """L2 norm of the (negative) Laplacian image, sqrt(sum lam^2 |c|^2 weight)."""
    return float(np.sqrt(max(_inner(f, f, 2), 0.0)))


def quadrature(grid: Grid, values: np.ndarray) -> float:
    """Trapezoid-in-y, rectangle-in-x quadrature of collocation values.

    Exact for band-limited integrands (x frequencies below nx, y cosine
    frequencies below 2 ny), which covers products of dealiased fields.
    """
    return float(np.sum(values * grid.quad_weights))


# ---------------------------------------------------------------------------
# seeded random fields


def random_scalar(
    grid: Grid, rng: np.random.Generator, parity: str, norm: float = 1.0
) -> SpectralField:
    """Seeded smooth random field in the dealiased band, scaled to an L2 norm."""
    f = analyze(grid, rng.standard_normal(grid.shape), parity)
    k = 0.25 * float(np.sqrt(grid.lam[grid.dealias_mask].max()))  # decay scale
    f = f * (np.exp(-grid.lam / k**2) * grid.dealias_mask)
    cur = norm_h(f)
    if cur == 0.0:
        raise ValueError("degenerate random sample (zero norm)")
    return f * (norm / cur)


def random_solenoidal(
    grid: Grid, rng: np.random.Generator, norm: float = 1.0
) -> VectorField:
    """Seeded smooth divergence-free field, scaled to an L2 norm."""
    u = VectorField(
        random_scalar(grid, rng, COS, 1.0), random_scalar(grid, rng, SIN, 1.0)
    )
    u = leray_project(u)
    cur = norm_h(u)
    if cur == 0.0:
        raise ValueError("degenerate random sample (zero norm after projection)")
    return u * (norm / cur)


# ---------------------------------------------------------------------------
# spectra of the dissipative operators


def stokes_smallest_eigenvalue(grid: Grid) -> float:
    """Smallest Laplacian eigenvalue over retained admissible modes.

    One value serves both spaces.  Sin-parity temperatures use the modes
    m >= 1.  Divergence-free velocities use the same modes: m = 0 columns
    are pure gradients for n != 0 and the gauged mean flow for n = 0, and
    each admissible (n, m) pairs its two components at one eigenvalue.
    """
    m = np.arange(grid.ny + 1)[None, :]
    sel = grid.dealias_mask & (m >= 1) & (m <= grid.ny - 1)
    return float(grid.lam[sel].min())


# ---------------------------------------------------------------------------
# diagnostics


def solenoidality_defect(u: VectorField) -> float:
    """max |div coefficient| relative to the largest term entering it."""
    g = u.grid
    d1 = 1j * g.kx[:, None] * u.u1.coeffs
    d2 = g.ky[None, :] * u.u2.coeffs
    scale = max(float(np.abs(d1).max()), float(np.abs(d2).max()))
    if scale == 0.0:
        return 0.0
    return float(np.abs(d1 + d2).max()) / scale
