"""Coarse observation operators acting on velocity fields.

Three kinds at resolution h on the solver's own grid:

- "modal": orthogonal projection onto wavenumber pairs with Euclidean
  modulus |k| <= 1/h.  Idempotent and self-adjoint.
- "volume": averages over a partition of the domain into ceil(L/h) x
  ceil(1/h) rectangles (cell side <= h; at most nx x ny), re-expanded
  spectrally by exact quadrature of the piecewise-constant extension.
- "nodal": point samples at the cell centers of the same partition,
  extended piecewise-constant and re-expanded the same way.

Every kind splits into finite data and the interpolant built from it:
observe(u) = interpolate(measure(u)).  measure() gives the data, one array
per velocity component: the complex coefficients at the retained modes
(modal), the real cell averages (volume) or the real cell-center values
(nodal).  interpolate() turns that data back into the spectral field I_h(u).
Cell integrals of the trigonometric basis functions have closed forms, so
both the averaging and the re-expansion are exact linear maps; no secondary
interpolation is involved anywhere.  Each volume/nodal spec builds its
product tables once and keeps them read-only: measure() applies the x and
y factors of the closed forms in their literal order; interpolate() folds
1/weight into the y table and fills only the dealiased band, which moves
I_h at round-off (within 1e-13 relative of the literal formulas).  Observations are of velocity only:
measure() rejects scalar fields so that no code path can ever consume a
temperature observation.

The modal operator satisfies the one-term approximation bound

    |P(w - I_h w)|^2 <= c0^2 h^2 |w|_V^2

with c0 <= 1 by Parseval (every discarded mode has |k| > 1/h), volume
empirically satisfies the same form, and nodal the two-term variant

    |P(w - I_h w)|^2 <= (1/2) c0^2 h^2 |w|_V^2 + (1/4) c0^4 h^4 |Aw|^2.

estimate_approximation_constant() measures the smallest c0 making the
relevant bound hold over a random sample set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Tuple

import numpy as np

from .spectral import (
    COS,
    SIN,
    Grid,
    SpectralField,
    VectorField,
    _adopt,
    analyze,
    leray_project,
    norm_h,
    norm_laplacian,
    norm_v,
    random_solenoidal,
)

__all__ = [
    "MODAL",
    "VOLUME",
    "NODAL",
    "KINDS",
    "InterpolantSpec",
    "measure",
    "interpolate",
    "observe",
    "modal_projection_mask",
    "cell_partition",
    "approximation_samples",
    "estimate_approximation_constant",
]

MODAL = "modal"
VOLUME = "volume"
NODAL = "nodal"
KINDS = (MODAL, VOLUME, NODAL)


@dataclass(frozen=True)
class InterpolantSpec:
    """Observation operator selector: kind, resolution h, grid binding."""

    kind: str
    h: float
    grid: Grid

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not (self.h > 0):
            raise ValueError("h must be positive")
        g = self.grid
        if self.h > min(g.L, 1.0):
            raise ValueError(
                f"h={self.h} exceeds the domain size min(L, 1) = {min(g.L, 1.0)}"
            )
        # cells cost 1/h^2; ceil(c) > n exactly when c > n, so inf needs no ceil
        finer = _cells(g.L, self.h) > g.nx or _cells(1.0, self.h) > g.ny
        if self.kind != MODAL and finer:
            raise ValueError(
                f"{self.kind} h={self.h} is finer than the {g.nx}x{g.ny} grid"
                f" (L={g.L}): ceil(L/h) must not exceed nx, nor ceil(1/h) ny"
            )

    @property
    def uses_two_term_bound(self) -> bool:
        return self.kind == NODAL


@lru_cache(maxsize=32)
def modal_projection_mask(spec: InterpolantSpec) -> np.ndarray:
    """Boolean retention mask for the modal kind: |k| <= 1/h (read-only)."""
    if spec.kind != MODAL:
        raise ValueError(f"projection mask is defined for modal specs, not {spec.kind!r}")
    lam = spec.grid.lam
    try:
        mask = lam <= (1.0 / spec.h) ** 2
    except OverflowError:  # so fine an h keeps every mode
        mask = np.ones_like(lam, dtype=bool)
    mask.flags.writeable = False
    return mask


def _cells(length: float, h: float) -> float:
    """length / h, shrunk so that float junk cannot push its ceil, the cell count, up."""
    return length / h * (1.0 - 1e-12)


def cell_partition(spec: InterpolantSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Cell edge coordinates (x_edges, y_edges) of the coarse partition."""
    g = spec.grid
    mx, my = math.ceil(_cells(g.L, spec.h)), math.ceil(_cells(1.0, spec.h))
    return np.linspace(0.0, g.L, mx + 1), np.linspace(0.0, 1.0, my + 1)


@lru_cache(maxsize=32)
def _cell_operators(spec: InterpolantSpec):
    """Closed-form basis integrals over cells and cell-center samples.

    Ix[i, n] = integral of exp(i kx_n x) over x-cell i for the stored rows
    n = 0 .. nx/2, and likewise Iyc/Iys for cos(m pi y)/sin(m pi y) over
    y-cells; Ex/Eyc/Eys are the basis values at cell centers; dx, dy are
    the cell widths.
    """
    g = spec.grid
    xe, ye = cell_partition(spec)
    kx = g.kx
    ky = g.ky

    a, b = xe[:-1, None], xe[1:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ix = (np.exp(1j * kx[None, :] * b) - np.exp(1j * kx[None, :] * a)) / (
            1j * kx[None, :]
        )
    ix[:, kx == 0.0] = (b - a).astype(complex)

    ya, yb = ye[:-1, None], ye[1:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        iyc = (np.sin(ky[None, :] * yb) - np.sin(ky[None, :] * ya)) / ky[None, :]
        iys = (np.cos(ky[None, :] * ya) - np.cos(ky[None, :] * yb)) / ky[None, :]
    iyc[:, ky == 0.0] = yb - ya
    iys[:, ky == 0.0] = 0.0

    xc = 0.5 * (xe[:-1] + xe[1:])
    yc = 0.5 * (ye[:-1] + ye[1:])
    ex = np.exp(1j * np.outer(xc, kx))
    eyc = np.cos(np.outer(yc, ky))
    eys = np.sin(np.outer(yc, ky))
    for t in (ix, iyc, iys, ex, eyc, eys):
        t.flags.writeable = False
    return ix, iyc, iys, ex, eyc, eys, xe[1] - xe[0], ye[1] - ye[0]


@lru_cache(maxsize=32)
def _tables(spec: InterpolantSpec) -> dict:
    """A volume/nodal spec's read-only product tables, built once.

    "measure" and (parity, "measure") are the x and y factors of the
    measurement; "expand" and (parity, "expand") those of the expansion on
    the dealiased band, the only block it fills: rows of ix^H, and columns
    of iy / weight.
    """
    ix, iyc, iys, ex, eyc, eys, dx, dy = _cell_operators(spec)
    g = spec.grid
    rows, cols = int(g.dealias_mask[:, 0].sum()), int(g.dealias_mask[0].sum())
    # each row n = 1 .. nx/2 - 1 stands for n and -n, so it counts twice
    if spec.kind == VOLUME:
        x, ys = ix / dx * g.multiplicity, ((iyc / dy).T, (iys / dy).T)
    else:
        x, ys = ex * g.multiplicity, (eyc.T, eys.T)
    tables = {"measure": x, "expand": ix.conj().T[:rows].copy()}
    for parity, y, iy in zip((COS, SIN), ys, (iyc, iys)):
        tables[parity, "measure"] = y
        tables[parity, "expand"] = (iy / g.weight)[:, :cols].copy()
    for t in tables.values():
        t.flags.writeable = False
    return tables


def _coarse_values(f: SpectralField, spec: InterpolantSpec) -> np.ndarray:
    """Cell averages (volume) or cell-center samples (nodal), real."""
    tables = _tables(spec)
    values = tables["measure"] @ f.coeffs @ tables[f.parity, "measure"]
    # the mirror rows -n add the conjugate of the rows n, so the value of
    # the real field is the real part of this half sum
    return values.real


def _expand(data: np.ndarray, parity: str, spec: InterpolantSpec) -> SpectralField:
    """One component of I_h: the retained modes in place, or the exact
    spectral coefficients of the piecewise-constant extension of the cells,
    zero outside the dealiased band."""
    g = spec.grid
    coeffs = np.zeros(g.coeff_shape, dtype=complex)
    if spec.kind == MODAL:
        coeffs[modal_projection_mask(spec)] = data
    else:
        tables = _tables(spec)
        band = tables["expand"] @ (data @ tables[parity, "expand"])
        coeffs[: band.shape[0], : band.shape[1]] = band
    return _adopt(g, parity, coeffs)


def measure(u: VectorField, spec: InterpolantSpec) -> Tuple[np.ndarray, np.ndarray]:
    """The finite observation data of a velocity field, one array per component.

    Modal: the complex coefficients at the retained modes, in mask order
    (row-major over the stored rows n = 0 .. nx/2).
    Volume: the real cell averages; nodal: the real cell-center values,
    both of shape (cells in x, cells in y).  Scalar fields are refused: the
    assimilation uses velocity observations only, and this interface is
    where that restriction is enforced.
    """
    if not isinstance(u, VectorField):
        raise TypeError(
            "measure() takes a velocity VectorField; scalar fields are never observed"
        )
    if u.grid != spec.grid:
        raise ValueError("field and observation spec live on different grids")
    if spec.kind == MODAL:
        mask = modal_projection_mask(spec)
        return u.u1.coeffs[mask], u.u2.coeffs[mask]
    return _coarse_values(u.u1, spec), _coarse_values(u.u2, spec)


def interpolate(data: tuple, spec: InterpolantSpec) -> VectorField:
    """The interpolant I_h built from measure()'s data for the same spec."""
    return VectorField(_expand(data[0], COS, spec), _expand(data[1], SIN, spec))


def observe(f: VectorField, spec: InterpolantSpec) -> VectorField:
    """Apply the observation operator to a velocity field: I_h(f)."""
    return interpolate(measure(f, spec), spec)


def _shell_solenoidal(
    grid: Grid, rng: np.random.Generator, k_center: float
) -> Optional[VectorField]:
    """Random solenoidal field with energy in a shell around |k| = k_center."""
    ring = (np.abs(np.sqrt(grid.lam) - k_center) <= 0.35 * k_center) & grid.dealias_mask
    if not ring.any():
        return None
    c1 = analyze(grid, rng.standard_normal(grid.shape), COS)
    c2 = analyze(grid, rng.standard_normal(grid.shape), SIN)
    w = leray_project(VectorField(c1, c2) * ring)
    n = norm_h(w)
    if n == 0.0:
        return None
    return w / n


def approximation_samples(
    spec: InterpolantSpec,
    sample_count: int,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[VectorField]:
    """The random sample family behind the reported approximation constant.

    Samples alternate between fields concentrated in a spectral shell
    around pi/h, the first zero of the cell-averaging kernel, where the
    error ratio is extremal, and broadband fields; smooth samples alone
    would give an optimistically small constant.  The shell is capped at
    the grid's dealiasing band so that an under-resolved h probes the grid,
    not nothing.  Replaying the same rng reproduces the family sample for
    sample.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if rng is None:
        rng = np.random.default_rng(0)
    g = spec.grid
    band_edge = float(np.sqrt(g.lam[g.dealias_mask].max()))
    shell_k = min(np.pi / spec.h, 0.8 * band_edge)
    for i in range(sample_count):
        if i % 2 == 0:
            w = _shell_solenoidal(g, rng, shell_k)
            if w is None:
                w = random_solenoidal(g, rng, norm=1.0)
        else:
            w = random_solenoidal(g, rng, norm=1.0)
        yield w


def estimate_approximation_constant(
    spec: InterpolantSpec,
    sample_count: int,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Empirical constant c0 of the approximation bound for this operator.

    The smallest c0 making the bound hold on every approximation_samples
    draw: for one-term kinds the max of |P(w - I_h w)| / (h |w|_V); for
    the nodal kind the max root of the two-term quadratic in c0^2.
    """
    worst = 0.0
    for w in approximation_samples(spec, sample_count, rng):
        err = norm_h(leray_project(w - observe(w, spec)))
        if spec.uses_two_term_bound:
            a = 0.5 * spec.h**2 * norm_v(w) ** 2
            b = 0.25 * spec.h**4 * norm_laplacian(w) ** 2
            z = (-a + math.sqrt(a * a + 4.0 * b * err * err)) / (2.0 * b)
            worst = max(worst, math.sqrt(max(z, 0.0)))
        else:
            worst = max(worst, err / (spec.h * norm_v(w)))
    return worst
