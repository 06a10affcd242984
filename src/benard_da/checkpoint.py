"""Binary state checkpoints.

Layout: an 8-byte magic string, a uint32 format version, the grid (nx,
ny, L), the physical parameters (nu, kappa, mu), the state time, the
seed, and a history flag, followed by the coefficient arrays (u1, u2,
theta) as little-endian complex pairs of 64-bit floats in declared
order, each the rows n = 0 .. nx/2 of the half spectrum, shape
(nx/2 + 1, ny + 1).  When the flag is set, the stepper history (its
(3, nx/2 + 1, ny + 1) tendency stack, u1, u2 and theta in that order,
and its dt) follows, so a resumed run reproduces an uninterrupted one
bit for bit.  Resuming takes the dt the history was made with; the
stepper refuses any other.  Version 1 files held all nx rows, version 2
headers also held the observation spacing h and version 3 headers the
dealias fraction; all are refused.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .model import PhysicalParams, State
from .spectral import COS, SIN, Grid, SpectralField, VectorField
from .stepping import History

__all__ = ["MAGIC", "VERSION", "Checkpoint", "save_checkpoint", "load_checkpoint"]

MAGIC = b"BENARDDA"
VERSION = 4

_HEADER = struct.Struct("<8sIII5dqB")  # magic, version, nx, ny, floats, seed, flag


@dataclass(frozen=True)
class Checkpoint:
    params: PhysicalParams
    state: State
    seed: int
    history: Optional[History] = None


def _array_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<c16").tobytes()


def save_checkpoint(
    path,
    state: State,
    params: PhysicalParams,
    seed: int,
    history: Optional[History] = None,
) -> None:
    if state.passengers:
        raise ValueError(f"checkpoints hold no passengers, got {len(state.passengers)}")
    g = state.grid
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        g.nx,
        g.ny,
        g.L,
        params.nu,
        params.kappa,
        params.mu,
        state.time,
        seed,
        1 if history is not None else 0,
    )
    chunks = [
        header,
        _array_bytes(state.velocity.u1.coeffs),
        _array_bytes(state.velocity.u2.coeffs),
        _array_bytes(state.temperature.coeffs),
    ]
    if history is not None:
        chunks += [_array_bytes(history.tendencies), struct.pack("<d", history.dt)]
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at path; any refusal is a ValueError naming the file."""
    try:
        return _decode(Path(path).read_bytes())
    except ValueError as e:
        raise ValueError(f"checkpoint {path}: {e}") from e


def _decode(blob: bytes) -> Checkpoint:
    if len(blob) < _HEADER.size:
        raise ValueError(f"truncated: {len(blob)} bytes, shorter than the header")
    (
        magic,
        version,
        nx,
        ny,
        L,
        nu,
        kappa,
        mu,
        time,
        seed,
        flag,
    ) = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ValueError(f"not a checkpoint file (magic {magic!r})")
    if version != VERSION:
        raise ValueError(f"format version {version}, expected {VERSION}")
    grid = Grid(L, nx, ny)
    shape = grid.coeff_shape
    count = shape[0] * shape[1]
    nbytes = 16 * count
    expected = _HEADER.size + 3 * nbytes + (3 * nbytes + 8 if flag else 0)
    if len(blob) != expected:
        raise ValueError(f"holds {len(blob)} bytes, expected {expected}")

    def stack(i: int) -> np.ndarray:
        """Arrays i, i + 1 and i + 2 as one (3, nx/2 + 1, ny + 1) stack."""
        start = _HEADER.size + i * nbytes
        flat = np.frombuffer(blob, dtype="<c16", count=3 * count, offset=start)
        return flat.reshape((3,) + shape).copy()

    u1, u2, theta = stack(0)
    state = State(
        VectorField(SpectralField(grid, COS, u1), SpectralField(grid, SIN, u2)),
        SpectralField(grid, SIN, theta),
        time,
    )
    history = None
    if flag:
        (hdt,) = struct.unpack_from("<d", blob, _HEADER.size + 6 * nbytes)
        tendencies = stack(3)
        tendencies.flags.writeable = False
        history = History(tendencies, hdt)
    params = PhysicalParams(nu=nu, kappa=kappa, mu=mu)
    return Checkpoint(params=params, state=state, seed=seed, history=history)
