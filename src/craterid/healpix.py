"""Equal-area hierarchical sphere pixelization (NESTED scheme).

Implements exactly the two queries the crater index needs: direction to
pixel id, and the (at most 8) edge/corner-adjacent pixels.  Both take an
array and give one result per element, or a plain result for one input.
``neighbors`` of a pixel array ``(n,)`` is an ``(n, 8)`` int64 array of
ascending rows, -1 standing for the missing corner of the 24 polar
face-corner pixels (and for the two missing blocks of each base pixel at
``k = 0``); no row repeats an id or holds its own pixel.  Resolution is
given by the exponent ``k`` with ``N_side = 2^k`` and ``N_pix = 12 * 4^k``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HealpixGrid", "npix"]

_TWO_THIRDS = 2.0 / 3.0

# Offsets of the 8 neighbor directions: SW, W, NW, N, NE, E, SE, S.
_XOFFSET = np.array([-1, -1, 0, 1, 1, 1, 0, -1])
_YOFFSET = np.array([0, 1, 1, 1, 0, -1, -1, -1])

# Face transition tables for stepping off a face edge, indexed by the 3x3
# block the step lands in (S, SE, E, SW, center, NE, W, NW, N) and by face.
_FACEARRAY = np.array(
    [
        [8, 9, 10, 11, -1, -1, -1, -1, 10, 11, 8, 9],  # S
        [5, 6, 7, 4, 8, 9, 10, 11, 9, 10, 11, 8],  # SE
        [-1, -1, -1, -1, 5, 6, 7, 4, -1, -1, -1, -1],  # E
        [4, 5, 6, 7, 11, 8, 9, 10, 11, 8, 9, 10],  # SW
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],  # center
        [1, 2, 3, 0, 0, 1, 2, 3, 5, 6, 7, 4],  # NE
        [-1, -1, -1, -1, 7, 4, 5, 6, -1, -1, -1, -1],  # W
        [3, 0, 1, 2, 3, 0, 1, 2, 4, 5, 6, 7],  # NW
        [2, 3, 0, 1, -1, -1, -1, -1, 0, 1, 2, 3],  # N
    ]
)
# Coordinate fixups after a face transition (bit0: flip x, bit1: flip y,
# bit2: swap x/y), indexed by block and by face regime (north/equator/south).
_SWAPARRAY = np.array(
    [
        [0, 0, 3],
        [0, 0, 6],
        [0, 0, 0],
        [0, 0, 5],
        [0, 0, 0],
        [5, 0, 0],
        [0, 0, 0],
        [6, 0, 0],
        [3, 0, 0],
    ]
)


def npix(k: int) -> int:
    """Number of equal-area pixels at resolution exponent ``k``."""
    if k < 0:
        raise ValueError("resolution exponent must be non-negative")
    return 12 * 4**k


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Insert a zero bit between each bit of v (v < 2^29)."""
    v = v.astype(np.int64)
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    v = (v | (v << 1)) & 0x5555555555555555
    return v


def _compress_bits(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.int64) & 0x5555555555555555
    v = (v | (v >> 1)) & 0x3333333333333333
    v = (v | (v >> 2)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v >> 4)) & 0x00FF00FF00FF00FF
    v = (v | (v >> 8)) & 0x0000FFFF0000FFFF
    v = (v | (v >> 16)) & 0x00000000FFFFFFFF
    return v


class HealpixGrid:
    """NESTED-scheme pixelization at resolution exponent ``k``."""

    def __init__(self, k: int):
        if k < 0 or k > 20:
            raise ValueError("resolution exponent out of supported range")
        self.k = k
        self.nside = 1 << k
        self.npix = npix(k)

    # -- direction -> pixel -------------------------------------------------

    def ang2pix(self, vec: np.ndarray) -> np.ndarray | int:
        """Pixel id(s) containing unit direction(s) ``vec`` (shape (..., 3))."""
        v = np.asarray(vec, dtype=float)
        scalar = v.ndim == 1
        v = np.atleast_2d(v)
        norm = np.linalg.norm(v, axis=-1)
        z = v[:, 2] / norm
        phi = np.arctan2(v[:, 1], v[:, 0])
        pix = self._zphi2pix(z, phi)
        return int(pix[0]) if scalar else pix

    def _zphi2pix(self, z: np.ndarray, phi: np.ndarray) -> np.ndarray:
        ns = self.nside
        tt = np.mod(phi * (2.0 / np.pi), 4.0)
        ix = np.empty(z.shape, dtype=np.int64)
        iy = np.empty(z.shape, dtype=np.int64)
        face = np.empty(z.shape, dtype=np.int64)

        eq = np.abs(z) <= _TWO_THIRDS
        if np.any(eq):
            temp1 = ns * (0.5 + tt[eq])
            temp2 = ns * (0.75 * z[eq])
            jp = (temp1 - temp2).astype(np.int64)  # ascending edge line
            jm = (temp1 + temp2).astype(np.int64)  # descending edge line
            ifp = jp >> self.k
            ifm = jm >> self.k
            f = np.where(ifp == ifm, ifp | 4, np.where(ifp < ifm, ifp, ifm + 8))
            ix[eq] = jm & (ns - 1)
            iy[eq] = ns - (jp & (ns - 1)) - 1
            face[eq] = f

        po = ~eq
        if np.any(po):
            zp = z[po]
            ntt = np.minimum(tt[po].astype(np.int64), 3)
            tp = tt[po] - ntt
            tmp = ns * np.sqrt(3.0 * (1.0 - np.abs(zp)))
            jp = np.minimum((tp * tmp).astype(np.int64), ns - 1)
            jm = np.minimum(((1.0 - tp) * tmp).astype(np.int64), ns - 1)
            north = zp >= 0.0
            ix[po] = np.where(north, ns - jm - 1, jp)
            iy[po] = np.where(north, ns - jp - 1, jm)
            face[po] = np.where(north, ntt, ntt + 8)

        return self._xyf2nest(ix, iy, face)

    def _xyf2nest(self, ix: np.ndarray, iy: np.ndarray, face: np.ndarray) -> np.ndarray:
        return face * (self.nside * self.nside) + _spread_bits(ix) + (
            _spread_bits(iy) << 1
        )

    # -- adjacency ----------------------------------------------------------

    def neighbors(self, pix: np.ndarray | int) -> np.ndarray | list[int]:
        """Edge/corner-adjacent pixel ids of ``pix``, without ``pix`` itself:
        ``(n, 8)`` rows for an array (see the module docstring), the ascending
        list of ints for one pixel.  Bulk pixels have 8 neighbors; the pixels
        at the 24 polar face corners have only 7 (there is no pixel across
        the missing corner).
        """
        scalar = np.ndim(pix) == 0
        p = np.atleast_1d(np.asarray(pix, dtype=np.int64))
        bad = p[(p < 0) | (p >= self.npix)]
        if bad.size:
            raise ValueError(f"pixel {bad[0]} out of range for k={self.k}")
        ns = self.nside
        face, ipf = np.divmod(p[:, None], ns * ns)
        x = _compress_bits(ipf) + _XOFFSET
        y = _compress_bits(ipf >> 1) + _YOFFSET
        # The 3x3 face block each step lands in (row 4 of the tables is the
        # pixel's own face); off the face, the coordinates wrap, flip and swap.
        dx = (x >= ns).astype(np.int64) - (x < 0)
        dy = (y >= ns).astype(np.int64) - (y < 0)
        block = 4 + dx + 3 * dy
        x, y = x - dx * ns, y - dy * ns
        nb_face = _FACEARRAY[block, face]
        bits = _SWAPARRAY[block, face >> 2]
        x = np.where(bits & 1, ns - x - 1, x)
        y = np.where(bits & 2, ns - y - 1, y)
        x, y = np.where(bits & 4, y, x), np.where(bits & 4, x, y)
        q = np.sort(np.where(nb_face < 0, -1, self._xyf2nest(x, y, nb_face)), axis=1)
        return [int(v) for v in q[0] if v >= 0] if scalar else q
