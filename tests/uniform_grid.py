"""Enumerated uniforms: the randomizer's exact laws, for the tests.

One user's message is a fixed function of its t uniforms: `_floyd_sample`
reads them with one `rng.random(out=...)` call per block, and `_respond`
reads only the u' that each split leaves.  A generator that hands out a
chosen grid of uniforms turns each law into a count over the grid, with no
seed and no sampling error.
"""

import numpy as np


class UniformsRng:
    """A stand-in generator: each `random(out=...)` call fills its (t, m)
    output with the next m columns of a (t, N) grid, across blocks; `used`
    counts the columns handed out."""

    def __init__(self, grid):
        self.grid = np.asarray(grid, dtype=float)
        self.used = 0

    def random(self, out):
        m = out.shape[-1]
        out[...] = self.grid[:, self.used : self.used + m]
        self.used += m
        return out


def cell_grid(d: int, t: int, sub: int) -> np.ndarray:
    """The (t, N) grid of every tuple of Floyd cells (row i of Floyd's step
    has d - t + i + 1 outcomes), each cell split into `sub` sub-cells: row i
    holds the midpoints (q + 1/2) / (sub (d - t + i + 1)), and the columns
    run over their product, N = sub^t d! / (d - t)!.  Floyd's split of such
    a u gives the cell q // sub and a u' in sub-cell q % sub, both exactly,
    as the midpoint lies 1/(2 sub) inside its sub-cell."""
    sizes = sub * np.arange(d - t + 1, d + 1)
    q = np.indices(tuple(sizes)).reshape(t, -1)
    return (q + 0.5) / sizes[:, None]
