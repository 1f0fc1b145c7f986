"""Bounded-memory bulk evaluation.

Every bulk evaluation (the disease-free ISS grid, the sublevel sampler's
acceptance test and the endemic decrease check) runs over
consecutive bands of rows of about `BAND_POINTS` points, so the memory it
holds stays bounded whatever the grid or sample size.  Reductions over the
bands keep first-occurrence order, so results do not depend on the band size.
"""
from __future__ import annotations

#: points per band of every bulk evaluation
BAND_POINTS = 1 << 16

#: sampling defaults of `verify`, kept here so the CLI's config need not import it
DEFAULT_SEED = 0x5121  # "SIR1"
GRID_N = 60            # grid points per axis of check_df_grid_iss
N_SAMPLES = 100_000    # endemic decrease samples


def bands(n: int, per: int = 1) -> list:
    """Consecutive (a, b) ranges covering range(n), in order, of about
    BAND_POINTS points each when one unit of the range holds `per` points
    (at least one unit per band); the first band is the widest."""
    step = max(1, BAND_POINTS // per)
    return [(a, min(a + step, n)) for a in range(0, n, step)]
