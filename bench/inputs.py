"""Seeded input builders for the benchmark workloads.

Every builder is a pure function of its arguments: the same seed gives the
same inputs, byte for byte.  ``gridclust`` must already be importable.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from gridclust import synth
from gridclust.ingest import AnnualMeanStack


def _unit_field(rng: np.random.Generator, shape: tuple[int, int], sigma: float) -> np.ndarray:
    """Gaussian-smoothed white noise scaled to zero mean and unit deviation."""
    field = gaussian_filter(rng.standard_normal(shape), sigma=sigma, mode="reflect")
    field -= field.mean()
    return field / field.std()


def _with_values(stack: AnnualMeanStack, values: list[np.ndarray]) -> AnnualMeanStack:
    fields = tuple(replace(f, values=v) for f, v in zip(stack.fields, values))
    return replace(stack, fields=fields)


def noisy_stack(n: int, seed: int, sigma: float = 2.0):
    """Planted n x n x 31-year stack plus per-year iid N(0, sigma) noise."""
    stack, truth = synth.make_planted_stack(n, n, 31, 15, seed=seed)
    rng = np.random.default_rng([seed, 1])
    values = [f.values + rng.normal(0.0, sigma, f.values.shape) for f in stack.fields]
    return _with_values(stack, values), truth


def relief_stack(
    n: int,
    seed: int,
    relief: float = 3.0,
    anomaly: float = 0.5,
    sigma: float = 2.0,
):
    """Planted n x n x 31-year stack plus a fixed smoothed relief and a smaller
    smoothed per-year anomaly, rounded to 0.1 degrees."""
    stack, truth = synth.make_planted_stack(n, n, 31, 15, seed=seed)
    rng = np.random.default_rng([seed, 2])
    shape = (n, n)
    fixed = relief * _unit_field(rng, shape, sigma)
    values = [
        np.round(f.values + fixed + anomaly * _unit_field(rng, shape, sigma), 1)
        for f in stack.fields
    ]
    return _with_values(stack, values), truth


def planted_dataset(root: Path, n: int, seed: int):
    """Write the planted n x n x 31-year, 360-day GTS dataset to ``root``."""
    return synth.write_planted_dataset(
        root, nrows=n, ncols=n, n_years=31, b_exact=15, seed=seed
    )
