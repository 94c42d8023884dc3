import numpy as np
import pytest


def brute_force_filter(points, mode="strong"):
    """Quadratic all-pairs nondominated filter; the reference the library's
    filter is checked against."""
    P = np.asarray(points, dtype=float)
    keep = np.ones(P.shape[0], dtype=bool)
    for i in range(P.shape[0]):
        for j in range(P.shape[0]):
            if i == j:
                continue
            if mode == "strong":
                if np.all(P[j] <= P[i]) and np.any(P[j] < P[i]):
                    keep[i] = False
                    break
            else:
                if np.all(P[j] < P[i]):
                    keep[i] = False
                    break
    return keep


def all_pairs_filter(points, mode="strong"):
    """Vectorised all-pairs nondominated filter: every point is compared with
    every other, a chunk of columns at a time. Fast enough to check the
    library's sort-based filter on clouds of thousands of points."""
    P = np.asarray(points, dtype=float)
    dominated = np.zeros(P.shape[0], dtype=bool)
    chunk = 256
    for start in range(0, P.shape[0], chunk):
        block = P[start : start + chunk]  # (b, N)
        if mode == "strong":
            le = np.all(P[:, None, :] <= block[None, :, :], axis=2)
            lt = np.any(P[:, None, :] < block[None, :, :], axis=2)
            dom = le & lt
        else:
            dom = np.all(P[:, None, :] < block[None, :, :], axis=2)
        dominated[start : start + chunk] = dom.any(axis=0)
    return ~dominated


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
