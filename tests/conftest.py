import math

import numpy as np
import pytest

from qpercept import toymodels
from qpercept.operators import Operator, State, haar_random_unitary


def random_state(rng: np.random.Generator, dim: int) -> State:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return State(rho / np.trace(rho).real)


def random_hermitian(rng: np.random.Generator, dim: int) -> Operator:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Operator((g + g.conj().T) / 2)


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> Operator:
    u = haar_random_unitary(dim, int(rng.integers(0, 2**31))).mat
    block = u[:, :rank]
    return Operator(block @ block.conj().T)


def sphere_directions(rng: np.random.Generator, count: int) -> np.ndarray:
    """Oracle: (count, 3) uniform sphere samples from a uniform cos(polar),
    then a uniform azimuth, the draws the linear-positivity kernel makes."""
    cos_t = rng.uniform(-1.0, 1.0, count)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    return np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t])


def vector_linpos(s: np.ndarray, qs: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """Oracle: the interval condition on Bloch-vector dot products, state s."""
    return toymodels._linpos_mask(qs @ s, rs @ s, np.einsum("ij,ij->i", qs, rs))


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
