import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from qpercept import toymodels
from qpercept.hypotheses import realize
from qpercept.operators import Operator, State, expectation, haar_random_unitary

REPO = Path(__file__).resolve().parents[1]


def subprocess_env() -> dict:
    """The environment for a fresh interpreter: qpercept from src/, and no seed."""
    env = dict(os.environ)
    env.pop("QPERCEPT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


# a failure the randomized search finds prints a @reproduce_failure blob that replays it
settings.register_profile("qpercept", print_blob=True)
settings.load_profile("qpercept")


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


def minmax_linpos(aq, ar, qr):
    """Oracle: the interval condition on a.q, a.r and q.r in its max/min form,
    max(0, (a.q + a.r)/2) <= Re <QR> <= min(<Q>, <R>), through numpy's
    maximum and minimum."""
    mid = 0.25 * (1.0 + qr + aq + ar)
    lhs = np.maximum(0.0, 0.5 * (aq + ar))
    rhs = np.minimum(0.5 * (1.0 + aq), 0.5 * (1.0 + ar))
    return (lhs <= mid + toymodels.LINPOS_SLACK) & (mid <= rhs + toymodels.LINPOS_SLACK)


def matrix_route_linpos(rho: State, q: Operator, r: Operator) -> bool:
    """Oracle: max(0, <Q+R-I>) <= Re <QR> <= min(<Q>, <R>) from the matrices."""
    exp_q = expectation(rho, q).real
    exp_r = expectation(rho, r).real
    re_qr = np.trace(rho.mat @ q.mat @ r.mat).real
    eps = 1e-12
    return max(0.0, exp_q + exp_r - 1.0) <= re_qr + eps and re_qr <= min(exp_q, exp_r) + eps


def two_step_matrix_route(rho: State, q: Operator, r: Operator):
    """Oracle: the realized two_step_family measures, Tr rho(QR - QRQ) and the
    interval condition, all from 2x2 matrices."""
    measures = [expectation(rho, realize(spec)).real for _, spec, _ in toymodels.two_step_family(q, r).entries]
    cross = complex(np.trace(rho.mat @ (q.mat @ r.mat - q.mat @ r.mat @ q.mat)))
    return measures, cross, matrix_route_linpos(rho, q, r)


def spherical_triangle_solid_angle(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Oracle: solid angle of the spherical triangle with unit-vector vertices.

    Interior corner angles come from the tangents of the great-circle arcs at
    each vertex; the excess of their sum over pi is the area.  Broadcasts over
    leading axes.
    """

    def corner(p, q, r):
        tq = q - np.sum(p * q, axis=-1, keepdims=True) * p
        tr = r - np.sum(p * r, axis=-1, keepdims=True) * p
        cross = np.cross(tq, tr)
        sin_a = np.linalg.norm(cross, axis=-1)
        cos_a = np.sum(tq * tr, axis=-1)
        return np.arctan2(sin_a, cos_a)

    return corner(a, b, c) + corner(b, c, a) + corner(c, a, b) - math.pi


def eight_triangle_areas(s: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Oracle: areas of the eight regions cut by the three great circles through
    each pair of +-s, +-q, +-r; one region per sign choice of the vertices."""
    signs = np.array(
        [(es, eq, er) for es in (1, -1) for eq in (1, -1) for er in (1, -1)], dtype=float
    )
    # one broadcast call over a sign axis just before the vector axis
    s8, q8, r8 = (np.asarray(v)[..., np.newaxis, :] * signs[:, [k]] for k, v in enumerate((s, q, r)))
    return spherical_triangle_solid_angle(s8, q8, r8)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
