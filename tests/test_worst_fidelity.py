"""The exact worst fidelity of a qubit map against a brute-force minimum.

``spectra.worst_fidelity`` reads a linear qubit map off four inputs and
solves a 3x3 trust-region problem. The reference here knows none of that: it
scores a dense grid of pure inputs through the map itself and refines the
best grid points by a pattern search on the sphere. The two must agree
within 1e-12 on random channels, on the identity and the fully depolarising
channel, on a degenerate Bloch matrix and on hard-case instances.

A pad route's left side reports this figure, so the route tests check that
it never exceeds the fidelity of any of the sixteen probe qubits a state
sweep would try, and that it is exactly 1/2 where the key is disclosed.
"""

from __future__ import annotations

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab.boolfn import BoolFn
from cdslab.families import named_fn
from cdslab.gardenhose import LEFT
from cdslab.ghsearch import gh_generic, gh_search
from cdslab.padroutes import cdqs_from_cds, cdqs_from_psqm, frouting_from_cdqs, psqm_from_psm
from cdslab.protocols import cds_from_gh, cds_from_psm, psm_generic_table
from cdslab.quantum import overlap
from cdslab.qverifiers import verify_frouting
from cdslab.spectra import worst_fidelity
from cdslab.toolkit import probe_qubits

TOL = 1e-12
AND1 = named_fn("and", n=1)


# -- the brute-force reference -------------------------------------------------------


def _qubit(theta: float, phi: float) -> tuple:
    return (math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2))


def _point(n) -> tuple:
    """The pure qubit with Bloch vector n / |n|."""
    norm = math.sqrt(sum(c * c for c in n))
    x, y, z = (c / norm for c in n)
    return _qubit(math.acos(max(-1.0, min(1.0, z))), math.atan2(y, x))


def _tangents(n) -> tuple:
    """Two unit vectors orthogonal to n and to each other."""
    helper = (1.0, 0.0, 0.0) if abs(n[0]) < 0.9 else (0.0, 1.0, 0.0)
    u = _cross(n, helper)
    norm = math.sqrt(sum(c * c for c in u))
    u = tuple(c / norm for c in u)
    return u, _cross(n, u)


def _cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def brute_force_minimum(channel, grid: int = 40) -> float:
    """min over pure psi of <psi| channel(psi) |psi>, by grid and local descent."""
    def score(n):
        psi = _point(n)
        return overlap(channel(psi), psi)

    points = []
    for i in range(grid + 1):
        theta = math.pi * i / grid
        for k in range(2 * grid):
            phi = math.pi * k / grid
            n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                 math.cos(theta))
            points.append((score(n), n))
    points.sort()
    best = math.inf
    for value, n in points[:4]:
        step = math.pi / grid
        while step > 1e-10:
            u, v = _tangents(n)
            moves = [tuple(c + step * (a * du + b * dv) for c, du, dv in zip(n, u, v))
                     for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1))]
            got, m = min((score(m), m) for m in moves)
            if got < value:
                norm = math.sqrt(sum(c * c for c in m))
                value, n = got, tuple(c / norm for c in m)
            else:
                step /= 2
        best = min(best, value)
    return best


# -- maps under test -----------------------------------------------------------------


def stinespring(seed: int):
    """A random qubit channel: a random isometry into qubit x environment, traced."""
    rng = random.Random(seed)
    env = rng.choice((1, 2, 3))
    cols = []
    for _ in range(2):
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2 * env)]
        for c in cols:
            dot = sum(a.conjugate() * b for a, b in zip(c, v))
            v = [b - dot * a for a, b in zip(c, v)]
        norm = math.sqrt(sum(abs(z) ** 2 for z in v))
        cols.append([z / norm for z in v])

    def channel(psi):
        w = [cols[0][r] * psi[0] + cols[1][r] * psi[1] for r in range(2 * env)]
        return [[sum(w[i * env + e] * w[j * env + e].conjugate() for e in range(env))
                 for j in range(2)] for i in range(2)]

    return channel


def bloch_map(T, t):
    """rho = (I + r.sigma) / 2 -> (I + (T r + t).sigma) / 2, extended linearly:
    amplitudes psi of norm n^(1/2) give n times the image of the unit state."""
    def channel(psi):
        a, b = psi
        n = abs(a) ** 2 + abs(b) ** 2
        r = (2 * (a.conjugate() * b).real, 2 * (a.conjugate() * b).imag,
             abs(a) ** 2 - abs(b) ** 2)
        s = [sum(T[i][j] * r[j] for j in range(3)) + n * t[i] for i in range(3)]
        return [[(n + s[2]) / 2, (s[0] - 1j * s[1]) / 2],
                [(s[0] + 1j * s[1]) / 2, (n - s[2]) / 2]]

    return channel


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
ZERO = ((0, 0, 0), (0, 0, 0), (0, 0, 0))
MAPS = {
    "identity": (bloch_map(IDENTITY, (0, 0, 0)), 1.0),
    "depolarising": (bloch_map(ZERO, (0, 0, 0)), 0.5),
    # the lowest eigenvalue of diag(1, 1, -1) is simple, the highest double
    "degenerate": (bloch_map(((1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, 0, 0)), 0.0),
    # t has no component on the lowest eigenvector, e_z: the hard case, with the
    # minimum at n = (-0.075, 0, +-sqrt(1 - 0.075^2)), value -0.005625
    "hard": (bloch_map(((1, 0, 0), (0, 1, 0), (0, 0, -1)), (0.3, 0, 0)), -0.005625),
    # a two-dimensional lowest eigenspace, t orthogonal to it: a circle of minima
    "hard_circle": (bloch_map(((-0.8, 0, 0), (0, -0.8, 0), (0, 0, 0.6)), (0, 0, 0.3)),
                    None),
    # a quarter turn about y: T is not symmetric, and every input off the axis,
    # at n_y = 0, is worst
    "quarter_turn": (bloch_map(((0, 0, -1), (0, 1, 0), (1, 0, 0)), (0, 0, 0)), 0.5),
    "amplitude_damping": (bloch_map(((0.6, 0, 0), (0, 0.6, 0), (0, 0, 0.36)),
                                    (0, 0, 0.64)), None),
}


@pytest.mark.parametrize("name", list(MAPS))
def test_named_maps_match_the_brute_force_minimum(name):
    channel, known = MAPS[name]
    got = worst_fidelity(channel)
    assert abs(got - brute_force_minimum(channel)) <= TOL, name
    if known is not None:
        assert abs(got - known) <= TOL, name


@pytest.mark.parametrize("seed", range(12))
def test_random_channels_match_the_brute_force_minimum(seed):
    channel = stinespring(seed)
    got = worst_fidelity(channel)
    assert abs(got - brute_force_minimum(channel)) <= TOL
    assert 0.0 <= got <= 1.0 + TOL


# -- pad routes -----------------------------------------------------------------------


def _check_left_side(C, leak=None) -> None:
    """The route's exact left figures bound every probe and fill its report."""
    R = frouting_from_cdqs(C)
    report = verify_frouting(R)
    probes = [vec for _, vec in probe_qubits(range(10))]
    assert len(probes) == 16
    lefts = 0
    for (x, y) in R.domain:
        side, reg = R.exit_info(x, y)
        if side != LEFT:
            continue
        lefts += 1
        exact = worst_fidelity(lambda psi: R.left_output(x, y, psi))
        assert report.per_input[(x, y)]["fidelity"] == exact
        sampled = [overlap(R.left_output(x, y, vec), vec) for vec in probes]
        assert exact <= min(sampled) + TOL, (x, y)
        if (x, y) == leak:
            assert abs(exact - 0.5) <= TOL
            assert max(abs(s - 0.5) for s in sampled) <= TOL
        else:
            assert 1 - exact <= TOL, (x, y)
    assert lefts > 0


def _gh_cds(f):
    return cds_from_gh(gh_search(f, 3) or gh_generic(f), f)


@pytest.mark.parametrize("name", ["and", "xor", "eq"])
def test_gh_cds_routes_left_side(name):
    _check_left_side(cdqs_from_cds(_gh_cds(named_fn(name, n=1))))


@pytest.mark.parametrize("f", [AND1, named_fn("xor", n=1), named_fn("index", n_x=1)],
                         ids=lambda f: f.name)
def test_psm_table_routes_left_side(f):
    psm = psm_generic_table(f)
    _check_left_side(cdqs_from_cds(cds_from_psm(psm)))
    _check_left_side(cdqs_from_psqm(psqm_from_psm(psm)))


@settings(max_examples=6, deadline=None)
@given(table=st.lists(st.integers(0, 1), min_size=8, max_size=8))
def test_random_table_routes_left_side(table):
    f = BoolFn(2, 1, tuple(table))
    psm = psm_generic_table(f)
    if any(f.eval(x, y) == 0 for (x, y) in f.inputs()):
        _check_left_side(cdqs_from_cds(cds_from_psm(psm)))
        _check_left_side(cdqs_from_psqm(psqm_from_psm(psm)))


def test_the_planted_full_leak_is_exactly_one_half():
    # and1's CDQS discloses the pad key on input (1, 1); a route that sends the
    # qubit left there anyway leaves Alice the maximally mixed state
    C = cdqs_from_cds(_gh_cds(AND1))
    R = frouting_from_cdqs(C)
    assert abs(worst_fidelity(lambda psi: R.left_output(1, 1, psi)) - 0.5) <= TOL
    leaky = type(C)(**{**vars(C), "f": BoolFn(1, 1, (0, 0, 0, 0))})
    _check_left_side(leaky, leak=(1, 1))
    report = verify_frouting(frouting_from_cdqs(leaky))
    assert abs(report.worst_infidelity - 0.5) <= TOL
    assert report.witnesses["infidelity"] == (1, 1)
