"""A pad route's left side in closed form against a brute-force minimum.

``frames.left_fidelity`` reads the left side's worst fidelity over every
pure input off the key classes' Gram matrix. The reference here knows none
of that: it runs the dense left side, ``dense_reference.otp_left_output``,
on a grid of pure inputs and refines the best grid points by a pattern
search on the sphere. The two must agree within 1e-12 on random key
classes, partial leaks included. The sphere search is itself checked
against qubit maps whose minima are known, off the Pauli axes too.

The route tests check that the figure never exceeds the dense left side's
fidelity on any of the sixteen probe qubits a state sweep would try, that it
is exactly 1 where the key is hidden and exactly 1/2 where it is disclosed.
"""

from __future__ import annotations

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from cdslab.boolfn import BoolFn
from cdslab.families import named_fn
from cdslab.frames import KEYS, left_fidelity
from cdslab.ghsearch import gh_generic, gh_search
from cdslab.padroutes import (TranscriptClass, cdqs_from_cds, cdqs_from_psqm, frouting_from_cdqs,
                              psqm_from_psm)
from cdslab.bases import cds_from_gh, psm_generic_table
from cdslab.protocols import cds_from_psm
from cdslab.quantum import overlap
from cdslab.qverifiers import verify_frouting
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


# -- the sphere search on known minima ------------------------------------------------


def bloch_map(T, t):
    """The qubit map (I + r.sigma) / 2 -> (I + (T r + t).sigma) / 2 on pure inputs,
    whose fidelity at Bloch vector n is (1 + n.(T n + t)) / 2."""
    def channel(psi):
        a, b = psi
        r = (2 * (a.conjugate() * b).real, 2 * (a.conjugate() * b).imag,
             abs(a) ** 2 - abs(b) ** 2)
        s = [sum(T[i][j] * r[j] for j in range(3)) + t[i] for i in range(3)]
        return [[(1 + s[2]) / 2, (s[0] - 1j * s[1]) / 2],
                [(s[0] + 1j * s[1]) / 2, (1 - s[2]) / 2]]

    return channel


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
ZERO = ((0, 0, 0), (0, 0, 0), (0, 0, 0))
MAPS = {
    "identity": (bloch_map(IDENTITY, (0, 0, 0)), 1.0),
    "depolarising": (bloch_map(ZERO, (0, 0, 0)), 0.5),
    # the lowest eigenvalue of diag(1, 1, -1) is simple, the highest double
    "degenerate": (bloch_map(((1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, 0, 0)), 0.0),
    # t has no component on the lowest eigenvector, e_z: the minimum is off
    # every axis, at n = (-0.075, 0, +-sqrt(1 - 0.075^2)), value -0.005625
    "hard": (bloch_map(((1, 0, 0), (0, 1, 0), (0, 0, -1)), (0.3, 0, 0)), -0.005625),
    # a circle of minima at n_z = -3/28, where (1 - 0.8 + 1.4 n_z^2 + 0.3 n_z) / 2
    # is least
    "hard_circle": (bloch_map(((-0.8, 0, 0), (0, -0.8, 0), (0, 0, 0.6)), (0, 0, 0.3)),
                    103 / 1120),
    # a quarter turn about y: T is not symmetric, and every input off the axis,
    # at n_y = 0, is worst
    "quarter_turn": (bloch_map(((0, 0, -1), (0, 1, 0), (1, 0, 0)), (0, 0, 0)), 0.5),
    # |1> keeps 1 - 0.64 of itself
    "amplitude_damping": (bloch_map(((0.6, 0, 0), (0, 0.6, 0), (0, 0, 0.36)),
                                    (0, 0, 0.64)), 0.36),
}


@pytest.mark.parametrize("name", list(MAPS))
def test_named_maps_match_the_brute_force_minimum(name):
    channel, known = MAPS[name]
    assert abs(brute_force_minimum(channel) - known) <= TOL, name


# -- the closed form on random key classes -------------------------------------------


def _split(total: int, cuts) -> list:
    """``total`` cut into consecutive parts at the points ``cuts``."""
    cuts = sorted(cuts)
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def _classes(parts: dict) -> list:
    """Class i weighs ``parts[s][i]`` under key s; keys of no weight are left out."""
    rows = [{s: p[i] for s, p in parts.items() if p[i]} for i in range(len(parts[KEYS[0]]))]
    return [TranscriptClass(i, w, 1) for i, w in enumerate(rows) if w]


def _sphere_minimum(classes, denom: int) -> float:
    return brute_force_minimum(lambda psi: dense.otp_left_output(classes, psi, denom), grid=16)


@pytest.mark.parametrize("seed", range(12))
def test_random_channels_match_the_brute_force_minimum(seed):
    # the left side of a seeded partial leak: each key's weight, out of
    # denom / 4, split at random over three classes
    rng = random.Random(seed)
    total = rng.randint(6, 20)
    classes = _classes({s: _split(total, [rng.randint(0, total) for _ in range(2)])
                        for s in KEYS})
    got = left_fidelity(classes, 4 * total)
    assert abs(got - _sphere_minimum(classes, 4 * total)) <= TOL
    assert 0.5 < got < 1


@st.composite
def key_classes(draw) -> tuple:
    """(classes, denom): one to four classes whose weights under every key add
    up to denom / 4."""
    k, total = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    cuts = st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1)
    return _classes({s: _split(total, draw(cuts)) for s in KEYS}), 4 * total


def test_left_fidelity_matches_the_sphere_search():
    figures = []

    @settings(max_examples=25, deadline=None)
    @given(key_classes())
    def check(drawn):
        classes, denom = drawn
        got = left_fidelity(classes, denom)
        assert abs(got - _sphere_minimum(classes, denom)) <= TOL
        assert 0.5 <= got <= 1 + TOL
        figures.append(got)

    check()
    # partial leaks: neither hidden nor disclosed
    assert any(0.5 < f < 1 for f in figures)


# -- pad routes -----------------------------------------------------------------------


def _check_left_side(C, leak=None) -> None:
    """The route's exact left figures bound every probe and fill its report."""
    R = frouting_from_cdqs(C)
    report = verify_frouting(R)
    probes = [vec for _, vec in probe_qubits(range(10))]
    assert len(probes) == 16
    lefts = 0
    for (x, y) in R.domain:
        if R.exit_reg(x, y) is not None:   # the qubit exits right
            continue
        lefts += 1
        classes = R.key_classes(x, y)
        exact = left_fidelity(classes, R.denom)
        assert report.per_input[(x, y)]["fidelity"] == exact
        sampled = [overlap(dense.otp_left_output(classes, vec, R.denom), vec) for vec in probes]
        assert exact <= min(sampled) + TOL, (x, y)
        if (x, y) == leak:
            assert exact == 0.5
            assert max(abs(s - 0.5) for s in sampled) <= TOL
        else:
            assert exact == 1.0, (x, y)
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
    assert left_fidelity(R.key_classes(1, 1), R.denom) == 0.5
    leaky = type(C)(**{**vars(C), "f": BoolFn(1, 1, (0, 0, 0, 0)),
                       "exit_reg": lambda x, y: None})
    _check_left_side(leaky, leak=(1, 1))
    report = verify_frouting(frouting_from_cdqs(leaky))
    assert report.worst_infidelity == 0.5
    assert report.witnesses["infidelity"] == (1, 1)
