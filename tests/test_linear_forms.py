"""Linear protocols state their messages once, as affine forms.

A ``LinearPart`` gives each party's tag and offset b at rho = 0, for each
input, secret and nonlinear value nu, and one map per tag; the randomness
spaces and message callbacks are made from it. Here the made callbacks must
equal the hand-written encoders the linear compilers used to carry, copied
below as references, on every input, secret and randomness value; and a
sweep by coset must call no message callback and echelon each layout once.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab import nlqc, protocols
from cdslab.algebra import LsssScheme, SpanProgram, sp_eval
from cdslab.boolfn import from_table, literal_input, named_fn
from cdslab.cli import _span_for
from cdslab.nlqc import cdqs_from_cds, psqm_from_psm
from cdslab.protocols import (cds_from_psm, cds_from_span, dre_qr, hiding_input,
                              psm_from_dre, verify_cds, verify_dre)

# -- reference encoders, as the compilers wrote them by hand -------------------


def _ref_dre_qr(p: int):
    """``dre_qr``'s encoder on (r, shares), the last share the negated sum of the rest."""
    D = dre_qr(p)
    n = D.f.params["n_bits"]
    alice_pos = tuple(sorted(D.f.params["alice_positions"]))
    bob_pos = tuple(i for i in range(1, n + 1) if i not in alice_pos)

    def shares(free):
        return free + ((-sum(free)) % p,)

    def encode_bits(value, positions, r, s):
        rsq = (r * r) % p
        out = []
        for j, pos in enumerate(positions):
            bit = (value >> j) & 1
            out.append((bit * rsq * (1 << (pos - 1)) + s[pos - 1]) % p)
        return (), tuple(out)

    def enc_x(x, rr):
        r, s = rr
        return encode_bits(x, alice_pos, r, s)

    def enc_y(y, rr):
        r, s = rr
        return encode_bits(y, bob_pos, r, s)

    return shares, enc_x, enc_y


def _ref_span(program: SpanProgram, f, variant: str):
    """``cds_from_span``'s message pair: Alice's (x, s, r, ra) and Bob's (y, r)."""
    p = program.p
    scheme = LsssScheme(program)
    bob_rows = [i for i, (var, _) in enumerate(program.labels) if var > f.n_x]
    rows_a = {x: tuple(i for i in program.available_rows(literal_input(f, x, 0))
                       if program.labels[i][0] <= f.n_x) for x in range(1 << f.n_x)}
    rows_b = {y: tuple(i for i in program.available_rows(literal_input(f, 0, y))
                       if program.labels[i][0] > f.n_x) for y in range(1 << f.n_y)}
    if variant == "comm":

        def alice_msg(x, s, u, ra=None):
            shares = scheme.shares_from_vector(u)
            implicit = sum(t * v for t, v in zip(program.target, u)) % p
            pad = (s - implicit) % p
            rows = rows_a[x]
            return rows, (pad,) + tuple(shares[i] for i in rows)

        def bob_msg(y, u, rb=None):
            shares = scheme.shares_from_vector(u)
            rows = rows_b[y]
            return rows, tuple(shares[i] for i in rows)

        return alice_msg, bob_msg
    mask_of = {i: k for k, i in enumerate(bob_rows)}

    def alice_msg(x, s, masks, free):
        u = scheme.vector_for(s, free)
        shares = scheme.shares_from_vector(u)
        rows = rows_a[x]
        return rows, (tuple(shares[i] for i in rows) +
                      tuple((shares[i] + mk) % p for i, mk in zip(bob_rows, masks)))

    def bob_msg(y, masks, rb=None):
        rows = rows_b[y]
        return rows, tuple(masks[mask_of[i]] for i in rows)

    return alice_msg, bob_msg


def _inputs(f):
    return (sorted({x for (x, _) in f.inputs()}), sorted({y for (_, y) in f.inputs()}))


# -- the stated callbacks against the references -------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_dre_qr_states_the_hand_encoder(p):
    D = dre_qr(p)
    shares, enc_x, enc_y = _ref_dre_qr(p)
    xs = sorted({x for (x, _) in D.domain})
    ys = sorted({y for (_, y) in D.domain})
    n = 0
    for r, free in D.shared:
        old = (r, shares(free))
        assert all(D.enc_x(x, (r, free)) == enc_x(x, old) for x in xs)
        assert all(D.enc_y(y, (r, free)) == enc_y(y, old) for y in ys)
        n += 1
    assert n == (p - 1) * p ** (D.f.params["n_bits"] - 1)


@st.composite
def span_programs(draw):
    """A random span program over Z_2 or Z_3 with the function it computes."""
    p = draw(st.sampled_from([2, 3]))
    n_x = draw(st.sampled_from([1, 2]))
    e = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))   # at most 3^(d+e-1) <= 729 coins
    field = st.integers(0, p - 1)
    matrix = tuple(tuple(draw(field) for _ in range(e)) for _ in range(d))
    labels = tuple((draw(st.integers(1, n_x + 1)), draw(st.integers(0, 1)))
                   for _ in range(d))
    target = tuple(draw(field) for _ in range(e))
    if not any(target):
        target = (1,) + target[1:]
    program = SpanProgram(matrix, labels, target, p, n_x + 1)
    shape = from_table(n_x, 1, (0,) * (2 << n_x))
    table = [sp_eval(program, literal_input(shape, x, y)) for (x, y) in shape.inputs()]
    return program, from_table(n_x, 1, table)


@settings(max_examples=40, deadline=None)
@given(span_programs(), st.sampled_from(["comm", "rand"]))
def test_span_cds_states_the_hand_messages(drawn, variant):
    program, f = drawn
    P = cds_from_span(program, f, variant)
    alice_msg, bob_msg = _ref_span(program, f, variant)
    xs, ys = _inputs(f)
    for (nu, r), ra, rb in product(P.shared, P.alice_private, P.bob_private):
        # comm: r is u, and Alice has no coins; rand: r the masks, ra the free coordinates
        old = (r, None) if variant == "comm" else (r, ra)
        for x, s in product(xs, P.secrets):
            assert P.alice_msg(x, s, (nu, r), ra) == alice_msg(x, s, *old)
        for y in ys:
            assert P.bob_msg(y, (nu, r), rb) == bob_msg(y, r)


def test_psm_cds_over_qr_states_the_hand_messages():
    # the PSM -> CDS step as it was written, over the reference qr encoder
    P = cds_from_psm(psm_from_dre(dre_qr(5)))
    shares, enc_x, enc_y = _ref_dre_qr(5)
    x_star, y_star = hiding_input(psm_from_dre(dre_qr(5)))

    def alice_msg(x, s, rr):
        r, sel = rr
        tag, values = enc_x(x if sel == 1 else x_star, r)
        return (tag, s ^ sel), values

    def bob_msg(y, rr):
        r, sel = rr
        return enc_y(y if sel == 1 else y_star, r)

    xs, ys = _inputs(P.f)
    for ((r, sel), free), ra, rb in product(P.shared, P.alice_private, P.bob_private):
        old = ((r, shares(free)), sel)
        for x, s in product(xs, P.secrets):
            assert P.alice_msg(x, s, ((r, sel), free), ra) == alice_msg(x, s, old)
        for y in ys:
            assert P.bob_msg(y, ((r, sel), free), rb) == bob_msg(y, old)


# -- read once -------------------------------------------------------------------------

CALLBACKS = ("alice_msg", "bob_msg", "enc_x", "enc_y")


@pytest.fixture
def counted(monkeypatch):
    """Counts of message callback calls and of ``echelon`` calls in ``protocols``.

    Every record built wraps its message callbacks in a counter, so a call
    to any of them, stated or given, is seen.
    """
    calls = {"messages": 0, "echelon": 0}

    def wrapped(fn):
        def counting(*args):
            calls["messages"] += 1
            return fn(*args)
        counting.counted = True
        return counting

    for cls in (protocols.PsmProtocol, protocols.CdsProtocol, protocols.Dre):
        def init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            for name in CALLBACKS:
                fn = vars(self).get(name)
                if callable(fn) and not getattr(fn, "counted", False):
                    setattr(self, name, wrapped(fn))
        monkeypatch.setattr(cls, "__init__", init)
    echelon = protocols.echelon

    def counting_echelon(rows, p):
        calls["echelon"] += 1
        return echelon(rows, p)

    monkeypatch.setattr(protocols, "echelon", counting_echelon)
    return calls


def _layouts(P, cases) -> set:
    """P's distinct layouts, both tags and value counts, over ``cases`` and every nu."""
    lin = P.linear
    out = set()
    for (x, y, *s) in cases:
        for nu in lin.nus:
            (tag0, b0), (tag1, b1) = lin.alice_form(x, *s, nu), lin.bob_form(y, nu)
            out.add((tag0, tag1, len(b0), len(b1)))
    return out


def _cds_echelons(P) -> int:
    """One echelon per layout of a CDS sweep, and one per tag per side for alphabets."""
    layouts = _layouts(P, [(x, y, s) for (x, y) in P.input_pairs() for s in P.secrets])
    return len(layouts) + len({lay[0] for lay in layouts}) + len({lay[1] for lay in layouts})


def test_a_dre_sweep_reads_its_one_map_once(counted):
    assert verify_dre(dre_qr(13)).perfect
    assert counted == {"messages": 0, "echelon": 1}


@pytest.mark.parametrize("variant", ["comm", "rand"])
def test_a_span_sweep_echelons_each_layout_once(counted, variant):
    f = named_fn("ip", n=2)
    P = cds_from_span(_span_for(f, 3), f, variant)
    want = _cds_echelons(P)
    assert verify_cds(P).perfect
    assert counted == {"messages": 0, "echelon": want}
    assert want == 16 + 4 + 4   # every (rows of x, rows of y), then each party's rows


def test_a_psm_cds_sweep_echelons_each_layout_once(counted):
    P = cds_from_psm(psm_from_dre(dre_qr(7)))
    assert verify_cds(P).perfect
    # one layout per masked bit, then those two tags of Alice's and Bob's one
    assert counted == {"messages": 0, "echelon": 2 + 2 + 1} and _cds_echelons(P) == 5


def test_the_pad_routes_read_each_layout_once(counted):
    psm = psm_from_dre(dre_qr(7))
    C = cdqs_from_cds(cds_from_psm(psm))
    for (x, y) in C.input_pairs():
        C.key_classes(x, y)
    assert counted == {"messages": 0, "echelon": 2}
    Q = psqm_from_psm(psm)
    for (x, y) in Q.input_pairs():
        Q.run(x, y)
    assert counted == {"messages": 0, "echelon": 3}
    assert nlqc.verify_psqm(Q).worst_gap <= 1e-12
    assert counted["messages"] == 0
