"""Linear protocols state their messages once, as affine forms.

A ``LinearPart`` gives each party's tag and offset b at rho = 0, for each
input, secret and nonlinear value nu, and one map per tag; the randomness
spaces are made from it. Here the messages the forms give must equal the
hand-written encoders the linear compilers used to carry, copied below as
references, on every input, secret and randomness value; and a sweep by
coset must echelon each layout once.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab import protocols, qverifiers
from cdslab.algebra import LsssScheme, SpanProgram, sp_eval
from cdslab.boolfn import BoolFn, literal_input
from cdslab.clicore import _span_for
from cdslab.families import named_fn
from cdslab.gardenhose import RIGHT, GhStrategy, gh_eval
from cdslab.padroutes import cdqs_from_cds, cdqs_from_psqm, psqm_from_psm
from cdslab.bases import cds_from_gh, dre_qr
from cdslab.protocols import cds_from_psm, hiding_input, psm_from_dre
from cdslab.spancds import cds_from_span
from cdslab.verifiers import verify_cds, verify_dre
from message_reference import enumerated, messages, send

GOLDEN = Path(__file__).parent / "golden"

# -- reference encoders, as the compilers wrote them by hand -------------------


def _ref_dre_qr(p: int):
    """``dre_qr``'s encoder on (r, shares), the last share the negated sum of the rest."""
    D = dre_qr(named_fn("qr", p=p))
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


def _ref_gh(strategy: GhStrategy):
    """``cds_from_gh``'s message pair on the pipe bits r: (label, bit) parts."""
    m = strategy.pipes

    def pair_xors(ends, r):
        # a matching is held as its partner map, each hose under both openings
        parts = []
        for pair in sorted((i, j) for i, j in ends.items() if i < j):
            i, j = pair
            parts.append((pair, r[i - 1] ^ r[j - 1]))
        return parts

    def alice_msg(x, s, r):
        tap, ends = strategy.alice[x]
        return tuple([("tap", s ^ r[tap - 1])] + pair_xors(ends, r))

    def bob_msg(y, r):
        ends = strategy.bob[y]
        parts = pair_xors(ends, r)
        for k in range(1, m + 1):
            if k not in ends:
                parts.append((k, r[k - 1]))
        return tuple(parts)

    return alice_msg, bob_msg


def _inputs(f):
    return (sorted({x for (x, _) in f.inputs()}), sorted({y for (_, y) in f.inputs()}))


# -- the stated messages against the references --------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_dre_qr_states_the_hand_encoder(p):
    D = dre_qr(named_fn("qr", p=p))
    shares, enc_x, enc_y = _ref_dre_qr(p)
    xs = sorted({x for (x, _) in D.domain})
    ys = sorted({y for (_, y) in D.domain})
    n = 0
    lin = D.linear
    for r, free in D.shared:
        old = (r, shares(free))
        assert all(send(lin, 0, lin.alice_form(x, r), free) == enc_x(x, old) for x in xs)
        assert all(send(lin, 1, lin.bob_form(y, r), free) == enc_y(y, old) for y in ys)
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
    shape = BoolFn(n_x, 1, (0,) * (2 << n_x))
    table = [sp_eval(program, literal_input(shape, x, y)) for (x, y) in shape.inputs()]
    return program, BoolFn(n_x, 1, tuple(table))


@settings(max_examples=40, deadline=None)
@given(span_programs(), st.sampled_from(["comm", "rand"]))
def test_span_cds_states_the_hand_messages(drawn, variant):
    program, f = drawn
    P = cds_from_span(program, f, variant)
    alice_msg, bob_msg = _ref_span(program, f, variant)
    xs, ys = _inputs(f)
    lin = P.linear
    for (nu, r), ra, rb in product(P.shared, P.alice_private, P.bob_private):
        # comm: r is u, and Alice has no coins; rand: r the masks, ra the free coordinates
        old = (r, None) if variant == "comm" else (r, ra)
        for x, s in product(xs, P.secrets):
            assert send(lin, 0, lin.alice_form(x, s, nu), r + ra + rb) == alice_msg(x, s, *old)
        for y in ys:
            assert send(lin, 1, lin.bob_form(y, nu), r + ra + rb) == bob_msg(y, r)


def test_psm_cds_over_qr_states_the_hand_messages():
    # the PSM -> CDS step as it was written, over the reference qr encoder
    P = cds_from_psm(psm_from_dre(dre_qr(named_fn("qr", p=5))))
    shares, enc_x, enc_y = _ref_dre_qr(5)
    x_star, y_star = hiding_input(psm_from_dre(dre_qr(named_fn("qr", p=5))))

    def alice_msg(x, s, rr):
        r, sel = rr
        tag, values = enc_x(x if sel == 1 else x_star, r)
        return (tag, s ^ sel), values

    def bob_msg(y, rr):
        r, sel = rr
        return enc_y(y if sel == 1 else y_star, r)

    xs, ys = _inputs(P.f)
    lin = P.linear
    for ((r, sel), free), ra, rb in product(P.shared, P.alice_private, P.bob_private):
        old = ((r, shares(free)), sel)
        for x, s in product(xs, P.secrets):
            assert send(lin, 0, lin.alice_form(x, s, (r, sel)), free) == alice_msg(x, s, old)
        for y in ys:
            assert send(lin, 1, lin.bob_form(y, (r, sel)), free) == bob_msg(y, old)


def _as_sent(side, message):
    """A ``cds_from_gh`` message (tag, values) as the old (label, bit) parts:
    Alice's tap bit is labelled "tap", whatever its pipe, a pair by itself
    and an open pipe by its number."""
    tag, values = message
    labels = ("tap",) + tag[1:] if side == 0 else tag
    return tuple((label if label == "tap" or len(label) == 2 else label[0], v)
                 for label, v in zip(labels, values))


def _gh_states_the_hand_messages(strategy: GhStrategy) -> None:
    # the forms have one nu, and pipe k's bit is the k-th rho coordinate
    f = _spill_fn(strategy)
    P = cds_from_gh(strategy, f)
    alice_msg, bob_msg = _ref_gh(strategy)
    lin = P.linear
    assert len(lin.nus) == 1 and lin.coords == (strategy.pipes, 0, 0)
    n = 0
    for nu, r in P.shared:
        for x, s in product(strategy.alice, P.secrets):
            assert _as_sent(0, send(lin, 0, lin.alice_form(x, s, nu), r)) == alice_msg(x, s, r)
        for y in strategy.bob:
            assert _as_sent(1, send(lin, 1, lin.bob_form(y, nu), r)) == bob_msg(y, r)
        n += 1
    assert n == 1 << strategy.pipes


def _spill_fn(strategy: GhStrategy):
    """The function ``strategy`` computes: 1 where the water spills right."""
    return BoolFn(strategy.n_x, strategy.n_y, tuple(
        int(gh_eval(strategy, x, y).side == RIGHT)
        for x in range(1 << strategy.n_x) for y in range(1 << strategy.n_y)))


def test_committed_gh_strategies_state_the_hand_messages():
    strategies = _committed_gh_strategies()
    for strategy in strategies:
        _gh_states_the_hand_messages(strategy)
    assert len(strategies) == 7


@st.composite
def gh_strategies(draw):
    """A strategy of 1-5 pipes on 1+1 to 2+2 bits, taps and matchings drawn."""
    m = draw(st.integers(1, 5))
    n_x, n_y = draw(st.integers(1, 2)), draw(st.integers(1, 2))

    def matching(pipes):
        order = draw(st.permutations(pipes))
        k = draw(st.integers(0, len(order) // 2))
        return frozenset(frozenset(order[2 * i:2 * i + 2]) for i in range(k))

    alice = {}
    for x in range(1 << n_x):
        tap = draw(st.integers(1, m))
        alice[x] = (tap, matching([k for k in range(1, m + 1) if k != tap]))
    bob = {y: matching(list(range(1, m + 1))) for y in range(1 << n_y)}
    return GhStrategy(m, n_x, n_y, alice, bob)


@settings(max_examples=60, deadline=None)
@given(gh_strategies())
def test_drawn_gh_strategies_state_the_hand_messages(strategy):
    _gh_states_the_hand_messages(strategy)


def _committed_gh_strategies() -> list:
    return [GhStrategy.from_jsonable(json.loads(path.read_text())["artifacts"]["gh_strategy"])
            for path in sorted(GOLDEN.glob("gh*.desc.json"))]


@settings(max_examples=60, deadline=None)
@given(gh_strategies() | st.sampled_from(_committed_gh_strategies()))
def test_gh_decoding_gives_one_value_per_coset(strategy):
    # with one nu, each (x, y, s)'s messages fill one coset, and every one of
    # them must decode to one value: s where the water spills right, and None
    # where it spills left, since there the chased XOR is s plus the bit of
    # the pipe it spills from
    f = _spill_fn(strategy)
    P = cds_from_gh(strategy, f)
    for (x, y), s in product(f.inputs(), P.secrets):
        decoded = {P.decode(m0, x, m1, y) for m0, m1 in messages(P, x, y, s)}
        assert decoded == ({s} if f.eval(x, y) else {None})


@settings(max_examples=60, deadline=None)
@given(gh_strategies() | st.sampled_from(_committed_gh_strategies()))
def test_gh_cds_reports_match_the_message_sweep(strategy):
    # figures, witnesses and alphabets: Alice's counts what she sends, tags
    # differing only in the tap pipe as one
    f = _spill_fn(strategy)
    P = cds_from_gh(strategy, f)
    assert verify_cds(P).to_jsonable() == verify_cds(enumerated(P)).to_jsonable()


# -- read once -------------------------------------------------------------------------

@pytest.fixture
def counted(monkeypatch):
    """Counts of ``echelon`` calls in ``protocols``."""
    calls = {"echelon": 0}
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
    layouts = _layouts(P, [(x, y, s) for (x, y) in P.domain for s in P.secrets])
    return len(layouts) + len({lay[0] for lay in layouts}) + len({lay[1] for lay in layouts})


def test_a_dre_sweep_reads_its_one_map_once(counted):
    assert verify_dre(dre_qr(named_fn("qr", p=13))).perfect
    assert counted == {"echelon": 1}


@pytest.mark.parametrize("variant", ["comm", "rand"])
def test_a_span_sweep_echelons_each_layout_once(counted, variant):
    f = named_fn("ip", n=2)
    P = cds_from_span(_span_for(f, 3), f, variant)
    want = _cds_echelons(P)
    assert verify_cds(P).perfect
    assert counted == {"echelon": want}
    assert want == 16 + 4 + 4   # every (rows of x, rows of y), then each party's rows


def test_a_psm_cds_sweep_echelons_each_layout_once(counted):
    P = cds_from_psm(psm_from_dre(dre_qr(named_fn("qr", p=7))))
    assert verify_cds(P).perfect
    # one layout per masked bit, then those two tags of Alice's and Bob's one
    assert counted == {"echelon": 2 + 2 + 1} and _cds_echelons(P) == 5


def test_the_pad_routes_read_each_layout_once(counted):
    psm = psm_from_dre(dre_qr(named_fn("qr", p=7)))
    C = cdqs_from_cds(cds_from_psm(psm))
    for (x, y) in C.domain:
        C.key_classes(x, y)
    assert counted == {"echelon": 2}
    Q = psqm_from_psm(psm)
    R = cdqs_from_psqm(Q)
    for (x, y) in Q.domain:
        R.key_classes(x, y)
    assert counted == {"echelon": 3}
    # verify_psqm is the PSM's own sweep, which reads the one layout once more
    assert qverifiers.verify_psqm(Q).worst_gap == 0
    assert counted == {"echelon": 4}
