"""
Conditional disclosure of secrets with exact verification
=========================================================

Alice holds x and a secret bit s, Bob holds y, both see shared randomness.
Each sends one message to a referee who knows (x, y). The referee must
recover s when f(x, y) = 1 and learn nothing about it when f(x, y) = 0.
Verification here is an exhaustive sweep, so correctness error and leakage
come out as exact rationals, not estimates.
"""

from cdslab.boolfn import from_packed
from cdslab.families import named_fn
from cdslab.ghsearch import gh_search
from cdslab.protocols import cds_from_gh, cds_from_span, psm_generic_table, cds_from_psm
from cdslab.toolkit import span_threshold_2of3
from cdslab.verifiers import verify_cds

# Route 1: compile a garden-hose strategy. One shared random bit per pipe;
# hose connections become XOR announcements and the tap carries the secret.
and1 = named_fn("and", n=1)
P = cds_from_gh(gh_search(and1, 3), and1)
report = verify_cds(P)
print("garden-hose CDS for and1:")
print("  correctness error =", report.eps_hat)
print("  secrecy L1 gap    =", report.delta_pair,
      " bracket =", report.delta_bracket)
print("  randomness bits   =", P.resources["randomness_bits"],
      "(= pipe count)")

# Route 2: compile a span program. Shares of a linear secret sharing scheme
# flow to the referee only for rows the inputs switch on; the target vector
# is reachable exactly on accepting inputs.
# Entry (x << 1) | y of the table is bit i of the packed value: 0xe8 sets
# bits 3, 5, 6 and 7, the entries with at least two of the three bits set.
maj = from_packed(2, 1, 0xe8, name="maj3")
for variant in ("comm", "rand"):
    Q = cds_from_span(span_threshold_2of3(3), maj, variant)
    rep = verify_cds(Q)
    r = Q.resources
    print(f"span CDS (2-of-3 majority over Z_3, {variant}):"
          f" perfect={rep.perfect}")
    if variant == "comm":
        print("  communication bits", r["communication_bits"],
              "<= share total", r["share_total_bits"])
    else:
        print("  randomness bits", r["randomness_bits"],
              "<= share total", r["share_total_bits"])

# Route 3: hide a secret behind any private simultaneous-messages protocol.
# The parties run the PSM on their real inputs or on a fixed 0-input,
# depending on a shared selector bit that doubles as the mask.
index1 = named_fn("index", n_x=1)
R = cds_from_psm(psm_generic_table(index1))
print("one-time-table CDS for index1: perfect =", verify_cds(R).perfect)

# The verifier measures, it does not assume: a protocol that broadcasts the
# secret shows the maximal pairwise distance of 2 on hidden inputs.
# It is stated as forms with one randomness value and no linear coordinates:
# Alice's tag is the secret, Bob's is 0, and neither sends values.
from cdslab.protocols import CdsProtocol, LinearPart

broadcast = LinearPart(2, (None,), (0, 0, 0), lambda x, s, nu: (s, ()),
                       lambda y, nu: (0, ()), lambda side, tag: ())
leaky = CdsProtocol(and1, (0, 1), broadcast, lambda m0, x, m1, y: m0[0])
print("broadcast 'protocol' leakage:", verify_cds(leaky).delta_pair)
