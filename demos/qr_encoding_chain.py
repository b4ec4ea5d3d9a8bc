"""
Randomized encoding of quadratic residuosity, and what it compiles into
=======================================================================

The integer a, split bitwise between Alice and Bob, is a square mod p or it
is not. Each side encodes its own bits as y_i = a_i * r^2 * 2^(i-1) + s_i
mod p, with r a shared random unit and the s_i random shares summing to
zero. The y_i sum telescopes to r^2 * a: same residue class as a, nothing
else survives. That decomposable encoding is already a private
simultaneous-messages protocol, and one selector bit turns it into
conditional disclosure.
"""

from cdslab.families import named_fn
from cdslab.bases import dre_qr
from cdslab.protocols import cds_from_psm, psm_from_dre
from cdslab.toolkit import qr_split_inputs
from cdslab.verifiers import verify_cds, verify_dre, verify_psm

p = 7
D = dre_qr(named_fn("qr", p=p))
print(f"encoding residuosity mod {p}; Alice holds bit positions",
      D.f.params["alice_positions"])

# A worked example with pinned randomness: a = 3 has bits (1, 1, 0) and is
# not a square mod 7. With r = 2 and free shares (5, 2), so shares (5, 2, 0),
# the last being the negated sum of the others, the encodings are exactly
# computable by hand. Each side sends an empty tag and its values: the
# encoding's forms give them at r and free shares 0, and each free share
# moves them by its row of the side's map.
r, free = 2, (5, 2)
x, y = qr_split_inputs(D.f, 3)


def sent(side, form):
    tag, b = form
    rows = D.linear.maps(side, tag)
    return tag, tuple((v + sum(c * row[i] for c, row in zip(free, rows))) % p
                      for i, v in enumerate(b))


mx, my = sent(0, D.linear.alice_form(x, r)), sent(1, D.linear.bob_form(y, r))
print("a = 3 encodes as", mx[1], "+", my[1], "-> decode", D.decode(mx, my))

# The exhaustive verifier sweeps every a in Z_p^* against every randomness
# value: decode never errs, and the whole-encoding histograms of any two
# same-class inputs are equal multiset-for-multiset.
rep = verify_dre(D)
print("decode error:", rep.eps_hat,
      "| in-class histograms equal:", rep.resources["same_class_histograms_equal"])

# DRE -> PSM is definitional (send the two encoding halves)...
P = psm_from_dre(D)
print("as a PSM:", "perfect" if verify_psm(P).perfect else "imperfect")

# ...and PSM -> CDS costs one shared selector bit plus a one-bit mask.
C = cds_from_psm(P)
rep = verify_cds(C)
print("as a CDS on the same domain:",
      "perfect" if rep.perfect else (rep.eps_hat, rep.delta_pair))
print("CDS randomness states:", C.resources["randomness_states"])
