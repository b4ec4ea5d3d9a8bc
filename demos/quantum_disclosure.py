"""
Disclosing a qubit: compiling classical CDS into its quantum analogue
=====================================================================

A classical scheme that conditionally discloses a 2-bit string lifts to a
scheme disclosing a qubit: Alice one-time-pads the qubit and feeds the pad
key through the classical layer as the secret. The referee recovers the
qubit exactly when f says so, and the verifier checks both promises on
actual states.
"""

from cdslab.families import named_fn
from cdslab.ghsearch import gh_search
from cdslab.padroutes import cdqs_from_cds
from cdslab.protocols import CdsProtocol, LinearPart, cds_from_gh
from cdslab.qverifiers import verify_cdqs
from cdslab.toolkit import security_state_sweep

and1 = named_fn("and", n=1)

# The pad key has two bits, so the compiler runs two independent copies of a
# single-bit CDS, one per key bit. Take the 3-pipe garden-hose scheme for AND
# as the base.
base = cds_from_gh(gh_search(and1, 3), and1)
print("classical layer randomness bits:", base.resources["randomness_bits"])

Q = cdqs_from_cds(base)
# A transcript is one (Alice, Bob) message pair per key bit; transcripts that
# decode alike with proportional likelihoods form one class.
classes = Q.key_classes(1, 1)
print("pad keys:", sorted({key for c in classes for key in c.weights}))
print("transcript classes on input (1, 1):", len(classes))

# Correctness is checked through the Choi state of the recovery map on every
# f = 1 input: one EPR half goes in as the secret, and the delivered half must
# still be maximally entangled with the reference. Hiding is a decoupling
# statement on every f = 0 input.
report = verify_cdqs(Q)
print("worst infidelity on revealing inputs:", report.worst_infidelity)
print("worst referee decoupling gap when hiding:", report.worst_gap)
print("branches per input, at most:", report.max_branches)

# The Choi check already covers all secrets at once, but sweeping concrete
# states is a useful independent angle: six Pauli eigenstates plus ten seeded
# random qubits, all pairwise compared through the referee's view.
sweep = security_state_sweep(Q)
print(f"state sweep over {sweep['n_states']} secrets:"
      f" worst pairwise view distance = {sweep['worst']:.3e}")

# Negative control: a 'CDS' that just broadcasts the key. The lift stays
# correct when f = 1, but on hiding inputs the referee's pad collapses and
# the gap jumps well above zero, so the verifier is measuring, not assuming.
# Its forms have no randomness: Alice's tag is the key bit, Bob's is 0.
broadcast = LinearPart(2, (None,), (0, 0, 0), lambda x, s, nu: (s, ()),
                       lambda y, nu: (0, ()), lambda side, tag: ())
broadcast_bit = CdsProtocol(and1, (0, 1), broadcast, lambda m0, x, m1, y: m0[0])
leaky = verify_cdqs(cdqs_from_cds(broadcast_bit))
print("broadcast key layer: infidelity", leaky.worst_infidelity,
      "gap", round(leaky.worst_gap, 6))
