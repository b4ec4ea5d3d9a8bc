"""
Routing a qubit by a distributed function value
===============================================

Two non-communicating parties hold x and y; a qubit must land on the left
exactly when f(x, y) = 0 and on the right when f(x, y) = 1, using one
simultaneous round of classical broadcast plus pre-shared entanglement.
"""

from cdslab.families import named_fn
from cdslab.frames import left_fidelity
from cdslab.ghsearch import gh_search
from cdslab.nlqc import cdqs_from_frouting, frouting_from_gh
from cdslab.padroutes import cdqs_from_cds, frouting_from_cdqs
from cdslab.bases import cds_from_gh
from cdslab.qverifiers import verify_cdqs, verify_frouting

and1 = named_fn("and", n=1)

# Route 1: teleport along the garden-hose water path. Each pipe backs one
# EPR pair; every joined pair of pipe ends is a Bell measurement forwarding
# the qubit, and the broadcast outcomes fix the final Pauli correction.
R = frouting_from_gh(gh_search(and1, 3), and1)
print("EPR pairs consumed:", R.resources["epr_pairs"])
report = verify_frouting(R)
for xy, info in sorted(report.per_input.items()):
    x, y = xy.split(",")
    print(f"  x={x} y={y}: f={info['f']} lands on {info['side']},"
          f" fidelity {info['fidelity']:.12f} over {info['branches']} branches")
print("routing consistent with f:", report.routing_consistent)

# Route 2: pad and disclose. Alice pads the qubit and throws it to the right
# while a classical CDS discloses the pad key exactly on f = 1 inputs. The
# right side unpads when it can; on f = 0 inputs Alice still holds her key
# register, which is what keeps the qubit recoverable on the left.
C = cdqs_from_cds(cds_from_gh(gh_search(and1, 3), and1))
R2 = frouting_from_cdqs(C)
r2 = verify_frouting(R2)
print("pad-based route worst infidelity:", r2.worst_infidelity)

# The construction round-trips: a router is also a conditional discloser
# (send the qubit in, keep the f = 1 exit), and quality is preserved.
C2 = cdqs_from_frouting(R2)
back = verify_cdqs(C2)
print("round trip infidelity:", back.worst_infidelity,
      "gap:", back.worst_gap)

# Sender-side recovery is the sharp version of the f = 0 claim: when the
# messages carry no key information, rotating Alice's kept key register
# through the pad-to-EPR basis pulls the qubit back with fidelity exactly
# one; once the key is decodable the best she can do is 1/2. The figure is
# exact: the worst fidelity over every pure input qubit, read off the Gram
# matrix of the message states under two keys.
for (x, y) in and1.inputs():
    p = left_fidelity(R2.key_classes(x, y), R2.denom)
    print(f"  x={x} y={y} (f={and1.eval(x, y)}): left worst fidelity = {p:.12f}")
