"""
Garden-hose strategies: tracing water and searching for small ones
==================================================================

Two players share m pipes. Alice screws a tap onto one pipe and may join
her remaining openings in pairs with hoses; Bob joins pairs on his side.
Water entering the tap walks the hose graph and eventually spills out of an
unmatched opening: right side means f(x, y) = 1, left side means 0. The
smallest m that computes f is the function's garden-hose cost.
"""

from cdslab.boolfn import all_functions
from cdslab.families import named_fn
from cdslab.gardenhose import gh_eval
from cdslab.ghsearch import gh_generic, gh_search

# Search for the cheapest strategy computing AND of one bit per side. The
# search is exhaustive over taps and matchings, so a None answer at m pipes
# is a proof that no m-pipe strategy exists.
and1 = named_fn("and", n=1)
print("2-pipe strategy for and1:", gh_search(and1, 2))
best = gh_search(and1, 3)
print("3-pipe strategy found with pipes =", best.pipes)

# Watch the water. Every input pair gets its path, the pipes the water runs
# through in order, tap first; hoses alternate Bob's and Alice's, so the
# water spills right after an odd number of pipes, from the last one.
for x in (0, 1):
    for y in (0, 1):
        out = gh_eval(best, x, y)
        print(f"  x={x} y={y}: spills {out.side} from pipe {out.exit_pipe}"
              f" after pipes {list(out.path)}")

# A universal fallback: 2^(n_x + 1) pipes work for any function, with Bob
# bridging exactly the pairs whose Alice-input evaluates to 0.
xor2 = named_fn("xor", n=2)
generic = gh_generic(xor2)
print("generic strategy for xor on 2+2 bits uses", generic.pipes, "pipes")

# Sweep everything on 1+1 bits: every one of the 16 truth tables fits in
# three pipes, and the searched strategies are deterministic.
print("\npipe counts over all 16 two-bit functions:")
for f in all_functions(1, 1):
    s = gh_search(f, 3)
    print(f"  table {tuple(f.table)}: {s.pipes} pipes")
