"""Stand-in for a ``cdslab`` child: ends the way its first argument says.

    python3 stub_child.py MODE OUT

Writes OUT (a report or CSV) where the mode calls for one. Nothing here
allocates much memory: the MemoryError is raised, not provoked.
"""

import json
import os
import signal
import sys
import time

CLASSICAL = {"eps_hat": {"num": 0, "den": 1}, "delta_pair": {"num": 0, "den": 1}}
QUANTUM = {"worst_infidelity": 1e-12, "worst_gap": 0.0, "routing_consistent": True}


def write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def main(mode, out):
    if mode == "pass-classical":
        write(out, {"status": "pass", "report": CLASSICAL})
    elif mode == "pass-quantum":
        write(out, {"status": "pass", "report": QUANTUM})
    elif mode == "leaky-quantum":
        write(out, {"status": "pass", "report": dict(QUANTUM, worst_gap=0.25)})
    elif mode == "fail-witness":
        write(out, {"status": "fail", "witness": {"inputs": [[0, 1]]}})
        return 1
    elif mode == "fail-no-witness":
        write(out, {"status": "fail", "witness": {}})
        return 1
    elif mode == "exit3":
        print("budget exceeded: 16 qubits", file=sys.stderr)
        return 3
    elif mode == "memory":
        raise MemoryError
    elif mode == "signal":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "sleep":
        time.sleep(60)
    elif mode == "csv":
        with open(out, "w") as fh:
            fh.write("index,table,pipes,method\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
