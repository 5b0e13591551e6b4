"""Set up one workload in a fresh interpreter, print "ready", then the time
of the reference work on this process's core, and exit.

Usage: setup_probe.py ROOT SPEC_JSON SEED.  The caller times the span from
starting this interpreter to the "ready" line.
"""
import sys

import workloads

if __name__ == "__main__":
    root, spec, seed = sys.argv[1], workloads.spec_from_json(sys.argv[2]), int(sys.argv[3])
    workloads.setup(root, spec, seed)
    print("ready", flush=True)
    print(workloads.reference_seconds(3))
