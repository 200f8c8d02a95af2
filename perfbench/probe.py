"""Set-up probe: a fresh interpreter imports tcla and builds one workload's
inputs, then exits.  The runner times whole runs of it for ``setup_s``.

    PYTHONPATH=src python3 perfbench/probe.py WORKLOAD SEED
"""

import sys

import workloads

workloads.WORKLOADS[sys.argv[1]]().build(int(sys.argv[2]))
