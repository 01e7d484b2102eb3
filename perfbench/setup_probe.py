"""
Run one workload's set-up in a fresh interpreter and say "ready".

    python3 perfbench/setup_probe.py WORKLOAD WORKDIR

The parent times from process start to the "ready" line, so `setup_s`
covers interpreter start, importing garsidekit and building the contexts.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import setups  # noqa: E402

if __name__ == "__main__":
    setups.setup(sys.argv[1], sys.argv[2])
    sys.stdout.write("ready\n")
    sys.stdout.flush()
