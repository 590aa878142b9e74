"""Regenerate reference.json, the figures the benchmark checks every run against.

    python3 bench/make_reference.py

Run it only when a change to latref is meant to change these figures (a
different model, loss or corpus), and say so in the change.  It stores, at
the reference seed, the first training step's loss and pre-clip gradient
norm for each training workload, and the gate bias, clips, exit depths and
SI-SDR improvements of the inference workload.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ref = {name: workloads.reference_values(name) for name in workloads.WORKLOADS}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(json.dumps(ref, sort_keys=True))
