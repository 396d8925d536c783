"""Record the analytic outputs of every workload at full size.

    python3 bench/make_reference.py

Writes bench/reference.json: per workload, the recorded times, the law
(or Magnus) mean and variance series and, for closure_scan, the two
closure curves with their exact companion.  These outputs do not depend
on the seed.  The file is the oracle later versions are checked
against, so regenerate it only when the package's analytic results are
meant to change, and say so.
"""

import json
import math
import os
import sys
import tempfile

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sselab import scenario

    doc = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, workload in wl.WORKLOADS.items():
            scn = scenario.resolve(wl.make_config(workload, 0, tmp), label=name)
            outputs = wl.analytic_outputs(scenario.run_scenario(scn))
            doc[name] = {k: [float(x) for x in v] for k, v in outputs.items()}
            for values in doc[name].values():
                if not all(math.isfinite(x) for x in values):
                    raise SystemExit(f"{name}: non-finite analytic output")
    with open(wl.REFERENCE_FILE, "w") as fh:
        json.dump(doc, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
