"""Benchmark set-up: import `conecover` and fill its lazy caches.

`load(src, workload)` does this in the calling process and returns the
package with the timings.  Run as a script it does the same in a fresh
interpreter and prints the timings as JSON, so that `run.py` can repeat
the set-up and report a median of cold starts:

    python3 perfbench/warm.py <path to src> <workload>
"""

import importlib
import json
import sys
import time
from pathlib import Path

# A realizable 3-row datum: its certificate search exhausts the whole
# admissible grid, which builds the grid the sweep's searches share.
GRID_WARM_DATUM = "3: 3 | 2,1 | 2,1"


def load(src, workload: str):
    """Import the package from `src` and warm what `workload` uses."""
    t0 = time.perf_counter()
    src = str(Path(src).resolve())
    if src not in sys.path:
        sys.path.insert(0, src)
    cc = importlib.import_module("conecover")
    if not str(Path(cc.__file__).resolve()).startswith(src):
        raise RuntimeError(f"conecover imported from {cc.__file__}, not from {src}")
    t_import = time.perf_counter()
    datum = cc.parse_datum(GRID_WARM_DATUM)
    grid_warm_s = 0.0
    if workload == "sweep":
        if cc.search_certificate(datum) is not None:
            raise RuntimeError(f"{GRID_WARM_DATUM} unexpectedly certified")
        grid_warm_s = time.perf_counter() - t_import
    if cc.find_witness(datum).status != cc.REALIZABLE:
        raise RuntimeError(f"{GRID_WARM_DATUM} unexpectedly not realizable")
    end = time.perf_counter()
    return cc, {"setup_s": end - t0, "import_s": t_import - t0, "grid_warm_s": grid_warm_s}


if __name__ == "__main__":
    _, timings = load(sys.argv[1], sys.argv[2])
    print(json.dumps(timings))
