"""Set-up cost of the library in a fresh process.

Run as ``python perfbench/setup_probe.py`` with the package on PYTHONPATH:
it times ``import ghzdense`` plus one warm-up pass that fills the
package's lazy caches, and prints the timings as one JSON line. The
in-process workloads call ``warm_up`` themselves before they measure.
"""

from __future__ import annotations

import json
import time


def warm_up(g) -> float:
    """Fill the lazy caches: the basis catalogs, ``network_unitary``, and
    each message's encoding (``encoding_op`` and the protocol's encoded
    states). Returns the seconds spent building the catalogs."""
    t0 = time.perf_counter()
    for name in ("bell", "ghz", "phi"):
        g.catalog_by_name(name)
    catalog_s = time.perf_counter() - t0
    g.network_unitary()
    for protocol, messages in (("ghz3", 8), ("bell2", 4)):
        for message in range(1, messages + 1):
            g.run_trials(protocol, 1, fixed_message=message)
    return catalog_s


if __name__ == "__main__":
    t0 = time.perf_counter()
    import ghzdense

    import_s = time.perf_counter() - t0
    catalog_s = warm_up(ghzdense)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "import_s": import_s, "catalog_s": catalog_s}))
