"""Record the reference output digests for the default seed.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs every input of the named workloads (all by default) once, untimed,
and writes one digest per op, or null for an op that raised, to
reference_digests.json; the other workloads keep their digests.  A run
with the default seed then fails any op whose output differs.  Record
again only when a change is meant to alter certified output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH_DIR, REFERENCE, import_library

DEFAULT_SEED = 0


def main(names) -> int:
    import_library()
    import workloads
    with open(REFERENCE, encoding="utf-8") as fh:
        out = json.load(fh)
    if out["seed"] != DEFAULT_SEED:
        out = {"seed": DEFAULT_SEED, "workloads": {}}
    workdir = os.path.join(BENCH_DIR, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        for name in names or workloads.WORKLOADS:
            wl = workloads.WORKLOADS[name]
            digests = []
            for item in wl.setup(DEFAULT_SEED, workdir):
                try:
                    digests.append(workloads.digest(wl.run(item)))
                except Exception as exc:  # recorded as null, reported here
                    print(f"{name} op {len(digests)}: {type(exc).__name__}: "
                          f"{exc}", file=sys.stderr)
                    digests.append(None)
            out["workloads"][name] = digests
            print(f"{name}: {len(digests)} ops, "
                  f"{digests.count(None)} raised", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
