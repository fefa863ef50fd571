"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs one pass of each workload at the reference seed, at the full and the
quick size, and writes ``perfbench/reference.json``.  Record only from a
commit whose outputs are known to be right; later commits must reproduce
these numbers within ``workloads.REL_TOL``.
"""

from __future__ import annotations

import json
import os
import shutil
from types import SimpleNamespace

import run
import workloads


def main() -> None:
    mods = run.load_program()
    nm = SimpleNamespace(**mods)
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    doc = {}
    try:
        for size, sizes in workloads.SIZES.items():
            doc[size] = {}
            for name, cls in workloads.WORKLOADS.items():
                wl = cls(nm, sizes[name], str(workdir))
                inp = wl.inputs(workloads.REFERENCE_SEED)
                _, result = wl.run(inp)
                attempted, failed = wl.check(inp, result, None)
                if failed:
                    raise SystemExit(f"{name} ({size}): {failed}/{attempted} invariant checks failed")
                doc[size][name] = wl.reference(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE_FILE, "w") as f:
        json.dump(doc, f)


if __name__ == "__main__":
    main()
