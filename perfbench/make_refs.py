"""Regenerate perfbench/refs.json: the exact outcome of every pool input.

    python3 perfbench/make_refs.py

Run from the repository root.  Every pool member of every workload, at both
scales, is computed once with tracing on, so the references hold the exact
scan witnesses and threshold bisection paths as well as the floats and CSV
rows.
The shipped file was made from the code this benchmark was introduced with;
regenerate it only when a change is meant to alter outputs.  The full scale
takes several minutes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from worker import REFS, import_finitekey


def main() -> int:
    root = os.getcwd()
    import_finitekey(root)
    import workloads
    from tracing import Tracer

    refs = {}
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmpdir:
        for scale in ("smoke", "full"):
            for name in workloads.WORKLOADS:
                wl = workloads.WORKLOADS[name](scale, tmpdir)
                tracer = Tracer()
                got = {}
                for item in wl.reference_passes():
                    wl.prepare(item)
                    with tracer.installed():
                        got.update(wl.outcomes(wl.run(item, tracer, 1)))
                    tracer.take()
                bad = [k for k, rec in got.items() if rec.get("status", "0") != "0"]
                if bad:
                    raise SystemExit(f"{scale}/{name}: failed operations {bad}")
                refs.setdefault(scale, {})[name] = got
                print(f"{scale}/{name}: {len(got)} outcomes", file=sys.stderr)
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
