"""Regenerate ``reference.json``: the expected digest of every op's output.

The digests come from the same ops run on the AST reference tree-walker
(``engine="ast"``), not on the specialized fast path the benchmark times,
so a fast-path change that alters any table shows up as a failed op.
``warm`` shares the ``suite`` digests; ``gen`` ops check themselves.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/make_reference.py

Rerun it only when a change is meant to alter the pipeline's output.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import ops

OUT = Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory() as store:
        for workload in ("suite", "matrix"):
            for op in ops.ops_for(workload, store, engine="ast"):
                ops.drop_memos()
                digests[op.key] = ops.digest(op.run())
                print(op.key, digests[op.key], file=sys.stderr)
    OUT.write_text(json.dumps({"engine": "ast", "digests": digests},
                              indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
