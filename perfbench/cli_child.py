"""`evrc` with spans, for the traced shipped_cli ops:

    python3 perfbench/cli_child.py SPANS_OUT OP_ID ARGS...

runs `evrc ARGS...` and writes the spans and counts it recorded to SPANS_OUT.
`evrc.cli` is imported before the wrappers go in, so the import is not part
of any span; run.py measures it on its own as cli.import_ms.
"""

import json
import sys
from pathlib import Path

from evrc.cli import main

from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.op_id = int(sys.argv[2])
    tracer.install()
    code = main(sys.argv[3:])
    spans, counts = tracer.take()
    Path(sys.argv[1]).write_text(json.dumps({"spans": spans, "counts": counts}),
                                 encoding="utf-8")
    raise SystemExit(code)
