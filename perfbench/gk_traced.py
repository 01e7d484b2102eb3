"""
`gk` with spans: run garsidekit's command line under the tracer and write
the per-name aggregates for the parent to merge.

    GK_TRACE_OUT=stats.json python3 perfbench/gk_traced.py SUBCOMMAND ...

`cli.import_s` is the time to import garsidekit.cli in this interpreter.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    t0 = time.perf_counter()
    import garsidekit.cli as cli

    import_s = time.perf_counter() - t0
    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.phase("ops")
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["GK_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "ops": tracer.phases["ops"].as_dict()}, fh)
    sys.exit(code)
