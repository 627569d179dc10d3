"""Run one quadwalk command with the per-layer tracer installed.

    python bench/launch.py TRACE_PATH ITEM_ID <quadwalk arguments...>

Imports quadwalk.cli (recorded as the span `cli.import`), installs the
tracer, calls quadwalk.cli.main with the arguments, writes the spans to
TRACE_PATH with tracer.write_spans, and exits with main's return code.
The traced `cli` workload runs this in place of `python -m quadwalk.cli`.
"""

import sys

from tracer import Span, Tracer, installed, write_spans


def main(argv) -> int:
    trace_path, item_id, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    start = tracer.clock()
    import quadwalk.cli

    tracer.spans.append(Span(0, "cli.import", start, tracer.clock(), None, item_id, 0.0, {}))
    try:
        with installed(tracer):
            return tracer.run_item(item_id, lambda: quadwalk.cli.main(args))
    finally:
        write_spans(trace_path, tracer.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
