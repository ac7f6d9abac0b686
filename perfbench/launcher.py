"""Run one traced solvco CLI command in a fresh interpreter.

    python launcher.py SRC_DIR SPANS_OUT ARG...

Imports solvco from SRC_DIR, installs the benchmark's wrappers, calls
solvco.cli.main(ARG...), writes the spans, counts and import time to
SPANS_OUT as JSON and exits with the command's exit code.
"""

import json
import sys
import time


def main():
    src, spans_out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import solvco.cli
    import_s = time.perf_counter() - start

    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = solvco.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": tracer.spans,
                       "counts": tracer.counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
