"""Run one quiverrep CLI command under the span tracer.

Usage: python perfbench/tracecli.py SPANS_JSON ARGV...

Times the import of quiverrep.cli, installs the tracer, runs
`quiverrep.cli.main(ARGV)`, writes {"import_s", "spans"} to SPANS_JSON and
exits with main's exit code.  quiverrep must be importable (PYTHONPATH=src).
"""

import json
import sys
import time

t0 = time.perf_counter()
import quiverrep.cli  # noqa: E402

import_s = time.perf_counter() - t0

from layertrace import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = quiverrep.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
