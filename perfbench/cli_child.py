"""Run `radnorm <args>` with radnorm's layers traced.

Usage: python3 perfbench/cli_child.py SPAN_FILE ARG...

Same as the `radnorm` console script, except that the span wrappers are
installed after `import radnorm.cli` (whose duration is recorded as the
`cli.import_s` counter) and the spans are written to SPAN_FILE on exit.
"""

import sys
import time
from pathlib import Path

from spans import Tracer, cache_counters, install


def main() -> int:
    span_file, argv = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    import radnorm.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    cli_main = tracer.wrap("cli.main", radnorm.cli.main)
    try:
        return cli_main(argv)
    finally:
        tracer.write(span_file, {**cache_counters(), "cli.import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
