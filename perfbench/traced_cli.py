"""Run one patsim CLI command in this process with spans recorded.

usage: python3 perfbench/traced_cli.py SPANS_JSON ARGS...

Times `import patsim.cli`, wraps the layers' public functions, calls
`patsim.cli.main(ARGS)` and writes the import time and every span to
SPANS_JSON when the command has returned. Exits with the command's code.
"""

import json
import sys
import time

import tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import patsim.cli  # noqa: F401  (timed: users pay it on every command)
    import_s = time.perf_counter() - start
    recorder = tracer.Tracer()
    recorder.install()
    try:
        return sys.modules["patsim.cli"].main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": recorder.records()}, fh)


if __name__ == "__main__":
    sys.exit(main())
