"""Run one biblionet CLI command in this interpreter, optionally traced.

    python3 perfbench/inproc.py RESULT.json {plain,traced} RUN_ID -- CLI ARGS...

Times the import of `biblionet.cli` and the `cli.main` call, and with
`traced` installs the outside-in tracer first. The result file holds the
exit code, both times and, when traced, the spans and counts.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    result_path, mode, run_id, separator, *cli_args = argv
    if separator != "--" or mode not in ("plain", "traced"):
        print(__doc__, file=sys.stderr)
        return 2
    started = time.perf_counter()
    import biblionet.cli as cli
    import_s = time.perf_counter() - started

    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    started = time.perf_counter_ns()
    code = cli.main(cli_args)
    main_ns = time.perf_counter_ns() - started
    payload = {"code": code, "import_s": import_s, "main_ns": main_ns}
    if tracer is not None:
        tracer.uninstall()
        payload["trace"] = tracer.dump(run_id)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
