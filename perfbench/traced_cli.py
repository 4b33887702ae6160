"""Run one risjam command, or the seed-study set-up, under the span tracer.

Usage: traced_cli.py SPAWN_TIME SPANS_OUT (risjam CLI arguments | --setup SCENARIO)

SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so the recorded harness.import span covers process start plus
`import risjam`. The spans are written to SPANS_OUT as JSON and the process
exits with the command's exit code.
"""

import sys
import time

spawned = float(sys.argv[1])
import risjam  # noqa: E402

imported = time.monotonic()

import json  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    out, args = sys.argv[2], sys.argv[3:]
    tr = tracer.Tracer()
    tr.add_span("harness.import", spawned, imported)
    tr.install()
    try:
        if args[:1] == ["--setup"]:
            risjam.channel.build_channel_set(risjam.scene.load_scenario(args[1]))
            rc = 0
        else:
            rc = risjam.harness.main(args)
    finally:
        tr.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tr.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
