"""Launch ``repro daemon start`` the benchmark's way.

Runs the shipped daemon (``run_daemon`` with its defaults) on a Unix
socket in the foreground, exactly as ``repro daemon start --socket``
does. With ``--trace`` the span recorder's wrappers are installed
first. When the daemon shuts down, the process writes its peak RSS
and, when traced, the recorder's totals to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from child import peak_rss_kb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--socket", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    from repro.daemon.server import run_daemon

    asyncio.run(run_daemon(socket_path=args.socket))
    result = {
        "maxrss_kb": peak_rss_kb(),
        "layers": recorder.snapshot() if recorder is not None else None,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
