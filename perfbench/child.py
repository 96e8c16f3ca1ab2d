"""One measured widthlab process: ``python3 child.py RECORD MODE -- ARGS...``.

Imports ``widthlab.cli``, wraps the chosen subcommand so its start and end are
stamped on the system-wide monotonic clock, runs ``widthlab.cli.main(ARGS)``,
and writes a JSON record to RECORD.  MODE is

  run    run the subcommand untraced;
  trace  run it with spans around every public layer function (spans.py);
  setup  stop where the subcommand would begin, to sample set-up time alone.

The parent stamps the same clock just before it starts this process, so
``begin`` minus that stamp is the set-up time: interpreter start, imports and
config resolution.
"""

from __future__ import annotations

import json
import sys
import time


def _peak_rss_kb() -> int:
    # VmHWM belongs to this process's own address space since exec; the
    # rusage high-water mark can inherit the parent's from before exec
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    if len(sys.argv) < 5 or sys.argv[3] != "--" or sys.argv[2] not in (
            "run", "trace", "setup"):
        raise SystemExit("usage: child.py RECORD run|trace|setup -- ARGS...")
    record_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    t0 = time.monotonic()
    import widthlab.cli as cli
    import_s = time.monotonic() - t0

    record: dict = {"import_s": import_s}
    recorder = None
    if mode == "trace":
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    command = argv[0]
    inner = cli.COMMANDS[command]

    def stamped(*args, **kwargs):
        record["begin"] = time.monotonic()
        if mode != "setup":
            inner(*args, **kwargs)
        record["end"] = time.monotonic()

    cli.COMMANDS[command] = (recorder.root_span(f"cli.{command}", stamped)
                             if recorder else stamped)
    cli.main(argv)
    record["peak_rss_kb"] = _peak_rss_kb()
    if recorder is not None:
        record["spans"] = recorder.spans
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
