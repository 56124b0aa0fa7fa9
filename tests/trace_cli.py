"""Run hardysim CLI commands under sys.settrace; print the functions entered.

Usage: python tests/trace_cli.py SRC COMMANDS_JSON

SRC is a checkout's src/ directory and COMMANDS_JSON a JSON list of argument
lists for ``hardysim.cli.main``. The trace is installed before hardysim is
imported, so calls made at import count too. Each command's output is
discarded. Prints one JSON object: "codes", each command's exit code, and
"entered", the [file, first line, name] of every code object under
SRC/hardysim that was called. Refuses to run if hardysim resolves to any
copy but SRC's, or was imported before the trace.
"""

import contextlib
import io
import json
import os
import sys


def main() -> int:
    src, commands = sys.argv[1], json.loads(sys.argv[2])
    package = os.path.join(src, "hardysim", "")
    if "hardysim" in sys.modules:
        raise SystemExit("hardysim was imported before the trace")
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(package):
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.path.insert(0, src)
    sys.settrace(trace)
    import hardysim.cli
    resolved = os.path.realpath(hardysim.__file__)
    if os.path.dirname(resolved) != os.path.realpath(package):
        raise SystemExit(f"hardysim resolves to {resolved}, not under {src}; "
                         f"refusing to run")
    codes = []
    for argv in commands:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                codes.append(hardysim.cli.main(argv))
            except SystemExit as exc:  # --help and usage errors
                codes.append(exc.code)
    sys.settrace(None)
    print(json.dumps({"codes": codes, "entered": sorted(entered)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
