"""Run one hardysim CLI command with the benchmark's tracer installed.

Usage: python3 bench/traced_cli.py SPANS_FILE -- CLI_ARGS...

It times the import of hardysim.cli, wraps the program's functions, runs
the command in-process and writes its spans to SPANS_FILE at exit, with the
monotonic time at which the interpreter reached this script.
"""

import time

START_NS = time.monotonic_ns()

import sys  # noqa: E402


def main() -> int:
    spans_file, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE -- CLI_ARGS...")
    t0 = time.perf_counter_ns()
    import hardysim.cli as cli
    import_ns = time.perf_counter_ns() - t0

    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.begin_op("cli_session")
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    tracer.end_op()
    tracer.uninstall()
    sys.stdout.flush()
    tracer.dump(spans_file, {"start_ns": START_NS, "import_ns": import_ns,
                             "hardysim_file": cli.__file__})
    return code


if __name__ == "__main__":
    sys.exit(main())
