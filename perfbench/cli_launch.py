"""Run ``qubitrd.cli.main`` with every public qubitrd function traced.

Usage: python3 cli_launch.py SPANS_PATH [qubitrd arguments...]

Stdout, stderr and the exit code are those of the CLI itself; the spans go
to SPANS_PATH as JSON lines when ``main`` returns or exits.
"""

import sys

import qubitrd
import qubitrd.cli

import spans


def launch(path: str, argv: list[str]) -> int:
    recorder = spans.Recorder()
    spans.install(recorder, qubitrd)
    try:
        return qubitrd.cli.main(argv)
    finally:
        recorder.dump(path)


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1], sys.argv[2:]))
