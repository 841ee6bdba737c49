"""Run one workload program in this interpreter and record its peak memory.

Usage::

    python3 bench/launch.py PEAK_FILE -m MODULE ARGS...
    python3 bench/launch.py PEAK_FILE SCRIPT ARGS...

``-m MODULE`` calls ``MODULE.main(ARGS)``, which is what ``python3 -m
perispec.cli ARGS`` runs; a script runs as ``__main__``.  When the program
ends, the process's peak resident set size in KiB (``VmHWM``) is written to
PEAK_FILE and the program's exit code is passed through.

The peak is read here, not from the parent's ``wait4``: the kernel carries
the pre-exec peak of the forking parent into the child's rusage, so a
parent that holds more memory than the program would be measured instead.
"""

import importlib
import runpy
import sys


def run(program):
    """Run ``program`` (``-m MODULE ARGS`` or ``SCRIPT ARGS``); return its exit code."""
    if program[0] == "-m":
        sys.argv = program[1:]
        return importlib.import_module(program[1]).main(program[2:])
    sys.argv = list(program)
    try:
        runpy.run_path(program[0], run_name="__main__")
    except SystemExit as exc:
        return exc.code
    return 0


def peak_rss_kib():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv):
    peak_path, program = argv[0], argv[1:]
    try:
        return run(program)
    finally:
        with open(peak_path, "w") as fh:
            fh.write(f"{peak_rss_kib()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
