"""Run one command; write its exit code, wall time and peak RSS to a file descriptor.

Usage: python3 -I -S perfbench/spawn.py FD PROGRAM [ARG...]

The benchmark starts every command through this small interpreter.  Linux
carries the memory a process held before exec into its peak RSS, so a
command forked straight from the larger benchmark process would read at
least that size; forked from here, it starts from this process's size,
which is below any interpreter that imports jacverify.  The wall time
runs from fork to reaping, without this interpreter's own start-up.
"""

import os
import sys
import time


def main() -> int:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    os.set_inheritable(fd, False)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    os.write(fd, f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}\n".encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
