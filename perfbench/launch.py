"""Run one command from a small process, pinned to one CPU, and print what it used.

    python3 -I -S perfbench/launch.py -- python3 -m ocrkit.cli score --help

Prints one line: exit code, wall seconds, user+system CPU seconds, max RSS in
KiB, and the seconds a fixed calibration loop took on the same CPU, as the
mean of one loop just before and one just after the command. The command's
stdout goes to /dev/null; its stderr is inherited.

The benchmark starts every child through this launcher for two reasons:

- Linux carries the RSS of the forking process into a forked child's max RSS
  at exec: forked straight from the benchmark process, a child would report
  the benchmark's RSS whenever that is the larger. This interpreter, started
  with -I -S and importing nothing else, is smaller than any Python child it
  launches.
- On a shared VM, other guests on the same host slow this one's CPUs by a
  third or more for seconds to minutes at a time, mostly without any steal
  being counted. The calibration loop shows how fast the CPU ran Python
  around the command, so the benchmark can convert the command's times to a
  fixed reference speed. The launcher pins itself, and so the command, to one
  CPU with ``sched_setaffinity`` (which acts on these processes only), so the
  loop and the command run on the same CPU. A command that wanted more than
  one CPU is held to one.
"""

import os
import sys
import time

CALIBRATION_ROUNDS = 200_000


def calibration_s():
    """Seconds of a fixed pure-Python loop: how fast this CPU runs Python now."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ROUNDS):
        x += i * i % 7
    return time.perf_counter() - start


def main():
    argv = sys.argv[sys.argv.index("--") + 1:]
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    before = calibration_s()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    after = calibration_s()
    print(os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime,
          usage.ru_maxrss, (before + after) / 2)


if __name__ == "__main__":
    main()
