"""The host-speed monitor's helper process (see ``harness.SpeedMonitor``).

Run as ``python speed_probe.py READINGS``.  It builds the ring that
``calibration.loop`` walks, prints ``ready``, and then answers every
line it reads on standard input by timing the loop ``READINGS`` times
on each allowed CPU and printing one line of ``<cpu>:<median seconds>``
fields.  It exits at the end of its input.  The parent waits for the
answer, so the loop runs while nothing else of the benchmark does.
"""

import os
import statistics
import sys
import time

from calibration import loop, make_ring


def main() -> None:
    readings = int(sys.argv[1])
    cpus = sorted(os.sched_getaffinity(0))
    nodes = make_ring()
    print("ready", flush=True)
    for _ in sys.stdin:
        fields = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            seconds = []
            for _ in range(readings):
                started = time.perf_counter()
                loop(nodes)
                seconds.append(time.perf_counter() - started)
            fields.append(f"{cpu}:{statistics.median(seconds):.7f}")
        print(" ".join(fields), flush=True)


if __name__ == "__main__":
    main()
