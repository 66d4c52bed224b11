"""One set-up sample: a fresh interpreter imports the program and makes a
workload's inputs, then exits where the benchmark would call the driver.

``run.py`` times several of these from spawn to exit for ``setup_s``.  The
probe samples the host's speed while it works (``hostspeed.py``) and
prints the mean kernel CPU seconds, by which ``run.py`` rescales its time.
Usage: ``python3 qeibench/probe.py <workload> <seed>``.
"""

import sys
from pathlib import Path

import hostspeed

if __name__ == "__main__":
    speed = hostspeed.HostSpeed()
    speed.start()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import bench  # needs the program on sys.path

    bench.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]))
    speed.stop()
    print(speed.mean_cpu())
