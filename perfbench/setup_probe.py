"""Time one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py SYSTEM_FILE...

Imports peakgain from src/ of this checkout, parses every system file and
realizes each rational one with tf_to_ss, then prints the elapsed seconds.
"""

import sys
import time
from pathlib import Path


def main(paths):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import peakgain

    for path in paths:
        system = peakgain.parse_system_file(path)
        if isinstance(system, peakgain.RationalTransferFunction):
            peakgain.tf_to_ss(system)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
