"""Write the state-space benchmark inputs from their rational sources.

Each rational system file is realized with ``peakgain.tf_to_ss`` and written
in the state-space file format with shortest round-trip floats. The written
file is parsed back and must reproduce the realization's matrices exactly.

    PYTHONPATH=src python3 perfbench/make_inputs.py          # write the files
    PYTHONPATH=src python3 perfbench/make_inputs.py --check  # compare only
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from peakgain import parse_system_file, parse_system_text, tf_to_ss

ROOT = Path(__file__).resolve().parent.parent

# state-space file -> rational source, both relative to the repository root
REALIZATIONS = {
    "perfbench/inputs/delayed_resonator_ss.txt": "demos/delayed_resonator.txt",
    "perfbench/inputs/slow_pole_ss.txt": "perfbench/inputs/slow_pole.txt",
}


def _row(values):
    return ", ".join(repr(float(v)) for v in values)


def state_space_text(source):
    """State-space file text for the rational system file ``source``."""
    ss = tf_to_ss(parse_system_file(ROOT / source))
    text = (
        f"# {source} realized by tf_to_ss, n = {ss.n}; "
        "regenerate with perfbench/make_inputs.py\n"
        f"A = {'; '.join(_row(row) for row in ss.A)}\n"
        f"B = {_row(ss.B)}\n"
        f"C = {_row(ss.C)}\n"
        f"D = {ss.D!r}\n"
    )
    back = parse_system_text(text)
    for key in "ABCD":
        if not np.array_equal(getattr(back, key), getattr(ss, key)):
            raise RuntimeError(f"{source}: {key} does not parse back exactly")
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="only report files that differ from a fresh realization")
    args = parser.parse_args(argv)
    stale = []
    for target, source in REALIZATIONS.items():
        text = state_space_text(source)
        path = ROOT / target
        if args.check:
            if not path.exists() or path.read_text(encoding="utf-8") != text:
                stale.append(target)
        else:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {target}")
    for target in stale:
        print(f"stale: {target}", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
