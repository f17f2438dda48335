"""Cold set-up time of pgakit, measured inside a fresh interpreter.

    python3 perfbench/setup_probe.py pga3 cga3

Imports pgakit from the checkout's ``src`` and builds each named algebra,
then prints the CPU seconds that took and, after it, the median CPU
seconds of three runs of the reference loop (``reference.py``) in this
same process.  ``run.py`` starts this several times per run and reports
the median of the set-up times at reference speed as ``setup_s``.
"""

import os
import sys
import time


def main(names: list[str]) -> int:
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    start = time.process_time()
    import pgakit

    builders = {"pga2": lambda: pgakit.pga(2), "pga3": lambda: pgakit.pga(3),
                "cga3": lambda: pgakit.cga(3)}
    for name in names:
        builders[name]()
    setup = time.process_time() - start
    import reference

    ref = sorted(reference.cpu_seconds() for _ in range(3))[1]
    print(repr(setup), repr(ref))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
