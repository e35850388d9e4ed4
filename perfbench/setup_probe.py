"""Time one set-up of the program, or the reference import, in this interpreter.

Usage: python3 setup_probe.py SRC_DIR < instances.json
       python3 setup_probe.py --reference

The first form reads the workload's instance objects from stdin, then times
importing ``rectlink.frontend``, ``rectlink.oracle`` and ``rectlink.io`` from
SRC_DIR and decoding every object with ``rectlink.io.instance_from_obj``.
The second times importing numpy and scipy's sparse graph module, which is
most of the program's set-up but none of its code.  Either prints the
elapsed seconds.

The caller rescales set-up time by ``REFERENCE_S`` over the reference
import's time measured beside it.  Set-up is mostly file reads, dynamic
linking and unmarshalling, whose cost on a shared box swings with its
neighbours' load in a way the interpreter spin of ``speed.py`` does not
follow.  Over fifty set-ups in five minutes of changing load, the median of
five moved by 53 % between the busiest and the quietest third of the time,
by 2 % once rescaled by the reference import, and by 73 % once rescaled by
the spin.
"""
import json
import sys
import time

REFERENCE_S = 0.40      # the reference import's time on the reference box


def reference() -> float:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401
    return time.perf_counter() - t0


def setup(src: str) -> float:
    sys.path.insert(0, src)
    objs = json.load(sys.stdin)
    t0 = time.perf_counter()
    import rectlink.frontend  # noqa: F401
    import rectlink.io
    import rectlink.oracle  # noqa: F401
    decoded = [rectlink.io.instance_from_obj(obj) for obj in objs]
    elapsed = time.perf_counter() - t0
    if len(decoded) != len(objs):
        raise SystemExit("decode lost instances")
    return elapsed


if __name__ == "__main__":
    print(repr(reference() if sys.argv[1] == "--reference" else setup(sys.argv[1])))
