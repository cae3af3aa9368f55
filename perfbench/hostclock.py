"""Scales times measured on a shared host to a reference host speed.

A shared host changes speed by up to a half, and back, within a second or
two; a median of raw times then says more about the host than about qhv.  A
*calibration* is a fixed piece of work timed on the spot: the benchmark's own
Fraction reducer (gb.py, which never imports qhv) reducing products of the
katsura-4 generators modulo their committed reduced basis.  It is the same
dict-of-Fraction arithmetic qhv spends its time on, so it slows with the host
as qhv does.

Every process is calibrated right before it starts and right after it ends,
and a worker process also calibrates itself every ``PERIOD_S`` from a SIGALRM
handler, between two bytecodes of whatever qhv is running.  The time between
two calibrations is multiplied by ``CAL_REF_S`` over their mean; the time
spent calibrating is left out.  No qhv code runs in a calibration, so a
change to qhv moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from pathlib import Path

import gb

CAL_CHUNKS = 5  # chunks per calibration; their median is the calibration
#: Median calibration chunk, in seconds, on the reference host (2-vCPU Intel
#: Xeon at 2.0 GHz, Python 3.11.7) at its faster speed.
CAL_REF_S = 0.0022
PERIOD_S = 0.15  # time between the calibrations of a worker process
CLOCK_PREFIX = "perfbench-clock "


def _product(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


class Calibration:
    def __init__(self):
        path = Path(__file__).resolve().parent / "expected" / "gb-fixed.json"
        basis = json.loads(path.read_text())["katsura-4"]["basis"]
        self._basis = [(gb.leading(g), g) for g in map(gb.load_poly, basis)]
        _, gens = gb.fixed_system("katsura-4")
        # the linear generator times each generator, both ways round: about 2 ms
        self._products = [_product(f, g) for f in gens for g in gens if gens[0] in (f, g)]

    def _chunk(self):
        start = time.perf_counter()
        for p in self._products:
            gb.reduce(p, self._basis)
        return time.perf_counter() - start

    def measure(self):
        """Seconds per chunk now: the median of CAL_CHUNKS chunks."""
        return statistics.median(self._chunk() for _ in range(CAL_CHUNKS))


class Sampler:
    """Calibrates the current process every PERIOD_S of wall time.

    ``points`` holds one ``(start, end, seconds per chunk)`` per calibration,
    on the ``time.perf_counter`` clock, which Linux shares between processes.
    """

    def __init__(self):
        self.calibration = Calibration()
        self.points = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        cal = self.calibration.measure()
        self.points.append((start, time.perf_counter(), cal))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def install(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.points


def scaled(t0, t1, points, cal_before, cal_after):
    """Scaled and raw seconds of [t0, t1], the calibrations in it left out.

    ``cal_before`` and ``cal_after`` are calibrations made just before t0
    and just after t1; ``points`` are the calibrations made in between.
    """
    total = raw = 0.0
    prev_end, prev_cal = t0, cal_before
    for start, end, cal in points:
        if start >= t1:
            break
        stretch = min(start, t1) - prev_end
        total += stretch * CAL_REF_S / ((prev_cal + cal) / 2)
        raw += stretch
        prev_end, prev_cal = end, cal
    if prev_end < t1:
        total += (t1 - prev_end) * CAL_REF_S / ((prev_cal + cal_after) / 2)
        raw += t1 - prev_end
    return total, raw
