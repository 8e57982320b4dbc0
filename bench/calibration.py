"""Host speed calibration.

On a shared host the speed of one core drifts by up to 2x within seconds
and can stay slow for tens of seconds, with no trace in steal time or CPU
time, so raw wall-clock times from two runs cannot be compared within a
useful bound. The benchmark therefore times a short, fixed piece of
pure-Python work written in the benchmark (the oracle classifier over a
fixed Hindi corpus; no program code) before and after every timed step,
and scales the step's time by REFERENCE_S over the mean of the two. The
results read as seconds on the reference host. A change to the program
cannot move the calibration, which runs benchmark code only.
"""
import time

import gen
import oracles

# A fixed lexicon, so that the calibration work depends on no file outside
# the benchmark.
_LEXICON = {
    "auxiliaries": {"है", "हैं", "था", "थी", "रहा", "रही", "गया", "गई"},
    "postpositions": {"ने", "को", "से", "में", "पर", "का", "की", "के"},
    "suffixes": ["ों", "ें", "ा", "े", "ी", "ता", "ती"],
}
# Calibration time on the reference host (2-vCPU Xeon VM at 2.1 GHz,
# CPython 3.11.7, in its fast phase). It only sets the unit of the scaled
# times.
REFERENCE_S = 0.014
_PAIRS = 60
_REPEATS = 8


class Calibration:
    def __init__(self):
        rows = gen.hi_short(0, _PAIRS)
        self._pairs = [(oracles.normalize(r[0]), oracles.normalize(r[1])) for r in rows] * _REPEATS
        self.samples = []

    def sample(self):
        """Time the calibration work once; returns seconds."""
        start = time.perf_counter()
        for a, b in self._pairs:
            oracles.classify(a, b, _LEXICON)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


def scaled(seconds, before, after):
    """seconds in reference seconds, given the calibration times taken just
    before and just after them."""
    return seconds * REFERENCE_S * 2 / (before + after)
