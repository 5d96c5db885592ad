"""Each camera frame's noise seed, from its row of `sensor.frame_seeds`.

`harness.run_scenario` imports this module on its first call rather than at
`import catchsim`: `numpy.random` takes about 15 ms to import, and loading
and checking a config does not need it.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class FrameSeed(ISeedSequence):
    """A seed sequence that hands PCG64 one frame's precomputed seed words.

    `np.random.default_rng(FrameSeed(frame_seeds(seed, ticks)[f]))` draws the
    stream of `default_rng((seed, ticks[f]))`, without running SeedSequence.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a frame seed holds PCG64's four uint64 words only")
        return self.words
