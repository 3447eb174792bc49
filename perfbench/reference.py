"""A fixed reference workload, timed in a child process, that reads the host's speed.

On a shared host the CPU slows by up to 1.7x, in spells from tens of
milliseconds to minutes, and a run's calm timings (see ``bench.py``) still
carry how calm its host was.  :class:`Reference` times a fixed
small-matrix loop (numpy forward and backward steps) between blocks.  Its
calm time tracks the program's calm times from run to run, so a timing
divided by the run's speed (:meth:`Probes.speed`) carries far less of the
host's.  The probe is timed in chunks at two scales, matched to what is
scaled:

* a whole probe is about one 30 ms increment epoch, for the increment's
  epochs (``increment_s`` on ``increment``);
* a chunk is about 1 ms, for single requests, ticks and their windows.

The loop runs in its own interpreter that imports nothing but numpy, so the
program's state (its threads, its heap, its caches) cannot slow it: a
slowdown the program causes stays in the scaled timing.  The child probes
only when asked, while the benchmark waits, so it never runs beside the
program.

Run as a script, this file is the child: each line on standard input asks
for one probe, and the probe's chunk times come back as one JSON line.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

import numpy as np

#: A probe is this many chunks of :data:`CHUNK_STEPS` loop steps.
CHUNKS = 25
CHUNK_STEPS = 100
#: A calm probe's seconds on the 2-vCPU 2 GHz Xeon VM the benchmark was
#: tuned on (31-33 ms; an increment epoch there took 30 ms).  Scaled times
#: are seconds at the host speed where a probe takes this long.
CALM_SECONDS = 0.032


def probe() -> List[float]:
    """Seconds of each chunk of one probe."""
    rng = np.random.default_rng(0)
    weights = rng.standard_normal((64, 32)).astype(np.float32)
    inputs = rng.standard_normal((32, 64)).astype(np.float32)
    x = inputs
    chunks = []
    for _ in range(CHUNKS):
        began = time.perf_counter()
        for _ in range(CHUNK_STEPS):
            hidden = np.tanh(x @ weights)
            x = inputs + 1e-3 * ((hidden * (1 - hidden * hidden)) @ weights.T)
        chunks.append(time.perf_counter() - began)
    return chunks


@dataclass
class Probes:
    """Every probe of one run."""

    probes: List[float] = field(default_factory=list)
    chunks: List[float] = field(default_factory=list)

    def add(self, chunks: List[float]) -> None:
        self.probes.append(sum(chunks))
        self.chunks.extend(chunks)

    def speed(self, whole: bool, calm: float) -> float:
        """The run's host speed, 1.0 where a calm probe takes
        :data:`CALM_SECONDS`: from whole probes or from chunks, each at the
        ``calm`` percentile, as the timings it scales are reduced."""
        if whole:
            return CALM_SECONDS / float(np.percentile(self.probes, calm))
        return CALM_SECONDS / CHUNKS / float(np.percentile(self.chunks, calm))


class Reference:
    """The child process that runs :func:`probe` on request."""

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def probe(self) -> List[float]:
        """Chunk times of one probe, run while the caller waits."""
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        answer = self._child.stdout.readline()
        if not answer:
            raise RuntimeError("the reference process ended early")
        return json.loads(answer)

    def close(self) -> None:
        """End the child and wait for it."""
        child = self._child
        try:
            child.stdin.close()
            child.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            child.kill()
            child.wait()
        finally:
            child.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(json.dumps(probe()), flush=True)
