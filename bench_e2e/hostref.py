"""A frozen numpy kernel that tells a run how fast the host is right now.

The sandbox this benchmark runs in changes speed by 20-40 % over minutes
(neighbouring VMs): ten runs of one commit spread 21-33 % on every
timing metric, whatever statistic each run reports, because a whole run
sits inside one phase. A regression bound of 10-25 % cannot be read off
such a clock directly.

So every timed window also times this kernel, in short bursts spread
over the window and outside every request's latency, and the run's
timing metrics are divided by ``factor`` = the run's median burst time
over the workload's nominal burst time. The kernel is a bare forward step
of the workload's own geometry (per layer ``x @ W + h @ U`` at ``(B, H) @
(H, 4H)``, ``tanh``, one gate product; then the head), so it streams the
same weight memory per step and slows down with the host the way the
workload does (measured on PTB: a kernel over a third of the footprint
tracked half as well);
it calls nothing in ``repro``, so it cancels what the host does to all
code alike and nothing a change to ``repro`` does. Raw wall-clock values
and the factor stay in the run's detail file and printed report.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median burst per workload on the disclosed machine class (2 x Xeon
#: 2.1 GHz KVM guest), the median of ten runs; with it a corrected metric
#: reads like a wall-clock one on a typical phase of that machine. On
#: another machine the factor is a constant different from 1, which scales
#: every run alike.
NOMINAL_BURST_S = {
    "batch_combined": 1.60e-3,
    "stream_multi": 0.98e-3,
    "stream_lm_single": 9.0e-3,
    "paper_sweep": 4.4e-3,
}
#: A group is at least ``GROUP_BURSTS`` back-to-back bursts, the first of
#: which is dropped: a lone burst after other work runs on cold caches and
#: reads about the same on a fast and a slow host. Groups take about
#: ``GROUP_SHARE`` of the run: a 10 ms token sees a group every 0.6 s, a
#: 3 s sweep is followed by thirty bursts.
GROUP_BURSTS = 3
GROUP_SHARE = 0.05
MIN_GAP_S = 0.1


class HostReference:
    def __init__(self, workload: str, hidden: int, layers: int, batch: int, classes: int) -> None:
        rng = np.random.default_rng(0)
        self._nominal_s = NOMINAL_BURST_S[workload]
        self._hidden = hidden
        self._w = [rng.normal(size=(hidden, 4 * hidden)) * 0.05 for _ in range(layers)]
        self._u = [rng.normal(size=(hidden, 4 * hidden)) * 0.05 for _ in range(layers)]
        self._head = rng.normal(size=(hidden, classes)) * 0.05
        self._x = rng.normal(size=(batch, hidden))
        self._wx = np.empty((batch, 4 * hidden))
        self._pre = np.empty((batch, 4 * hidden))
        self._h = np.empty((batch, hidden))
        self._logits = np.empty((batch, classes))
        self.samples_s: list[float] = []
        self.burst()
        self._burst_s = self.burst()  # the latest burst: what the next group will cost
        self._last_group = time.perf_counter()

    def burst(self) -> float:
        """One bare forward step: per layer ``x @ W + h @ U``, gates; then the head."""
        hidden = self._hidden
        start = time.perf_counter()
        for w, u in zip(self._w, self._u):
            np.matmul(self._x, w, out=self._wx)
            np.matmul(self._x, u, out=self._pre)
            np.add(self._pre, self._wx, out=self._pre)
            np.tanh(self._pre, out=self._pre)
            np.multiply(self._pre[:, :hidden], self._pre[:, hidden : 2 * hidden], out=self._h)
        np.matmul(self._h, self._head, out=self._logits)
        return time.perf_counter() - start

    def maybe_group(self, limit_s: float = float("inf")) -> float:
        """A group of bursts if one is due and fits in ``limit_s``; returns the seconds spent."""
        start = time.perf_counter()
        since = start - self._last_group
        cost = GROUP_BURSTS * self._burst_s
        if since < max(MIN_GAP_S, cost / GROUP_SHARE) or limit_s < 1.5 * cost:
            return 0.0
        budget = min(limit_s, max(cost, GROUP_SHARE * since))
        self.burst()  # warms the caches; not a sample
        taken = 1
        while taken < GROUP_BURSTS or time.perf_counter() - start + self._burst_s < budget:
            self._burst_s = self.burst()
            self.samples_s.append(self._burst_s)
            taken += 1
        self._last_group = time.perf_counter()
        return self._last_group - start

    def take_factor(self) -> tuple[float, list[float]]:
        """Host factor of the bursts since the last call (1.0 = nominal speed), and the bursts."""
        if not self.samples_s:  # an open loop that never had a long enough idle moment
            self.burst()
            self.samples_s = [self.burst() for _ in range(GROUP_BURSTS - 1)]
        samples, self.samples_s = self.samples_s, []
        return statistics.median(samples) / self._nominal_s, samples
