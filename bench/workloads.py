"""The benchmark's workloads: which property suites run, at which shape, and why.

A workload is a list of streams.  A stream is one property suite at one
scenario shape; its trial at offset k draws its inputs from
``trial_rng(seed, k)``, exactly as ``tensornorm check`` does, so every
trial replays from the command line.

Trials are taken in rounds (see :class:`TrialPlan`).  A round holds one
trial of every stratum, a stratum being (stream, number of terms of the
first generated tensor, number of terms of the second).  Those two term
counts are drawn uniformly by the generator and explain most of the
spread of trial cost (from 1 ms to seconds), so equal quotas per stratum
keep the mix the generator would produce on average while removing most
of the seed-to-seed noise of the mix.  Within a stratum, trials are taken
in offset order.

Offsets are multiples of OFFSET_STRIDE.  The stream of trial k is the
splitmix64 sequence of the seed shifted by k draws, so trials k and k + 1
share all but one of their random numbers; a trial draws at most a few
hundred, and offsets this far apart share none.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from tensornorm import ScenarioConfig, SplitMix64, trial_rng
from tensornorm.generators import gen_tensor_elem

OFFSET_STRIDE = 4096


@dataclass(frozen=True)
class Stream:
    suite: str
    options: tuple  # ScenarioConfig keyword pairs, e.g. (("p", 3),)

    def scenario(self, seed, trials=1, offset=0) -> ScenarioConfig:
        return ScenarioConfig(seed=seed, trials=trials, offset=offset, **dict(self.options))

    @property
    def label(self):
        opts = " ".join(f"{k}={v}" for k, v in self.options)
        return f"{self.suite} {opts}"

    def replay(self, seed, offset):
        """The CLI line that reruns exactly this one trial."""
        sc = self.scenario(seed)
        base = "closure" if sc.base_level is None else sc.base_level
        return (f"tensornorm check {self.suite} --p {sc.p} --levels {sc.level_bound} "
                f"--base {base} --max-terms {sc.max_terms} --seed {seed} "
                f"--offset {offset} --trials 1")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    streams: tuple


WORKLOADS = {w.name: w for w in (
    Workload(
        "closed-mult",
        "criterion 1: mult-closed over the closure, p=2 and p=3; "
        "canonicalization and the sweep dominate",
        (Stream("mult-closed", (("p", 2),)), Stream("mult-closed", (("p", 3),)))),
    Workload(
        "level-base",
        "criterion 9 non-closed half: submult and ultrametric over the level-1 "
        "base, p=2; coefficients unfold over generator powers",
        (Stream("submult", (("p", 2), ("base_level", 1))),
         Stream("ultrametric", (("p", 2), ("base_level", 1))))),
    Workload(
        "deep-tower",
        "mult-closed over the closure at p=2, level bound 12, at most 2 terms: "
        "generic field multiplication past the table limit dominates",
        (Stream("mult-closed", (("p", 2), ("level_bound", 12), ("max_terms", 2))),)),
)}


def operand_terms(setup, scenario, seed, offset):
    """Term counts of the two tensors a trial generates first.

    Every suite a workload runs starts with two ``gen_tensor_elem`` draws;
    regenerating them is cheap next to the norms the trial computes.
    """
    rng = trial_rng(seed, offset)
    z = gen_tensor_elem(setup, scenario, rng)
    w = gen_tensor_elem(setup, scenario, rng)
    return len(z.terms), len(w.terms)


class TrialPlan:
    """Trials of one workload and seed, handed out a round at a time."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.scenarios = [s.scenario(seed) for s in workload.streams]
        self.setups = [sc.build_setup() for sc in self.scenarios]
        # far from every trial's stream (see OFFSET_STRIDE)
        self._order_rng = SplitMix64(seed + (1 << 63))
        self._next = [0] * len(workload.streams)
        self._found = {}
        for i, sc in enumerate(self.scenarios):
            for a in range(1, sc.max_terms + 1):
                for b in range(1, sc.max_terms + 1):
                    self._found[(i, a, b)] = deque()
        self._strata = sorted(self._found)

    def _take(self, stratum):
        i = stratum[0]
        queue = self._found[stratum]
        while not queue:
            offset = self._next[i] * OFFSET_STRIDE
            self._next[i] += 1
            a, b = operand_terms(self.setups[i], self.scenarios[i], self.seed, offset)
            self._found[(i, a, b)].append(offset)
        return queue.popleft()

    def next_round(self):
        """[(stream index, offset)], one per stratum, in seed-shuffled order."""
        order = list(self._strata)
        self._order_rng.shuffle(order)
        return [(s[0], self._take(s)) for s in order]
