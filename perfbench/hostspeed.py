"""Host-speed probe: scales measured times to a reference host speed.

The machines the benchmark runs on are shared, and their speed for
interpreted Python drifts by up to 1.6 times over minutes (neighbouring load
on the same cores), with the same code and inputs.  No statistic taken over the
program's own times removes a drift that lasts longer than a run.  So while
an untraced run measures, a small fixed kernel (:func:`probe_kernel`, part of
the benchmark, never of the program) runs every :data:`INTERVAL_S` from a
``SIGALRM`` handler on the main thread, interleaved with whatever the program
is doing.  Its mean time over a stretch of the run says how fast the host was
during that stretch, and every time the benchmark reports from that stretch
is multiplied by ``REFERENCE_NS / mean probe time``: the value the program
would have shown on a host where the probe takes :data:`REFERENCE_NS`.  The
mean, not the median: it tracked the program's own speed more closely.

:meth:`HostSpeed.clock` is ``perf_counter`` minus the time spent inside the
probe, so the probe's own time never counts towards the program's.  While a
verify latency is being timed the workload holds the probe
(:meth:`HostSpeed.hold`), and a probe that falls due then runs when the last
hold is released, so no latency sample contains one.  The traced run does
not probe: its per-layer times are as measured.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import time
from typing import List

#: Seconds between two probes (about 0.15 ms each, so under 1% of the run).
INTERVAL_S = 0.02

#: Mean probe time, in ns, on the host speed every figure is scaled to --
#: about what the 2-CPU x86-64 KVM guest the benchmark was defined on
#: measures.  A constant: scaled figures stay comparable across runs.
REFERENCE_NS = 150_000.0

#: A small register-machine program: a counted loop that hashes its branch
#: targets, so the kernel exercises the same interpreter paths as the
#: simulated CPU (tuple indexing, dict dispatch, integer masks, calls).
_PROGRAM = (
    ("li", 0, 0), ("li", 1, 1), ("add", 0, 0, 1), ("andi", 0, 0, 0xFFFF),
    ("xor", 2, 2, 0), ("addi", 1, 1, 3), ("blt", 1, 300, 2), ("halt",),
)
_REGS = [0] * 4


def _li(ins) -> None:
    _REGS[ins[1]] = ins[2]


def _add(ins) -> None:
    _REGS[ins[1]] = (_REGS[ins[2]] + _REGS[ins[3]]) & 0xFFFFFFFF


def _andi(ins) -> None:
    _REGS[ins[1]] = _REGS[ins[2]] & ins[3]


def _xor(ins) -> None:
    _REGS[ins[1]] = _REGS[ins[2]] ^ _REGS[ins[3]]


def _addi(ins) -> None:
    _REGS[ins[1]] = (_REGS[ins[2]] + ins[3]) & 0xFFFFFFFF


_OPS = {"li": _li, "add": _add, "andi": _andi, "xor": _xor, "addi": _addi}


def probe_kernel() -> int:
    """Run the fixed program once; allocates no garbage-collected object."""
    hasher = hashlib.sha256()
    pc = 0
    while True:
        ins = _PROGRAM[pc]
        op = ins[0]
        if op == "halt":
            return _REGS[2]
        if op == "blt":
            if _REGS[ins[1]] < ins[2]:
                hasher.update(pc.to_bytes(4, "little"))
                pc = ins[3]
            else:
                pc += 1
            continue
        _OPS[op](ins)
        pc += 1


class HostSpeed:
    """The probe's samples and the probe-free clock of one run.

    Only a started instance probes; an unstarted one (a traced run) keeps
    ``clock`` equal to ``perf_counter`` and every factor at 1.
    """

    def __init__(self) -> None:
        self.samples: List[int] = []
        #: Seconds spent inside the probe so far.
        self.spent = 0.0
        #: Open holds, and whether a probe fell due during one.
        self.holds = 0
        self.pending = False
        self._previous = None

    def clock(self) -> float:
        """``perf_counter`` without the time spent probing."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        """A position in the samples, to take :meth:`factor` from later."""
        return len(self.samples)

    def factor(self, mark: int) -> float:
        """``REFERENCE_NS`` over the mean probe time since ``mark``.

        A stretch too short to hold a probe takes the mean of the whole run
        so far; with no probe at all (a traced run) the factor is 1.
        """
        samples = self.samples[mark:] or self.samples
        if not samples:
            return 1.0
        return REFERENCE_NS * len(samples) / sum(samples)

    def hold(self) -> None:
        """Defer probes until the matching :meth:`release`."""
        self.holds += 1

    def release(self) -> None:
        self.holds -= 1
        if self.pending and not self.holds:
            self.pending = False
            self._measure()

    def _on_alarm(self, *_) -> None:
        if self.holds:
            self.pending = True
        else:
            self._measure()

    def _measure(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter_ns()
        probe_kernel()
        elapsed = time.perf_counter_ns() - started
        if collecting:
            gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed / 1e9

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

