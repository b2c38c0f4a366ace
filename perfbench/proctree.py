"""CPU time of a process and all its descendants, read from ``/proc``.

Ray starts its GCS, raylet and worker processes as descendants of the
driver, and workers come and go while a job runs.  A plain sum of the
live processes' times drops whenever one of them exits, so this keeps
the total monotone:

* a live process counts ``utime + stime`` plus ``cutime + cstime`` (the
  times of the children it has waited for);
* a process that vanishes keeps its last-seen times, less what its
  parent's ``cutime + cstime`` grew by meanwhile: the kernel adds a
  child's times there only when the parent waits for it, and a parent
  that ignores ``SIGCHLD`` (the raylet reaping idle workers) adds
  nothing.

A background thread samples every ``POLL_S`` seconds so that
processes living shorter than a job are still seen.  Processes are
keyed by ``(pid, start time)``, so a reused pid is a new process.
"""

from __future__ import annotations

import os
import signal
import threading
import time

POLL_S = 0.2  # sampling period of the background thread
GRACE_S = 5.0  # how long stop_descendants waits before SIGKILL


def _read_procs() -> dict:
    """``{(pid, start): (ppid, state, own_ticks, reaped_ticks)}`` for every process."""
    procs = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                data = f.read()
        except OSError:
            continue  # exited between listdir and open
        # the command name may hold spaces and parentheses: split after the last ")"
        rest = data[data.rindex(b")") + 2 :].split()
        procs[(int(name), int(rest[19]))] = (
            int(rest[1]),
            rest[0],
            int(rest[11]) + int(rest[12]),
            int(rest[13]) + int(rest[14]),
        )
    return procs


class ProcessTree:
    """Monotone CPU seconds of this process and its descendants; see the module docstring."""

    def __init__(self) -> None:
        self.root = os.getpid()
        self._ticks = os.sysconf("SC_CLK_TCK")
        self._tracked: dict = {}  # (pid, start) -> (ppid, state, own, reaped)
        self._gone = 0  # ticks of vanished processes their parents did not absorb
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self) -> "ProcessTree":
        self.cpu_seconds()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _poll(self) -> None:
        while not self._stop.wait(POLL_S):
            self.cpu_seconds()

    def cpu_seconds(self) -> float:
        """Rescan ``/proc`` and return the tree's CPU seconds so far."""
        procs = _read_procs()
        with self._lock:
            by_pid = {key[0]: key for key in procs}
            children: dict = {}
            for key, (ppid, *_rest) in procs.items():
                children.setdefault(ppid, []).append(key)
            # the root's subtree, plus tracked processes that were re-parented away
            stack = [k for k in procs if k[0] == self.root or k in self._tracked]
            members = set()
            while stack:
                key = stack.pop()
                if key not in members:
                    members.add(key)
                    stack.extend(children.get(key[0], ()))
            vanished: dict = {}  # parent key -> last-seen ticks of its vanished children
            for key, (ppid, _state, own, reaped) in self._tracked.items():
                if key not in procs:
                    parent = by_pid.get(ppid)
                    vanished[parent] = vanished.get(parent, 0) + own + reaped
            for parent, ticks in vanished.items():
                before = self._tracked.get(parent)
                absorbed = procs[parent][3] - before[3] if before and parent in procs else 0
                self._gone += max(0, ticks - absorbed)
            self._tracked = {key: procs[key] for key in members}
            total = self._gone + sum(own + reaped for _p, _s, own, reaped in self._tracked.values())
        return total / self._ticks

    def _running_descendants(self) -> list:
        self.cpu_seconds()
        with self._lock:
            return [
                key[0]
                for key, (_ppid, state, _own, _reaped) in self._tracked.items()
                if key[0] != self.root and state != b"Z"
            ]

    @staticmethod
    def _reap_children() -> None:
        """Collect exited direct children so they do not linger as zombies."""
        while True:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return

    def stop_descendants(self) -> list:
        """Wait until every descendant has ended; SIGKILL what is left after
        ``GRACE_S`` seconds.  Returns the pids that had to be killed."""
        deadline = time.monotonic() + GRACE_S
        killed: list = []
        while True:
            self._reap_children()
            left = self._running_descendants()
            if not left:
                return killed
            if time.monotonic() > deadline:
                if killed:
                    raise RuntimeError(f"processes still running after SIGKILL: {left}")
                for pid in left:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    killed.append(pid)
                deadline = time.monotonic() + GRACE_S
            time.sleep(0.1)
