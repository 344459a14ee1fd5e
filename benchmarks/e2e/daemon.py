"""The daemon as a subprocess: spawn, observe from /proc, stop, and prove
nothing outlived it.

The harness and the daemon share no interpreter: the daemon is
``python -u -m repro serve`` with its own GIL, reached only through its
socket and ``/proc``.  Its temp directory is inside the run's work
directory, so a spooled process-pool store that survives ``stop`` is
found by looking.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from wire import Connection

_BANNER = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")
_TICK = os.sysconf("SC_CLK_TCK")
_SHM = Path("/dev/shm")


class DaemonError(RuntimeError):
    """The daemon did not start, did not stop, or left something behind."""


def _shm_blocks() -> set[str]:
    return set(os.listdir(_SHM)) if _SHM.is_dir() else set()


def children(pid: int) -> list[int]:
    """Direct children of ``pid`` (all of its threads may own some)."""
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                out.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return out


class Daemon:
    """One ``repro serve`` process over a saved store."""

    def __init__(self, src: Path, store: Path, flags: list[str], tmp: Path):
        self.tmp = tmp
        tmp.mkdir(parents=True, exist_ok=True)
        self._shm_before = _shm_blocks()
        env = dict(
            os.environ,
            PYTHONPATH=str(src),
            TMPDIR=str(tmp),
            # str hashes order sets of edges; pin them so two daemons over
            # the same store plan and fold in the same order.
            PYTHONHASHSEED="0",
        )
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", str(store),
             "--port", "0", *flags],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        banner = self.proc.stdout.readline()
        match = _BANNER.search(banner)
        if match is None:
            self.proc.kill()
            self.proc.wait()
            raise DaemonError(f"no listen banner from the daemon: {banner!r}")
        self.port = int(match.group(1))
        deadline = started + 60.0
        while True:
            try:
                with Connection(self.port) as conn:
                    if conn.get_json("/healthz")["status"] == "ok":
                        break
            except OSError:
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                self.proc.kill()
                self.proc.wait()
                raise DaemonError("daemon never answered /healthz")
            time.sleep(0.01)
        self.start_s = time.perf_counter() - started

    # -- observation --------------------------------------------------------

    def tree(self) -> list[int]:
        """The daemon and every descendant (the process pool's workers are
        children of a forkserver, so grandchildren count)."""
        seen = [self.proc.pid]
        for pid in seen:
            seen.extend(c for c in children(pid) if c not in seen)
        return seen

    def _ticks(self, *fields: int) -> int:
        """Sum of the given ``/proc/<pid>/stat`` fields (counted from the
        process state, field 0) over the whole tree."""
        ticks = 0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    stat = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            ticks += sum(int(stat[field]) for field in fields)
        return ticks

    def cpu_ms(self) -> float:
        """utime + stime of the whole tree, in milliseconds."""
        return self._ticks(11, 12) * 1000.0 / _TICK

    def kernel_s(self) -> float:
        """stime of the whole tree since it was spawned, in seconds."""
        return self._ticks(12) / _TICK

    def rss_mb(self) -> float:
        """Sum of the tree's peak resident sizes (VmHWM), in MiB."""
        kib = 0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            kib += int(line.split()[1])
                            break
            except OSError:
                continue
        return kib / 1024.0

    # -- shutdown -----------------------------------------------------------

    def stop(self) -> None:
        """SIGINT (the daemon drains and closes its pool on it), then
        check that no process, temp store or shared-memory block is left."""
        tree = self.tree()
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise DaemonError("daemon ignored SIGINT for 30 s") from None
        finally:
            self.proc.stdout.close()
        deadline = time.perf_counter() + 5.0
        alive = tree[1:]
        while alive and time.perf_counter() < deadline:
            alive = [p for p in alive if os.path.exists(f"/proc/{p}")]
            time.sleep(0.01)
        problems = []
        if alive:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            problems.append(f"child processes outlived the daemon: {alive}")
        left = sorted(p.name for p in self.tmp.iterdir())
        if left:
            problems.append(f"temp files outlived the daemon: {left}")
        blocks = sorted(_shm_blocks() - self._shm_before)
        if blocks:
            problems.append(f"/dev/shm blocks outlived the daemon: {blocks}")
        if self.proc.returncode != 0:
            problems.append(f"daemon exited with code {self.proc.returncode}")
        if problems:
            raise DaemonError("; ".join(problems))

    def kill(self) -> None:
        """Last resort for error paths: no checks, nothing left running."""
        for pid in reversed(self.tree()):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()
        self.proc.stdout.close()
