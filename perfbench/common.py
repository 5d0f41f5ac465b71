"""Shared helpers of the benchmark: statistics, processes, HTTP, verification.

Nothing here imports ``repro``: the benchmark process stays independent of
the code it measures, except where a workload needs the library on purpose
(reference answers, the cluster coordinator).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: root of the checkout the benchmark runs in (the parent of this directory)
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
#: everything a run writes goes below here (git-ignored)
WORK_ROOT = ROOT / ".perfbench"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> dict:
    """Environment for every program process: the checkout's ``src``."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# -- statistics ---------------------------------------------------------------

#: a tail needs this many samples strictly beyond it
TAIL_BEYOND = 10


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and the tail of ``samples``.

    The tail is the highest percentile with at least ten samples beyond it:
    the eleventh-largest sample, at percentile ``100 * (n - 10) / n``.
    Below 21 samples that point sits at or under the median, so the tail is
    the maximum instead and ``beyond`` records 0.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n >= 2 * TAIL_BEYOND + 1:
        tail, beyond = xs[n - TAIL_BEYOND - 1], TAIL_BEYOND
        pct = 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct, beyond = xs[-1], 100.0, 0
    q1, q3 = quartiles(xs)
    return {
        "p50": statistics.median(xs),
        "q1": q1,
        "q3": q3,
        "tail": tail,
        "tail_pct": round(pct, 2),
        "tail_beyond": beyond,
        "n": n,
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# -- environment stamp --------------------------------------------------------


def _git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` when it is not the top of a git
    work tree (an exported checkout inside another repository must not
    report that repository's commit)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def src_digest() -> str:
    """sha256 over every file under ``src/``: names the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def env_stamp() -> dict:
    """Everything that can change a number without a code change."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy; from repro.setops.kernels import kernel_meta;"
         "print(json.dumps({'numpy': numpy.__version__,"
         " 'kernel_meta': kernel_meta()}))"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    libs = json.loads(probe.stdout) if probe.returncode == 0 else {
        "error": probe.stderr.strip()[-300:]
    }
    return {
        "git_commit": _git_commit(),
        "src_digest": src_digest(),
        "python": platform.python_version(),
        "numpy": libs.get("numpy"),
        "kernel_meta": libs.get("kernel_meta", libs),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


# -- processes ----------------------------------------------------------------


def run_timed(argv: list[str], stdout_path: Path, stderr_path: Path,
              timeout: float) -> dict:
    """Run one process to exit; wall time from spawn to reaped exit.

    Peak RSS comes from ``wait4`` (kilobytes on Linux).  A process still
    running after ``timeout`` is killed and reported with ``timed_out``.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, _kill, (proc.pid,))
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "seconds": elapsed,
        "rc": proc.returncode,
        "rss_kb": usage.ru_maxrss,
        "timed_out": proc.returncode == -signal.SIGKILL,
    }


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def tail_text(path: Path, limit: int = 400) -> str:
    try:
        return path.read_text(errors="replace").strip()[-limit:]
    except OSError:
        return ""


class Server:
    """One ``repro serve`` process started by the benchmark."""

    def __init__(self, argv: list[str], state_dir: Path, log_path: Path):
        self.state_dir = state_dir
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(argv, stdout=self._log,
                                     stderr=subprocess.STDOUT,
                                     env=child_env(), cwd=ROOT)
        self.url = None
        self.host = "127.0.0.1"
        self.port = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Block until ``/readyz`` answers 200; returns seconds waited."""
        t0 = time.perf_counter()
        port_file = self.state_dir / "serve.port"
        deadline = t0 + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    f"{tail_text(self.log_path)}")
            if self.port is None:
                try:
                    text = port_file.read_text().strip()
                except OSError:
                    text = ""
                if text:
                    self.port = int(text)
                    self.url = f"http://{self.host}:{self.port}"
            if self.port is not None:
                try:
                    status, _ = http_request(self.host, self.port, "GET",
                                             "/readyz", timeout=2.0)
                    if status == 200:
                        return time.perf_counter() - t0
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"server not ready after {timeout}s")

    def peak_rss_kb(self) -> int:
        """VmHWM of the server process (0 when unreadable)."""
        try:
            text = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return 0
        m = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.M)
        return int(m.group(1)) if m else 0

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL; always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


def http_request(host: str, port: int, method: str, path: str,
                 body: bytes | None = None,
                 timeout: float = 60.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def parse_prometheus(text: str) -> dict[str, float]:
    """``name{labels}`` -> value for every sample line."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            out[key] = float(value)
        except ValueError:
            continue
    return out


def prom_sum(samples: dict[str, float], name: str) -> float:
    """Sum of every sample of metric ``name`` across its label sets."""
    return sum(v for k, v in samples.items()
               if k == name or k.startswith(name + "{"))


# -- verification -------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def biclique_hash(left, right) -> int:
    canon = (",".join(map(str, sorted(left))) + "|"
             + ",".join(map(str, sorted(right))))
    return int.from_bytes(
        hashlib.blake2b(canon.encode(), digest_size=8).digest(), "big")


def digest_pairs(pairs, drop_one: bool = False) -> dict:
    """Order-independent digest of an iterable of ``(left, right)``: the
    count plus the sum of per-biclique hashes modulo 2**64.  ``drop_one``
    skips the first pair, which is how the smoke run plants a wrong
    answer."""
    count = total = 0
    for left, right in pairs:
        if drop_one:
            drop_one = False
            continue
        count += 1
        total = (total + biclique_hash(left, right)) & _MASK64
    return {"count": count, "digest": f"{total:016x}"}


def read_output_file(path: Path):
    """Yield ``(left, right)`` from a ``u1,u2<TAB>v1,v2`` result file."""
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            left, _, right = line.partition("\t")
            yield ([int(x) for x in left.split(",") if x],
                   [int(x) for x in right.split(",") if x])


def mismatch(got: dict, ref: dict) -> str | None:
    if got["count"] != ref["count"]:
        return f"count {got['count']} != reference {ref['count']}"
    if got["digest"] != ref["digest"]:
        return f"digest {got['digest']} != reference {ref['digest']}"
    return None


def metric(value: float, unit: str) -> dict:
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value}")
    return {"value": value, "unit": unit}
