"""The ``repro serve`` child process and the closed-loop HTTP clients."""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

_URL_LINE = re.compile(r"^serving .* on (http://\S+):")


def program_env(src: Path) -> Dict[str, str]:
    """This process's environment with the program's sources importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    return env


class ServerProcess:
    """``python -m repro serve`` over one registry, in its own session so
    its worker fleet can be stopped with it."""

    def __init__(self, src: Path, registry: Path, workers: int,
                 log_path: Path, start_timeout_s: float = 120.0):
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--registry", str(registry), "--port", "0",
             "--workers", str(workers)],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=program_env(src),
            start_new_session=True)
        try:
            self.url = self._read_url(start_timeout_s)
        except BaseException:
            self.stop()
            raise

    def _read_url(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"repro serve exited with {self.proc.wait()} before "
                        f"listening; see {self._log.name}")
                match = _URL_LINE.match(line)
                if match:
                    return match.group(1)
        raise RuntimeError(f"repro serve did not report its URL within "
                           f"{timeout_s:.0f} s; see {self._log.name}")

    def stop(self) -> None:
        """Ctrl-C the server (it drains and closes its fleet), then make
        sure nothing of its process group is left."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def request_body_bytes(model: str, image: np.ndarray) -> int:
    """Size of the JSON body ``predict_remote`` sends for ``image``."""
    return len(json.dumps({"model": model,
                           "inputs": np.asarray(image).tolist()}).encode())


def scrape_worker_counts(url: str) -> Dict[str, float]:
    """Images routed to each fleet worker, from ``GET /metrics``."""
    from repro.obs.exposition import parse_prometheus

    with urllib.request.urlopen(url.rstrip("/") + "/metrics",
                                timeout=30) as response:
        text = response.read().decode()
    family = parse_prometheus(text).get("repro_pool_submitted_total", {})
    counts: Dict[str, float] = {}
    for _, labels, value in family.get("samples", []):
        worker = labels.get("worker", "0")
        counts[worker] = counts.get(worker, 0.0) + float(value)
    return counts


@dataclass
class Reply:
    client: int
    index: int            # position in the request pool
    start: float
    end: float
    warmup: bool
    response: Optional[Dict[str, Any]] = None
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass
class ClosedLoop:
    """``clients`` threads, each sending its next request only after the
    reply to the previous one (a new connection per request, as
    ``predict_remote`` makes)."""

    url: str
    model: str
    images: np.ndarray          # the request pool, one entry per request
    clients: int
    warmup: int                 # untimed requests per client
    requests: int               # timed requests per client (>= 1)
    start: int = 0              # requests each client already sent
    replies: List[Reply] = field(default_factory=list)
    wall_s: float = 0.0

    def order(self, client: int) -> List[int]:
        n = len(self.images)
        offset = client * n // self.clients
        return [(offset + self.start + k) % n
                for k in range(self.warmup + self.requests)]

    def run(self, tracer, phase_span: Optional[int]) -> None:
        from repro.serve import ServerError, predict_remote

        barrier = threading.Barrier(self.clients + 1)
        lock = threading.Lock()

        def client(cid: int) -> None:
            order = self.order(cid)
            for k, index in enumerate(order):
                if k == self.warmup:
                    barrier.wait(timeout=600)
                reply = Reply(cid, index, 0.0, 0.0, k < self.warmup)
                with tracer.span("serve.request", parent=phase_span,
                                 request_id=f"c{cid}-{k}", client=cid,
                                 image=index, warmup=reply.warmup):
                    reply.start = time.perf_counter()
                    try:
                        reply.response = predict_remote(
                            self.url, self.model, self.images[index],
                            timeout=120)
                    except (ServerError, OSError,
                            http.client.HTTPException) as exc:
                        reply.error = f"{type(exc).__name__}: {exc}"
                    reply.end = time.perf_counter()
                with lock:
                    self.replies.append(reply)

        threads = [threading.Thread(target=client, args=(c,),
                                    name=f"bench-client-{c}")
                   for c in range(self.clients)]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=600)
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        self.wall_s = time.perf_counter() - start
