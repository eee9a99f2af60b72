"""The serving leg: ``repro serve`` in its own process, driven by a closed loop.

Each client owns one keep-alive connection and sends its next request only
after the previous response has been read (a closed loop).  The requests
cycle over the ``/runs`` pages, ``/campaigns/<id>``, ``/table1`` and
``/healthz``; every second cycle sends each URL with the ETag the client last
saw for it, so about half the traffic is conditional.

Every response is checked against the in-process ``respond`` of a server
object over the same store file: a 200 must carry the identical body and
ETag, a 304 must answer a conditional request whose ETag is current.  Any
other status, a transport error or a differing body is a failed request.
"""

from __future__ import annotations

import http.client
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple
from urllib.parse import parse_qs, urlparse

from repro.store import RunStore
from repro.store.server import StoreHTTPServer

#: Size of one ``/runs`` page in the request mix.
RUNS_PAGE = 25

_URL_LINE = re.compile(r" on http://([0-9.]+):([0-9]+)\s*$")


def request_mix(store: RunStore, campaign_id: str) -> List[str]:
    """The URLs one pass over the mix requests, in order."""
    total = store.run_count()
    pages = [f"/runs?limit={RUNS_PAGE}&offset={offset}" for offset in range(0, max(total, 1), RUNS_PAGE)]
    return [*pages, f"/campaigns/{campaign_id}", f"/table1?campaign={campaign_id}", "/healthz"]


def endpoint_of(url: str) -> str:
    """The endpoint label a URL is reported under (``runs``, ``campaigns``, ...)."""
    return urlparse(url).path.split("/")[1]


def respond_in_process(server: StoreHTTPServer, url: str) -> Tuple[int, bytes, str]:
    """``(status, body, etag)`` for ``url``, parsed the way the handler parses it."""
    parsed = urlparse(url)
    query = {name: values[-1] for name, values in parse_qs(parsed.query).items()}
    status, body, etag, _ = server.respond(parsed.path, query)
    return status, body, etag


def expected_responses(store_path: Path, urls: Sequence[str]) -> Dict[str, Tuple[bytes, str]]:
    """The body and ETag every URL must be answered with (in-process ``respond``)."""
    with RunStore(store_path) as store:
        server = StoreHTTPServer(store, ("127.0.0.1", 0))
        try:
            expected = {}
            for url in urls:
                status, body, etag = respond_in_process(server, url)
                if status != 200:
                    raise RuntimeError(f"in-process respond answered {status} for {url}")
                expected[url] = (body, etag)
        finally:
            server.server_close()
    return expected


class ServeProcess:
    """``python -m repro serve`` on an ephemeral port, stopped by :meth:`stop`."""

    def __init__(self, store_path: Path, root: Path, log_path: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self._log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store_path), "--port", "0", "--quiet"],
            cwd=str(root),
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self._drain = None
        try:
            line = self.process.stdout.readline()
            match = _URL_LINE.search(line)
            if match is None:
                raise RuntimeError(f"repro serve did not report its address (got {line!r})")
            self.host, self.port = match.group(1), int(match.group(2))
            # The endpoint listing follows the address line; read it so the
            # pipe never fills, then wait until the server answers.
            self._drain = threading.Thread(target=self.process.stdout.read, daemon=True)
            self._drain.start()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, timeout_s: float = 30.0) -> None:
        deadline = time.perf_counter() + timeout_s
        while True:
            connection = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.02)
            finally:
                connection.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        # The drain thread reads to end of file, which the exit delivers.
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.process.stdout.close()
        self._log.close()


def warm_up(host: str, port: int, urls: Sequence[str]) -> None:
    """Request every URL once, unmeasured, so the server's response memo is
    filled before timing (the cold cost is the per-layer ``respond`` figure)."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        for url in urls:
            connection.request("GET", url)
            connection.getresponse().read()
    finally:
        connection.close()


class ClientState:
    """What one client carries from one serving window to the next."""

    def __init__(self) -> None:
        #: URL -> last ETag seen.
        self.etags: Dict[str, str] = {}
        #: Requests sent so far (position in the request cycle).
        self.sent = 0


class LoopResult:
    """What one closed-loop window measured."""

    def __init__(self) -> None:
        #: Latency of every full (200) response.
        self.full_s: List[float] = []
        #: Latency of every revalidation (304) response.
        self.not_modified_s: List[float] = []
        self.wall_s = 0.0
        #: Wrong responses plus requests that got none (``lost``).
        self.failed = 0
        self.lost = 0

    @property
    def responses(self) -> int:
        return len(self.full_s) + len(self.not_modified_s)

    @property
    def attempted(self) -> int:
        return self.responses + self.lost


def closed_loop(
    host: str,
    port: int,
    urls: Sequence[str],
    expected: Dict[str, Tuple[bytes, str]],
    seconds: float,
    clients: Sequence[ClientState],
) -> LoopResult:
    """Drive one closed-loop connection per client for ``seconds``.

    Each :class:`ClientState` is updated in place, so a later window continues
    the same request cycle and conditional-request mix.
    """
    result = LoopResult()
    lock = threading.Lock()
    end = time.perf_counter() + seconds

    def client(offset: int, state: ClientState) -> None:
        full: List[float] = []
        not_modified: List[float] = []
        failed = lost = 0
        etags = state.etags
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            while time.perf_counter() < end:
                position = offset + state.sent
                url = urls[position % len(urls)]
                conditional = (position // len(urls)) % 2 == 1 and url in etags
                headers = {"If-None-Match": etags[url]} if conditional else {}
                state.sent += 1
                started = time.perf_counter()
                try:
                    connection.request("GET", url, headers=headers)
                    response = connection.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException):
                    lost += 1
                    connection.close()
                    connection = http.client.HTTPConnection(host, port, timeout=10)
                    continue
                latency = time.perf_counter() - started
                etag = response.getheader("ETag")
                want_body, want_etag = expected[url]
                if response.status == 304:
                    not_modified.append(latency)
                    ok = conditional and etag == want_etag
                else:
                    full.append(latency)
                    ok = response.status == 200 and body == want_body and etag == want_etag
                if not ok:
                    failed += 1
                if etag:
                    etags[url] = etag
        finally:
            connection.close()
        with lock:
            result.full_s.extend(full)
            result.not_modified_s.extend(not_modified)
            result.failed += failed + lost
            result.lost += lost

    threads = [threading.Thread(target=client, args=(index, state)) for index, state in enumerate(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 60)
    result.wall_s = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a serve client did not finish")
    return result
