"""Shared fixtures: one in-process server + a tiny urllib client."""

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

import repro
from repro.serve import Application, BackgroundServer, Dispatcher


class Client:
    """Blocking JSON client against one served application."""

    def __init__(self, app, server):
        self.app = app
        self.server = server
        self.url = server.url

    def get(self, path, timeout=30, headers=None):
        request = urllib.request.Request(
            self.url + path, headers=headers or {}, method="GET"
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as r:
                return r.status, r.read(), dict(r.headers)
        except urllib.error.HTTPError as error:
            return error.code, error.read(), dict(error.headers)

    def get_json(self, path, timeout=30, headers=None):
        status, body, _ = self.get(path, timeout=timeout, headers=headers)
        return status, json.loads(body)

    def post(self, path, document, timeout=60, raw=None, headers=None):
        data = raw if raw is not None else json.dumps(document).encode()
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers or {}, method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as r:
                return r.status, json.loads(r.read()), dict(r.headers)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(error.headers)


@pytest.fixture
def served():
    """An Application served in-process on an ephemeral port."""
    app = Application()
    server = BackgroundServer(app.dispatch).start()
    try:
        yield Client(app, server)
    finally:
        server.close()
        app.close()


@pytest.fixture
def served_tiny_queue():
    """Same, but with a single-slot dispatch queue (backpressure tests)."""
    app = Application(dispatcher=Dispatcher(queue_limit=1))
    server = BackgroundServer(app.dispatch).start()
    try:
        yield Client(app, server)
    finally:
        server.close()
        app.close()


def serve_session(access_log, paths):
    """Run ``repro serve --access-log`` as a subprocess for a few GETs.

    Starts the CLI on an ephemeral port, requests each of ``paths``,
    then stops it with SIGINT and checks it exits 0.
    """
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--access-log", str(access_log),
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        url = None
        for _ in range(5):
            match = re.search(r"\[serve: (http://[^\]]+)\]", proc.stderr.readline())
            if match:
                url = match.group(1)
                break
        assert url, "repro serve never announced its URL"
        for path in paths:
            with urllib.request.urlopen(url + path, timeout=30) as response:
                response.read()
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
