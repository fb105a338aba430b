"""The daemon front-end: dispatch, registry LRU, and socket E2E."""

import asyncio
import json
import os
import socket
import threading

import pytest

from repro.daemon import (
    DaemonClient,
    DaemonError,
    DaemonServer,
    ProjectRegistry,
)
from repro.daemon.protocol import request_record


def dispatch(server, record) -> dict:
    line = (json.dumps(record) + "\n").encode("utf-8")
    return asyncio.run(server.dispatch_line(line))


@pytest.fixture()
def server(tmp_path):
    # Never started: dispatch_line works without a listening socket.
    return DaemonServer(socket_path=str(tmp_path / "repro.sock"))


class TestDispatch:
    def test_define_then_query(self, server):
        response = dispatch(
            server,
            request_record(
                1, "define", project="p", name="id", source="fn[l] x => x"
            ),
        )
        assert response["status"] == "ok"
        assert response["id"] == 1
        assert response["result"]["delta"] is True
        response = dispatch(
            server, request_record(2, "query", project="p", name="id")
        )
        assert response["result"] == {"name": "id", "labels": ["l"]}

    def test_not_json_is_an_error_response(self, server):
        response = asyncio.run(server.dispatch_line(b"{nope\n"))
        assert response["status"] == "error"
        assert "not JSON" in response["error"]
        assert response["id"] is None

    def test_invalid_record_echoes_the_id(self, server):
        record = request_record(9, "define", project="p", name="f")
        response = dispatch(server, record)  # missing source
        assert response["status"] == "error"
        assert response["id"] == 9
        assert "source" in response["error"]

    def test_response_record_is_rejected(self, server):
        from repro.daemon.protocol import ok_response

        response = dispatch(server, ok_response(1, "status", {}))
        assert response["status"] == "error"
        assert "request" in response["error"]

    def test_domain_errors_become_error_responses(self, server):
        response = dispatch(
            server, request_record(4, "undefine", project="p", name="ghost")
        )
        assert response["status"] == "error"
        assert "ghost" in response["error"]

    def test_parse_errors_do_not_poison_the_project(self, server):
        bad = dispatch(
            server,
            request_record(1, "define", project="p", name="f", source="(("),
        )
        assert bad["status"] == "error"
        good = dispatch(
            server,
            request_record(
                2, "define", project="p", name="f", source="fn x => x"
            ),
        )
        assert good["status"] == "ok"

    def test_status_counts_requests_and_deltas(self, server):
        dispatch(
            server,
            request_record(
                1, "define", project="p", name="f", source="fn x => x"
            ),
        )
        response = dispatch(server, request_record(2, "status"))
        counters = response["result"]["metrics"]["counters"]
        assert counters["daemon.requests"] == 2
        assert counters["daemon.deltas"] == 1
        warm = response["result"]["projects"]["warm"]
        assert [p["project"] for p in warm] == ["p"]

    def test_shutdown_sets_the_event(self, server):
        response = dispatch(server, request_record(1, "shutdown"))
        assert response["result"] == {"stopping": True}
        assert server._shutdown.is_set()


class TestRegistry:
    def test_lru_eviction_and_rehydration(self):
        registry = ProjectRegistry(capacity=2)
        registry.get("a").analysis.define("x", "fn[xa] v => v")
        registry.get("b")
        registry.get("c")  # evicts a
        status = registry.status()
        assert [p["project"] for p in status["warm"]] == ["b", "c"]
        assert status["cold"] == ["a"]
        # Touching a again rehydrates its definitions by replay.
        state = registry.get("a")
        assert state.analysis.query_name("x")["labels"] == ["xa"]
        counters = registry.registry.snapshot()["counters"]
        assert counters["daemon.projects.evictions"] >= 2
        assert counters["daemon.projects.rehydrations"] == 1

    def test_locked_projects_are_not_evicted(self):
        registry = ProjectRegistry(capacity=1)
        first = registry.get("a")

        async def hold():
            async with first.lock:
                registry.get("b")

        asyncio.run(hold())
        # `a` was locked when `b` arrived: capacity overshoots
        # rather than snapshotting mid-request.
        assert set(p["project"] for p in registry.status()["warm"]) == {
            "a",
            "b",
        }

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            ProjectRegistry(capacity=0)


class TestSocketEndToEnd:
    @pytest.fixture()
    def endpoint(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        loop = asyncio.new_event_loop()
        box = {}

        def run():
            asyncio.set_event_loop(loop)
            box["server"] = DaemonServer(socket_path=path)
            loop.run_until_complete(box["server"].serve_forever())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        # ``bind`` creates the socket file before the server listens,
        # so wait for a connection to succeed, not for the file.
        for _ in range(200):
            with socket.socket(socket.AF_UNIX) as probe:
                try:
                    probe.connect(path)
                    break
                except OSError:
                    pass
            threading.Event().wait(0.01)
        yield path
        if not box["server"]._shutdown.is_set():
            with DaemonClient(socket_path=path) as client:
                client.shutdown()
        thread.join(timeout=10)

    def test_full_session(self, endpoint):
        with DaemonClient(socket_path=endpoint) as client:
            report = client.define("demo", "id", "fn x => x")
            assert report["delta"] is True
            client.define("demo", "use", "id (fn[l1] y => y)")
            assert client.query_name("demo", "use")["labels"] == ["l1"]
            lint = client.lint("demo")
            assert "findings" in lint and "counts" in lint
            assert client.sanitize("demo")["ok"] is True
            envelope = client.analyze("demo")["envelope"]
            assert envelope["schema"] == "repro.result/1"
            source = client.source("demo")["source"]
            assert "let id =" in source
            status = client.status()
            assert status["pid"] == os.getpid()

    def test_error_responses_raise_daemon_error(self, endpoint):
        with DaemonClient(socket_path=endpoint) as client:
            with pytest.raises(DaemonError, match="ghost"):
                client.undefine("demo", "ghost")
            # The connection survives an error response.
            assert client.define("demo", "f", "fn x => x")["version"] == 1

    def test_concurrent_clients_interleave(self, endpoint):
        def worker(project, results, index):
            with DaemonClient(socket_path=endpoint) as client:
                client.define(project, "f", "fn x => x")
                results[index] = client.query_name(project, "f")

        results = [None, None]
        threads = [
            threading.Thread(target=worker, args=(f"p{i}", results, i))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        # `fn x => x` gets the auto label l0 in each project.
        assert all(r == {"name": "f", "labels": ["l0"]} for r in results)

    def test_shutdown_removes_the_socket(self, endpoint):
        with DaemonClient(socket_path=endpoint) as client:
            assert client.shutdown() == {"stopping": True}
        for _ in range(200):
            if not os.path.exists(endpoint):
                break
            threading.Event().wait(0.01)
        assert not os.path.exists(endpoint)
