"""`repro serve` integration: concurrency, fairness, admission,
warm-state reuse and crash recovery through real sockets."""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import api
from repro.api import facade
from repro.api.protocol import parse_response_line, request_line
from repro.server import GridStore, ReproServer, ServerConfig, grid_key


def run_async(coro):
    return asyncio.run(coro)


async def start_server(**overrides):
    config = ServerConfig(**{"port": 0, "max_inflight": 2, **overrides})
    server = ReproServer(config)
    host, port = await server.start()
    return server, host, port


def sim_request(scheme="alloy", mix="Q1", accesses=900, **kw):
    return facade.sim_request(
        scheme, mix, accesses_per_core=accesses, **kw
    )


class TestConcurrentClients:
    def test_three_clients_no_interleaving_corruption(self):
        """3 clients x 2 concurrent sims each: every client gets its own
        correct, complete results back over one shared server."""

        async def scenario():
            server, host, port = await start_server(max_inflight=3)
            try:
                specs = [("alloy", "Q1"), ("bimodal", "Q2"), ("fixed512", "Q3")]
                clients = [
                    await api.AsyncServiceClient.connect(host, port)
                    for _ in specs
                ]
                try:
                    tasks = []
                    for client, (scheme, mix) in zip(clients, specs):
                        tasks.append(client.run_sim(sim_request(scheme, mix)))
                        tasks.append(client.run_sim(sim_request(scheme, mix, seed=2)))
                    results = await asyncio.gather(*tasks)
                finally:
                    for client in clients:
                        await client.close()
            finally:
                await server.aclose()
            return specs, results

        specs, results = run_async(scenario())
        for index, result in enumerate(results):
            scheme, mix = specs[index // 2]
            assert result.scheme == scheme, index
            assert result.mix == mix, index
            assert result.seed == (1 if index % 2 == 0 else 2)
            assert result.records > 0
        # Same request locally and via the server: identical stats.
        local = facade.run_sim(sim_request("alloy", "Q1"))
        assert results[0].stats == local.stats

    def test_fair_share_across_clients(self):
        """With one execution slot, a client queueing many jobs cannot
        starve a later client's single job (round-robin, not FIFO)."""

        async def scenario():
            server, host, port = await start_server(max_inflight=1)
            completions = []
            try:
                greedy = await api.AsyncServiceClient.connect(host, port)
                modest = await api.AsyncServiceClient.connect(host, port)
                try:
                    async def tracked(client, label, **kw):
                        await client.run_sim(sim_request(**kw))
                        completions.append(label)

                    greedy_tasks = [
                        asyncio.create_task(
                            tracked(greedy, f"greedy-{i}", seed=i + 1,
                                    accesses=12_000)
                        )
                        for i in range(3)
                    ]
                    await asyncio.sleep(0.05)  # greedy queue forms first
                    modest_task = asyncio.create_task(
                        tracked(modest, "modest", mix="Q2")
                    )
                    await asyncio.gather(*greedy_tasks, modest_task)
                finally:
                    await greedy.close()
                    await modest.close()
            finally:
                await server.aclose()
            return completions

        completions = run_async(scenario())
        assert len(completions) == 4
        # Round-robin must schedule the modest client's single job ahead
        # of the greedy client's last one; FIFO would finish it dead last.
        assert completions[-1] != "modest", completions
        assert completions.index("modest") < completions.index("greedy-2")


class TestAdmissionControl:
    def test_per_client_queue_bound_rejects_with_typed_error(self):
        async def scenario():
            server, _, _ = await start_server(
                max_inflight=1, max_queued_per_client=2
            )
            try:
                from repro.server.daemon import _Job

                job = lambda n: _Job(  # noqa: E731
                    conn=None, request_id=n, verb="sim",
                    request=sim_request(),
                )
                assert server._admit(job("a"), client="c1")
                assert server._admit(job("b"), client="c1")
                assert not server._admit(job("c"), client="c1")
                assert server._admit(job("d"), client="c2")  # other client fine
            finally:
                await server.aclose()

        run_async(scenario())

    def test_overloaded_error_reaches_the_client(self):
        async def scenario():
            server, host, port = await start_server(
                max_inflight=1, max_queued_per_client=1
            )
            # Pause the scheduler so submissions stay queued and the
            # second one deterministically overflows the client bound.
            server._scheduler_task.cancel()
            try:
                client = await api.AsyncServiceClient.connect(host, port)
                try:
                    first = asyncio.create_task(client.run_sim(sim_request()))
                    await asyncio.sleep(0.05)
                    with pytest.raises(api.ServiceError) as excinfo:
                        await asyncio.wait_for(
                            client.run_sim(sim_request(seed=2)), timeout=5
                        )
                    assert excinfo.value.code == "overloaded"
                    first.cancel()
                    await asyncio.gather(first, return_exceptions=True)
                finally:
                    await client.close()
            finally:
                await server.aclose()

        run_async(scenario())


class TestProtocolErrors:
    def test_schema_skew_and_garbage_get_typed_errors(self):
        async def scenario():
            server, host, port = await start_server()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    wire = api.to_wire(sim_request())
                    wire["schema"] = 999
                    writer.write(
                        (json.dumps({"id": "r1", "verb": "sim", "request": wire})
                         + "\n").encode()
                    )
                    writer.write(b"this is not json\n")
                    writer.write(b'{"id": "r3", "verb": "explode"}\n')
                    await writer.drain()
                    lines = [await reader.readline() for _ in range(3)]
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.aclose()
            return lines

        lines = run_async(scenario())
        by_id = {}
        for line in lines:
            rid, kind, payload = parse_response_line(line)
            assert kind == "error"
            by_id[rid] = payload
        assert by_id["r1"].code == "bad-schema"
        assert "schema 999" in by_id["r1"].message
        assert by_id[""].code == "bad-schema"  # unattributable garbage
        assert "unknown verb" in by_id["r3"].message

    def test_bad_request_is_rejected_before_scheduling(self):
        async def scenario():
            server, host, port = await start_server()
            try:
                client = await api.AsyncServiceClient.connect(host, port)
                try:
                    with pytest.raises(api.ServiceError) as excinfo:
                        await client.run_sim(
                            api.SimRequest(scheme="nope", mix="Q1")
                        )
                    return excinfo.value, await client.stats()
                finally:
                    await client.close()
            finally:
                await server.aclose()

        error, stats = run_async(scenario())
        assert error.code == "bad-request"
        assert "unknown scheme" in str(error)
        assert stats.server["sims_done"] == 0  # never reached the pool


class TestWarmServer:
    def test_second_identical_sim_hits_warm_trace_cache(self):
        async def scenario():
            server, host, port = await start_server()
            try:
                client = await api.AsyncServiceClient.connect(host, port)
                try:
                    request = sim_request(accesses=1200)
                    first = await client.run_sim(request)
                    hits_before = (await client.stats()).trace_cache["memory_hits"]
                    second = await client.run_sim(request)
                    hits_after = (await client.stats()).trace_cache["memory_hits"]
                finally:
                    await client.close()
            finally:
                await server.aclose()
            return first, second, hits_before, hits_after

        first, second, hits_before, hits_after = run_async(scenario())
        assert second.stats == first.stats  # warm path, identical result
        assert hits_after > hits_before, "warm request missed the trace cache"

    def test_grid_dedupe_joins_identical_inflight_requests(self):
        async def scenario():
            server, host, port = await start_server()
            try:
                client = await api.AsyncServiceClient.connect(host, port)
                try:
                    request = facade.grid_request(
                        "fig10", mixes=("Q1",), accesses_per_core=700
                    )
                    first, second = await asyncio.gather(
                        client.run_grid(request), client.run_grid(request)
                    )
                    stats = await client.stats()
                finally:
                    await client.close()
            finally:
                await server.aclose()
            return first, second, stats

        first, second, stats = run_async(scenario())
        assert first.rows == second.rows
        assert stats.server["grids_done"] == 1
        assert stats.server["grids_joined"] == 1

    def test_cli_and_server_grid_results_are_byte_identical(self):
        request = facade.grid_request(
            "fig10", mixes=("Q1", "Q2"), accesses_per_core=700
        )
        local = facade.run_grid(request)

        async def scenario():
            server, host, port = await start_server()
            try:
                client = await api.AsyncServiceClient.connect(host, port)
                try:
                    return await client.run_grid(request)
                finally:
                    await client.close()
            finally:
                await server.aclose()

        remote = run_async(scenario())
        # The facade is the single engine: rows identical down to the
        # wire encoding (tuples revived, floats exact).
        assert remote.rows == local.rows
        assert (
            json.dumps([dict(r) for r in remote.rows], sort_keys=True)
            == json.dumps([dict(r) for r in local.rows], sort_keys=True)
        )


class TestCrashRecovery:
    def test_grid_store_scan_finds_unfinished_requests(self, tmp_path):
        store = GridStore(str(tmp_path))
        request = facade.grid_request("fig10", mixes=("Q1",))
        key = grid_key(request)
        store.journal(key, request)
        assert store.incomplete() == [(key, request)]
        store.complete(key, facade.run_grid(request))
        assert store.incomplete() == []

    def test_killed_server_resumes_grid_from_checkpoint(self, tmp_path):
        """SIGKILL mid-grid; a restarted server finishes from the
        checkpoint and a resubmitted identical grid is byte-identical."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(api.__file__), "..", "..")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        state_dir = str(tmp_path / "state")
        request = facade.grid_request(
            "fig10", mixes=("Q1", "Q2"), accesses_per_core=12_000
        )
        key = grid_key(request)
        ckpt = os.path.join(state_dir, f"{key}.ckpt.jsonl")

        def boot():
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--state-dir", state_dir],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True,
            )
            banner = proc.stdout.readline()
            port = int(banner.rsplit(":", 1)[1].split()[0].rstrip(")"))
            return proc, port

        proc, port = boot()
        try:
            with api.ServiceClient("127.0.0.1", port, timeout=60) as client:
                client.ping()
                # Fire the grid and kill the server once >= 1 cell is
                # durably checkpointed but before the grid finishes.
                client._sock.sendall(request_line("kill-run", "grid", request))
                deadline = time.time() + 60
                while time.time() < deadline:
                    if os.path.exists(ckpt) and os.path.getsize(ckpt) > 0:
                        break
                    time.sleep(0.02)
                else:
                    pytest.fail("checkpoint never appeared")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()

        # The journal records the request; the result file does not exist.
        store = GridStore(state_dir)
        assert [k for k, _ in store.incomplete()] == [key]

        proc, port = boot()
        try:
            with api.ServiceClient("127.0.0.1", port, timeout=300) as client:
                result = client.run_grid(request)
            assert result.status == "ok"
            assert result.resumed_cells > 0, "nothing came from the checkpoint"
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()

        local = facade.run_grid(request)
        assert result.rows == local.rows, "recovered grid diverged"


def _grid_line_answers(settings: dict) -> list:
    """Send, on one connection, a raw grid line per ``settings`` entry:
    a valid request's wire form with that entry's fields laid over it.
    Returns the parsed answers."""

    async def scenario():
        server, host, port = await start_server()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for rid, setting in settings.items():
                    wire = api.to_wire(api.grid_request(
                        "fig10", mixes=("Q1",), accesses_per_core=300))
                    wire.update(setting)
                    writer.write((json.dumps(
                        {"id": rid, "verb": "grid", "request": wire}) + "\n").encode())
                await writer.drain()
                lines = [await reader.readline() for _ in settings]
            finally:
                writer.close()
                await writer.wait_closed()
        finally:
            await server.aclose()
        return lines

    return [parse_response_line(line) for line in run_async(scenario())]


class TestBadSettings:
    def test_bad_setting_is_a_bad_request_answer(self):
        """Refused before any cell runs, and answered, not dropped."""
        settings = {"r1": {"seed": -1}, "r2": {"scale": 3}, "r3": {"seed": "1"}}
        answers = _grid_line_answers(settings)
        assert sorted(rid for rid, _, _ in answers) == sorted(settings)
        for rid, kind, payload in answers:
            assert kind == "error", rid
            assert payload.code == "bad-request", rid


class TestMistypedFields:
    def test_mistyped_field_is_a_bad_request_answer(self):
        """A field of the wrong JSON type is answered, not dropped with a
        traceback on the server."""
        settings = {
            "r1": {"jobs": "2"},
            "r2": {"mixes": "Q1"},
            "r3": {"cores": "4"},
            "r4": {"experiment": ["fig10"]},
        }
        answers = _grid_line_answers(settings)
        assert sorted(rid for rid, _, _ in answers) == sorted(settings)
        for rid, kind, payload in answers:
            assert kind == "error", rid
            assert payload.code == "bad-request", rid
            assert "must be" in payload.message, rid
