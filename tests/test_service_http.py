"""HTTP API and client CLI of the sweep service.

One in-process server (port 0) per test class; requests go through the
real socket path via :class:`ServiceClient`, raw ``urllib`` for the
malformed-payload cases, and ``repro.service.__main__`` for the CLI.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import InProcessService, ServiceClient, ServiceError
from repro.service import client as client_module
from repro.service.__main__ import main as service_main
from repro.service.jobs import COMPLETED

FIGURE_SPEC = {
    "figure": "figure6",
    "settings": {
        "instructions": 200,
        "warmup_instructions": 50,
        "benchmarks": ["gcc"],
    },
}


@pytest.fixture
def service(tmp_path):
    with InProcessService(cache_dir=str(tmp_path), jobs=1, job_concurrency=2) as svc:
        yield svc.url, svc.app


def raw_request(url: str, method: str = "GET", body: bytes = None,
                content_type: str = "application/json"):
    request = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": content_type} if body else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestHttpApi:
    def test_healthz_and_metrics(self, service):
        url, _ = service
        client = ServiceClient(url)
        health = client.health()
        from repro import __version__

        assert health["status"] == "ok"
        assert health["version"] == __version__
        metrics = client.metrics()
        assert metrics["version"] == __version__
        assert metrics["queue"]["depth"] == 0
        assert set(metrics["jobs"]) >= {"queued", "running", "completed",
                                        "failed", "total"}
        assert "hit_rate" in metrics["result_cache"]
        assert "hit_rate" in metrics["trace_cache"]
        assert "pool_resets" in metrics["engine"]

    def test_submit_watch_result_round_trip(self, service):
        url, _ = service
        client = ServiceClient(url)
        job = client.submit(FIGURE_SPEC)
        assert job["state"] == "queued"
        final = client.watch(job["id"], interval=0.05, timeout=120)
        assert final["state"] == COMPLETED
        result = client.result(job["id"])
        assert result["result"]["kind"] == "figures"
        csv_text = client.result(job["id"], fmt="csv")
        assert csv_text.startswith("experiment,metric,value")
        listing = client.jobs()
        assert any(entry["id"] == job["id"] for entry in listing["jobs"])

    def test_warm_resubmission_executes_nothing(self, service):
        url, _ = service
        client = ServiceClient(url)
        first = client.submit(FIGURE_SPEC)
        client.watch(first["id"], interval=0.05, timeout=120)
        executed_before = client.metrics()["points"]["executed"]
        second = client.submit(FIGURE_SPEC)
        final = client.watch(second["id"], interval=0.05, timeout=120)
        assert final["counters"]["executed"] == 0
        metrics = client.metrics()
        assert metrics["points"]["executed"] == executed_before
        assert metrics["points"]["completed"] > executed_before

    def test_unknown_job_is_structured_404(self, service):
        url, _ = service
        status, payload = raw_request(f"{url}/jobs/doesnotexist0")
        assert status == 404
        assert payload["error"]["code"] == "job_not_found"
        status, payload = raw_request(f"{url}/jobs/doesnotexist0/result")
        assert status == 404
        assert payload["error"]["code"] == "job_not_found"

    def test_malformed_json_is_structured_400(self, service):
        url, _ = service
        status, payload = raw_request(f"{url}/jobs", method="POST",
                                      body=b"{not json at all")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "JSON" in payload["error"]["message"]

    def test_unknown_figure_is_structured_422(self, service):
        url, _ = service
        status, payload = raw_request(
            f"{url}/jobs", method="POST",
            body=json.dumps({"figure": "figure99"}).encode("utf-8"),
        )
        assert status == 422
        assert payload["error"]["code"] == "unknown_figure"

    def test_unknown_route_is_structured_404(self, service):
        url, _ = service
        status, payload = raw_request(f"{url}/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        status, payload = raw_request(f"{url}/healthz", method="POST", body=b"{}")
        assert status == 404

    def test_result_before_completion_is_409(self, service):
        url, app = service
        # Admit without executing: stop the executors first.
        app.stop(drain=True)
        client = ServiceClient(url)
        job = client.submit(FIGURE_SPEC)
        with pytest.raises(ServiceError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409
        assert excinfo.value.code == "job_not_completed"


class TestClientErrors:
    def test_unreachable_service(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=2)
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.code == "unreachable"
        assert excinfo.value.status is None


class TestClientCli:
    def test_submit_watch_status_result(self, service, capsys):
        url, _ = service
        code = service_main([
            "submit", "--figure", "figure6", "--instructions", "200",
            "--warmup-instructions", "50", "--benchmarks", "gcc",
            "--url", url, "--wait",
        ])
        assert code == 0
        captured = capsys.readouterr()
        job_id = captured.out.strip().splitlines()[-1]
        assert len(job_id) == 12

        assert service_main(["status", job_id, "--url", url]) == 0
        status_payload = json.loads(capsys.readouterr().out)
        assert status_payload["state"] == COMPLETED

        assert service_main(["result", job_id, "--format", "csv",
                             "--url", url]) == 0
        assert capsys.readouterr().out.startswith("experiment,metric,value")

        assert service_main(["metrics", "--url", url]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["jobs"]["completed"] >= 1

    def test_cli_surfaces_server_error_verbatim(self, service, capsys):
        url, _ = service
        code = service_main(["submit", "--figure", "figure99", "--url", url])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: [unknown_figure]" in captured.err
        assert "figure99" in captured.err

    def test_cli_surfaces_404_verbatim(self, service, capsys):
        url, _ = service
        code = service_main(["status", "doesnotexist0", "--url", url])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: [job_not_found]" in captured.err
        assert "doesnotexist0" in captured.err

    def test_cli_unreachable_exit_code(self, capsys):
        code = service_main(["health", "--url", "http://127.0.0.1:1"])
        assert code == 2
        assert "error: [unreachable]" in capsys.readouterr().err


class TestWatchBackoff:
    """``ServiceClient.watch`` must not busy-poll an idle job: the poll
    interval backs off geometrically (with jitter) while nothing changes
    and snaps back to ``interval`` on any observed progress."""

    @staticmethod
    def _job(state, completed=0):
        return {"id": "j0", "state": state, "points": {"completed": completed}}

    def _scripted_client(self, records):
        client = ServiceClient("http://127.0.0.1:1")  # never dialled
        queue = list(records)
        client.status = lambda job_id: queue.pop(0)
        return client

    def test_idle_watch_backs_off_to_the_cap(self):
        client = self._scripted_client(
            [self._job("queued")] * 10 + [self._job(COMPLETED)]
        )
        sleeps = []
        final = client.watch("j0", interval=0.1, max_interval=1.0,
                             jitter=0.0, _sleep=sleeps.append)
        assert final["state"] == COMPLETED
        # The first poll observes a fresh state, so the delay starts at
        # the base interval; every idle poll after that grows it until
        # the cap, where it stays.
        assert sleeps[0] == pytest.approx(0.1)
        assert all(b >= a for a, b in zip(sleeps, sleeps[1:]))
        assert sleeps[-1] == pytest.approx(1.0)
        assert max(sleeps) <= 1.0 + 1e-9
        assert sleeps[1] == pytest.approx(0.16)  # x1.6 geometric growth

    def test_progress_resets_the_delay(self):
        client = self._scripted_client(
            [self._job("queued")] * 4
            + [self._job("running", completed=1)] * 3
            + [self._job(COMPLETED, completed=2)]
        )
        sleeps = []
        client.watch("j0", interval=0.1, max_interval=1.0, jitter=0.0,
                     _sleep=sleeps.append)
        assert sleeps[3] > sleeps[0]  # idle polls had backed off...
        assert sleeps[4] == pytest.approx(0.1)  # ...progress resets
        assert sleeps[5] == pytest.approx(0.16)

    def test_jitter_stays_within_bounds(self):
        client = self._scripted_client(
            [self._job("queued")] * 8 + [self._job(COMPLETED)]
        )
        sleeps = []
        client.watch("j0", interval=0.1, max_interval=1.0, jitter=0.2,
                     _sleep=sleeps.append)
        expected = 0.1
        for index, actual in enumerate(sleeps):
            assert expected * 0.8 - 1e-9 <= actual <= expected * 1.2 + 1e-9, index
            expected = min(expected * 1.6, 1.0)

    def test_terminal_job_returns_without_sleeping(self):
        client = self._scripted_client([self._job(COMPLETED, completed=2)])
        sleeps = []
        final = client.watch("j0", interval=0.1, _sleep=sleeps.append)
        assert final["state"] == COMPLETED
        assert sleeps == []


class TestWatchPhases:
    """The phase pump can lag the status poll (a client starved of CPU);
    ``watch`` must still deliver every phase up to the terminal one
    before it returns, and none after its grace period."""

    @staticmethod
    def _finished_client(events):
        client = ServiceClient("http://127.0.0.1:1")  # never dialled
        client.status = lambda job_id: {
            "id": "j0", "state": COMPLETED, "points": {"completed": 1},
        }
        client.events = events
        return client

    @staticmethod
    def _phase(phase):
        return {"kind": "job_phase", "job_id": "j0", "phase": phase}

    def test_terminal_phase_is_delivered_when_the_pump_lags(self):
        def lagging_events(since=0, stop_on_idle=False):
            for phase in ("queued", "leased", "running", COMPLETED):
                time.sleep(0.05)
                yield self._phase(phase)

        phases = []
        self._finished_client(lagging_events).watch(
            "j0", interval=0.01, on_phase=lambda e: phases.append(e["phase"])
        )
        assert phases == ["queued", "leased", "running", COMPLETED]

    def test_no_phase_is_delivered_after_the_grace_period(self, monkeypatch):
        monkeypatch.setattr(client_module, "PHASE_GRACE_SECONDS", 0.1)
        released = threading.Event()
        drained = threading.Event()

        def stalled_events(since=0, stop_on_idle=False):
            yield self._phase("queued")
            released.wait(5.0)
            try:
                yield self._phase(COMPLETED)
            finally:
                drained.set()

        phases = []
        self._finished_client(stalled_events).watch(
            "j0", interval=0.01, on_phase=lambda e: phases.append(e["phase"])
        )
        released.set()
        assert drained.wait(5.0)
        assert COMPLETED not in phases
