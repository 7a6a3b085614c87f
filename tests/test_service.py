import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests

from plantagents import PlantSim, serve_plant
from plantagents.service import DEFAULT_PORT, JsonHandler


@pytest.fixture
def service(registry):
    sim = PlantSim.standard_start(registry)
    srv = serve_plant(sim)
    yield srv
    srv.stop()


def test_default_port_constant():
    assert DEFAULT_PORT == 5010


def test_plant_state(service):
    r = requests.get(f"{service.base_url}/plant/state", timeout=5)
    assert r.status_code == 200
    state = r.json()
    assert state["version"] == 0
    assert "wp1" in state["workpieces"]
    assert state["robot"]["position"] == "storage_module"


def test_module_state(service):
    r = requests.get(f"{service.base_url}/storage_module/state", timeout=5)
    assert r.status_code == 200
    body = r.json()
    assert body["module"] == "storage_module"
    assert "wp1" in body["workpieces"]
    assert body["robot_docked_here"] is False


def test_module_state_unknown_module(service):
    r = requests.get(f"{service.base_url}/drill_module/state", timeout=5)
    assert r.status_code == 404
    assert r.json()["status"] == "error"


def test_unknown_route(service):
    r = requests.get(f"{service.base_url}/plant/everything", timeout=5)
    assert r.status_code == 404
    r = requests.post(f"{service.base_url}/some/odd/route", json={}, timeout=5)
    assert r.status_code == 404


def test_functionality_ok(service):
    url = f"{service.base_url}/robotino_7/functionalities/move_dock"
    r = requests.post(url, json={"params": {"target_module": "storage_module"}}, timeout=5)
    assert r.status_code == 200
    assert r.json() == {"status": "ok", "state_version": 1}


def test_functionality_singular_alias(service):
    url = f"{service.base_url}/robotino_7/functionality/move_dock"
    r = requests.post(url, json={"params": {"target_module": "storage_module"}}, timeout=5)
    assert r.status_code == 200
    assert r.json()["status"] == "ok"


def test_functionality_fault_is_409(service):
    url = f"{service.base_url}/robotino_7/functionalities/undock"
    r = requests.post(url, json={}, timeout=5)
    assert r.status_code == 409
    body = r.json()
    assert body["status"] == "fault"
    assert body["reason"] == "undock: robot not docked"


def test_functionality_unknown_module_404(service):
    url = f"{service.base_url}/robotino_9/functionalities/load"
    r = requests.post(url, json={}, timeout=5)
    assert r.status_code == 404


def test_functionality_unknown_name_409(service):
    url = f"{service.base_url}/robotino_7/functionalities/levitate"
    r = requests.post(url, json={}, timeout=5)
    assert r.status_code == 409
    assert "levitate" in r.json()["reason"]


def test_functionality_on_module_without_component(service):
    url = f"{service.base_url}/cnc_module/functionalities/move_dock"
    r = requests.post(url, json={}, timeout=5)
    assert r.status_code == 409


def test_malformed_body_400(service):
    url = f"{service.base_url}/robotino_7/functionalities/undock"
    r = requests.post(url, data=b"not json{", timeout=5)
    assert r.status_code == 400
    assert r.json()["status"] == "error"


def test_skill_ok_and_workpiece_defaults(service):
    url = f"{service.base_url}/storage_module/skills/S1"
    r = requests.post(url, json={}, timeout=5)
    assert r.status_code == 200
    assert r.json()["status"] == "ok"
    state = requests.get(f"{service.base_url}/plant/state", timeout=5).json()
    assert state["workpieces"]["wp1"]["in_inventory"] is False


def test_skill_carries_detail(service):
    for name, params in [
        ("move_dock", {"target_module": "storage_module"}),
        ("load", {}),
        ("undock", {}),
        ("move_dock", {"target_module": "painting_module"}),
        ("unload", {}),
    ]:
        r = requests.post(
            f"{service.base_url}/robotino_7/functionalities/{name}",
            json={"params": params},
            timeout=5,
        )
        assert r.status_code == 200, r.text
    r = requests.post(
        f"{service.base_url}/painting_module/skills/P2",
        json={"workpiece_id": "wp1", "detail": "backside customer logo"},
        timeout=5,
    )
    assert r.status_code == 200
    state = requests.get(f"{service.base_url}/plant/state", timeout=5).json()
    (feature,) = state["workpieces"]["wp1"]["features"]
    assert feature == {"kind": "paint_pattern", "detail": "backside customer logo"}


def test_skill_wrong_module_409(service):
    url = f"{service.base_url}/cnc_module/skills/S1"
    r = requests.post(url, json={}, timeout=5)
    assert r.status_code == 409
    assert "offers no skill" in r.json()["reason"]


def test_skill_fault_propagates_reason(service):
    url = f"{service.base_url}/cnc_module/skills/M1"
    r = requests.post(url, json={"workpiece_id": "wp1"}, timeout=5)
    assert r.status_code == 409
    assert "workpiece not at" in r.json()["reason"]


def test_state_version_tracks_mutations(service):
    v0 = requests.get(f"{service.base_url}/plant/state", timeout=5).json()["version"]
    requests.post(f"{service.base_url}/storage_module/skills/S1", json={}, timeout=5)
    requests.post(f"{service.base_url}/storage_module/skills/S2", json={}, timeout=5)
    v2 = requests.get(f"{service.base_url}/plant/state", timeout=5).json()["version"]
    assert v2 == v0 + 2


def test_concurrent_moves_keep_state_consistent(service):
    """Racing conflicting calls: exactly one dock succeeds, state stays sane."""

    def dock(target):
        return requests.post(
            f"{service.base_url}/robotino_7/functionalities/move_dock",
            json={"params": {"target_module": target}},
            timeout=5,
        ).status_code

    targets = ["cnc_module", "laser_module", "painting_module", "inspection_module"] * 2
    with ThreadPoolExecutor(max_workers=8) as pool:
        statuses = list(pool.map(dock, targets))
    assert statuses.count(200) >= 1
    state = requests.get(f"{service.base_url}/plant/state", timeout=5).json()
    assert state["version"] == statuses.count(200)
    assert state["robot"]["docked"] is True


def test_get_content_type_json(service):
    r = requests.get(f"{service.base_url}/plant/state", timeout=5)
    assert r.headers["Content-Type"] == "application/json"
    json.loads(r.text)


@pytest.mark.parametrize(
    "path, body, length, ends_early",
    [
        ("/storage_module/skills/S1", b'{"workpiece_id": ["a"]}', None, False),
        ("/robotino_7/functionalities/move_dock", b'{"params": ["x"]}', None, False),
        ("/robotino_7/functionalities/move_dock", b'{"params": {"target_module": ["x"]}}', None, False),
        ("/robotino_7/functionalities/move_dock", b"{}", "abc", False),
        ("/robotino_7/functionalities/move_dock", b"", "-1", False),
        ("/storage_module/skills/S1", b'{"detail": {"a": 1}}', None, False),
        ("/storage_module/skills/S1", b"", str(10**9), False),
        ("/storage_module/skills/S1", b"\xff{", None, False),
        ("/storage_module/skills/S1", b"[]", None, False),
        ("/storage_module/skills/S1", b"{}", "10", True),
    ],
)
def test_malformed_request_gets_400_json(service, path, body, length, ends_early):
    """Each request gets a 400 JSON reply without touching the plant, and
    the server goes on answering.  With ends_early the client stops sending
    before the body is complete."""
    length = str(len(body)) if length is None else length
    request = (
        f"POST {path} HTTP/1.1\r\nHost: plant\r\nContent-Type: application/json\r\n"
        f"Content-Length: {length}\r\nConnection: close\r\n\r\n"
    ).encode("ascii") + body
    with socket.create_connection(service.server_address[:2], timeout=5) as sock:
        sock.sendall(request)
        if ends_early:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split()[1] == b"400"
    assert b"Content-Type: application/json" in head
    assert json.loads(payload)["status"] == "error"

    assert requests.get(f"{service.base_url}/plant/state", timeout=5).json()["version"] == 0
    r = requests.post(f"{service.base_url}/storage_module/skills/S1", json={}, timeout=5)
    assert r.json() == {"status": "ok", "state_version": 1}


# A request that announces a 10-byte body and sends 2 bytes of it.
SHORT_BODY_REQUEST = (
    b"POST /storage_module/skills/S1 HTTP/1.1\r\nHost: plant\r\n"
    b"Content-Type: application/json\r\nContent-Length: 10\r\n\r\n{}"
)


def test_held_open_short_body_gets_400_json_after_timeout(service, monkeypatch):
    """A client that keeps the connection open without sending the rest of
    its body gets a 400 JSON reply once the handler's timeout passes."""
    monkeypatch.setattr(JsonHandler, "timeout", 0.5)
    with socket.create_connection(service.server_address[:2], timeout=5) as sock:
        sock.sendall(SHORT_BODY_REQUEST)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split()[1] == b"400"
    assert b"Content-Type: application/json" in head
    assert json.loads(payload)["status"] == "error"

    assert requests.get(f"{service.base_url}/plant/state", timeout=5).json()["version"] == 0
    r = requests.post(f"{service.base_url}/storage_module/skills/S1", json={}, timeout=5)
    assert r.json() == {"status": "ok", "state_version": 1}


def test_client_gone_before_reply_prints_nothing(service, capfd):
    """Replying to a client that has closed its connection is not an error
    worth a traceback on stderr."""
    with socket.create_connection(service.server_address[:2], timeout=5) as sock:
        sock.sendall(SHORT_BODY_REQUEST)
    # The server accepts connections in order, so once this is answered the
    # closed one has its handler thread; then wait for every handler to end.
    assert requests.get(f"{service.base_url}/plant/state", timeout=5).status_code == 200
    deadline = time.monotonic() + 5
    while any(t.name.endswith("(process_request_thread)") for t in threading.enumerate()):
        assert time.monotonic() < deadline, "a handler thread is still running"
        time.sleep(0.01)
    assert capfd.readouterr().err == ""
