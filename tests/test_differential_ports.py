"""The plant's two ports answer alike: random request sequences, valid and
malformed, go to a `LocalPlant` and, as raw bytes over one socket, to a
live `PlantService`; every (status, payload) pair and the final snapshots
must match.

A request the handler refuses before the plant sees it (a body that is
not JSON, a bad Content-Length, a chunked body) must get a 400 error reply
over HTTP and leave the plant as it was; the model then skips `LocalPlant`.
"""

import json
import socket

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from plantagents import LocalPlant, PlantService, PlantSim, bundled_catalog

REGISTRY = bundled_catalog()
ROBOT = REGISTRY.transport_module().id
MODULES = [m.id for m in REGISTRY.modules] + ["nowhere"]
SKILLS = [s.code for m in REGISTRY.modules for s in m.skills] + ["X9"]
FUNCTIONALITIES = [fn.name for fn in REGISTRY.module_functionalities(ROBOT)] + ["fly"]
SPELLINGS = st.sampled_from(["functionalities", "functionality"])

# Calls of registered services with well-typed bodies, so random sequences
# move the plant as well as fault it.
SKILL_CALL = st.builds(
    lambda code, detail: (f"/{REGISTRY.skill_entry(code)[0].id}/skills/{code}", {"workpiece_id": "wp1", **detail}),
    st.sampled_from(SKILLS[:-1]),
    st.sampled_from([{}, {"detail": None}, {"detail": "red"}, {"detail": "hole"}]),
)
FUNCTIONALITY_CALL = st.builds(
    lambda name, spelling, target: (
        f"/{ROBOT}/{spelling}/{name}",
        {"params": {"target_module": target}} if name == "move_dock" else {},
    ),
    st.sampled_from(FUNCTIONALITIES[:-1]),
    SPELLINGS,
    st.sampled_from(MODULES),
)

# Any route, and bodies whose fields may have the wrong JSON type.
ANY_VALUE = st.one_of(st.none(), st.integers(-1, 1), st.booleans(), st.lists(st.just("x"), max_size=1))
POST_PATH = st.one_of(
    st.builds("/{}/skills/{}".format, st.sampled_from(MODULES), st.sampled_from(SKILLS)),
    st.builds("/{}/{}/{}".format, st.sampled_from(MODULES), SPELLINGS, st.sampled_from(FUNCTIONALITIES)),
    st.sampled_from(["/plant/state", "/storage_module/skill/S1", "/nope"]),
)
ANY_BODY = st.fixed_dictionaries(
    {},
    optional={
        "workpiece_id": st.one_of(st.sampled_from(["wp1", "wp2"]), ANY_VALUE),
        "detail": st.one_of(st.just("red"), ANY_VALUE),
        "params": st.one_of(st.dictionaries(st.just("target_module"), st.one_of(st.sampled_from(MODULES), ANY_VALUE)), ANY_VALUE),
    },
)
GET_PATH = st.one_of(
    st.builds("/{}/state".format, st.sampled_from(MODULES)),
    st.sampled_from(["/plant/state", "/plant/state/", "/nope", "/storage_module/skills/S1"]),
)


def _request(method: str, path: str, headers: dict, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: plant\r\n"
    head += "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    return (head + "\r\n").encode("latin-1") + body


class PortsMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.local = LocalPlant(PlantSim.standard_start(REGISTRY))
        self.service = PlantService(PlantSim.standard_start(REGISTRY), port=0).start()
        self.sock = self.reader = None

    # -- the HTTP side ---------------------------------------------------------

    def exchange(self, request: bytes) -> tuple[int, dict]:
        """Send one request on the kept-alive socket; its (status, payload)."""
        if self.sock is None:
            self.sock = socket.create_connection(self.service.server_address[:2], timeout=5)
            self.reader = self.sock.makefile("rb")
        self.sock.sendall(request)
        status = int(self.reader.readline().split()[1])
        headers = {}
        while (line := self.reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.lower()] = value.strip()
        assert headers["content-type"] == "application/json"
        payload = json.loads(self.reader.read(int(headers["content-length"])))
        if headers.get("connection") == "close":
            self.close_socket()
        return status, payload

    def close_socket(self):
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = self.reader = None

    def teardown(self):
        try:
            status, final = self.exchange(_request("GET", "/plant/state", {}))
            assert (status, final) == (200, self.local.state())
        finally:
            self.close_socket()
            self.service.stop()

    def agree(self, request: bytes, expected: tuple[int, dict]) -> None:
        status, payload = self.exchange(request)
        # The reply went through JSON; so does the expectation.
        assert (status, payload) == (expected[0], json.loads(json.dumps(expected[1])))

    # -- valid requests ----------------------------------------------------------

    def post_json(self, path: str, body: object) -> None:
        raw = json.dumps(body).encode("utf-8")
        request = _request("POST", path, {"Content-Type": "application/json", "Content-Length": len(raw)}, raw)
        self.agree(request, self.local.post(path, body))

    @rule(calls=st.lists(st.one_of(SKILL_CALL, FUNCTIONALITY_CALL), min_size=1, max_size=6))
    def post_registered(self, calls):
        for path, body in calls:
            self.post_json(path, body)

    @rule(path=POST_PATH, body=st.one_of(ANY_BODY, st.sampled_from([[], "x", 5, None, ["wp1"]])))
    def post_anywhere(self, path, body):
        self.post_json(path, body)

    @rule(path=POST_PATH)
    def post_without_content_length(self, path):
        """No Content-Length and no Transfer-Encoding: an empty body (RFC
        9112 section 6.3), which the service reads as {}."""
        self.agree(_request("POST", path, {}), self.local.post(path, {}))

    @rule(path=GET_PATH)
    def get(self, path):
        self.agree(_request("GET", path, {}), self.local.get(path))

    # -- requests the handler refuses -------------------------------------------

    @rule(
        path=POST_PATH,
        headers_body=st.one_of(
            # Not JSON, under a right Content-Length.
            st.sampled_from([b"{", b"\xff{}", b"{'a': 1}", b"nul", b"{}}"]).map(
                lambda raw: ({"Content-Length": len(raw)}, raw)
            ),
            # A Content-Length that is no number from 0 to MAX_BODY_BYTES.
            st.sampled_from(["abc", "-1", "1e3", " ", "0x10", str(10**9)]).map(
                lambda length: ({"Content-Length": length}, b"{}")
            ),
            st.just(({"Transfer-Encoding": "chunked"}, b"2\r\n{}\r\n0\r\n\r\n")),
        ),
    )
    def post_malformed(self, path, headers_body):
        status, payload = self.exchange(_request("POST", path, *headers_body))
        assert status == 400
        assert payload["status"] == "error"
        assert payload["reason"].startswith("malformed request: ")

    @invariant()
    def same_plant(self):
        assert self.service.sim.snapshot() == self.local.state()


TestPortsAnswerAlike = PortsMachine.TestCase
TestPortsAnswerAlike.settings = settings(max_examples=40, stateful_step_count=15, deadline=None)
