"""Fixtures shared by the config-loading tests, the schema and the camera's two
upper bounds it declares, and the per-tick frame rule shared by the
frame-schedule and segment tests."""

import json
from importlib import resources

import pytest

SCHEMA = json.loads(resources.files("catchsim.scenarios").joinpath("schema.json").read_text())
_CAMERA = SCHEMA["fields"]["camera"]["fields"]
MAX_NOISE_SIGMA = _CAMERA["noise_sigma"]["max"]  # the most noise a config may load
MAX_POINTS_PER_DETECTION = _CAMERA["points_per_detection"]["max"]


def carries_frame(k: int, dt: float, frame_rate: float) -> bool:
    """Tick k, alone, against the frame rule: it lies within half a step of
    its nearest frame, or it and tick k + 1 straddle that frame and both lie
    a rounding error past half a step (a tie). The first tick of a frame
    number that carries it is the frame's tick."""
    t, u = k * dt, (k + 1) * dt
    frame = round(t * frame_rate)
    stamp = frame / frame_rate
    if abs(t - stamp) <= 0.5 * dt:
        return True
    return round(u * frame_rate) == frame and t < stamp < u and abs(u - stamp) > 0.5 * dt


@pytest.fixture
def unreadable_config():
    """Make a config path that cannot be read or decoded: a JSON integer past
    Python's 4300-digit int-string limit, bytes that are not UTF-8, or a directory."""

    def make(directory, kind):
        path = directory / f"{kind}.json"
        if kind == "long_integer":
            path.write_text('{"scenario_id": "A", "seed": ' + "9" * 5000 + "}")
        elif kind == "not_utf8":
            path.write_bytes(b'{"scenario_id": "A\xff"}')
        else:
            path.mkdir()
        return path

    return make
