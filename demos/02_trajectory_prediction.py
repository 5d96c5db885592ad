"""Trajectory prediction in action: a sliding window of detections feeds a
least-squares velocity fit, and the drag-aware propagation guesses where
the ball will land. Watch the landing estimate converge as more frames
arrive.

Run:
    python demos/02_trajectory_prediction.py
"""

import numpy as np

from catchsim import (
    BallMotion,
    Environment,
    ObservationQueue,
    ProjectileParams,
    PropagationStop,
    estimate_velocity,
    ground_truth,
    plane_crossing,
    predict_from_queue,
    push_observation,
)
from catchsim.sensor import Observation

env = Environment()
params = ProjectileParams()

# Ground truth: a throw arcing across the room, integrated with RK4 at 1 kHz
# for up to 3 s; the path ends at its first sample below the floor (z = 0).
truth = ground_truth(BallMotion.BALLISTIC, [2.9, -0.5, 1.4], [-2.3, 0.45, 5.4], params, env, 0.001, 0.0, 3000, 0.0)
landing = truth.positions[-1]
print(f"True flight: {truth.times[-1]:.2f} s, lands at ({landing[0]:+.3f}, {landing[1]:+.3f})\n")

# Feed noisy 60 Hz "detections" of the flight into the queue and re-predict
# the landing point after every frame, exactly like the interception loop.
rng = np.random.default_rng(3)
queue = ObservationQueue(capacity=5)
stop = PropagationStop(max_horizon=3.0, ground_height=0.0)
ground = (np.zeros(3), np.array([0.0, 0.0, 1.0]))

print("frame   t      fitted velocity            predicted landing     error")
for frame in range(0, 60):
    t = frame / 60.0
    k = int(round(t * 1000))
    if k >= len(truth.positions):
        break
    detected = truth.positions[k] + rng.normal(scale=0.01, size=3)
    push_observation(queue, Observation(detected, t, 0.0, 0.0, 0.0))
    if len(queue) < 2:
        continue
    path = predict_from_queue(queue, params, env, t_step=0.01, stop=stop)
    crossing = plane_crossing(path, *ground)
    if crossing is None:
        continue
    v = estimate_velocity(queue)
    err = np.linalg.norm(crossing[0][:2] - landing[:2])
    if frame % 4 == 0 or frame < 6:
        print(
            f"{frame:4d} {t:6.3f}  ({v[0]:+.2f},{v[1]:+.2f},{v[2]:+.2f}) m/s   "
            f"({crossing[0][0]:+.3f},{crossing[0][1]:+.3f})    {err:.3f} m"
        )

print("\nThe first fits (two noisy points) are rough; once the window holds")
print("five frames the landing estimate settles to within a few centimetres.")
