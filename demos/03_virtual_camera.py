"""The synthetic depth camera: visibility cone, hemisphere point clouds,
fringe filtering, the tilt coupling that loses sight of the ball, and the
frame schedule that picks the physics ticks carrying a camera frame.

Run:
    python demos/03_virtual_camera.py
"""

import math

import numpy as np

from catchsim import (
    CameraModel,
    ProjectileParams,
    detect_centroid,
    frame_draws,
    frame_schedule,
    hover_init,
    sample_point_cloud,
    visible,
)
from catchsim.vehicle import UavState

cam = CameraModel()
params = ProjectileParams()
uav = hover_init(2.0)

print(f"FOV: {math.degrees(cam.horizontal_fov):.0f} x {math.degrees(cam.vertical_fov):.0f} deg, "
      f"{cam.frame_rate:.0f} Hz, {cam.max_range:.0f} m range\n")

print("Visibility of a ball 3 m out at various bearings:")
for label, pos in [
    ("boresight", (3.0, 0.0, 2.0)),
    ("30 deg left", (3.0 * math.cos(0.52), 3.0 * math.sin(0.52), 2.0)),
    ("40 deg left", (3.0 * math.cos(0.70), 3.0 * math.sin(0.70), 2.0)),
    ("1.5 m above", (3.0, 0.0, 3.5)),
    ("behind", (-3.0, 0.0, 2.0)),
]:
    print(f"  {label:12s} -> {visible(np.array(pos), uav, cam)}")

# Tilt coupling: accelerating hard pitches the camera down, and a level
# ball climbs out of the vertical FOV.
print("\nSame level ball, increasing accel-induced pitch:")
for pitch in (0.0, 0.2, 0.4):
    tilted = UavState(uav.position, uav.velocity, yaw=0.0, pitch=pitch)
    print(f"  pitch {pitch:.1f} rad -> visible: {visible(np.array([4.0, 0.0, 2.0]), tilted, cam)}")

# Detection: sample the camera-facing hemisphere, filter fringes, centroid.
# A run deals each frame its unit directions and noise from one seeded stream;
# this is the first frame's share under seed 7.
ball = np.array([3.0, 0.0, 2.0])
dirs, noise = next(frame_draws(7, CameraModel(noise_sigma=0.005, points_per_detection=500), 1))
cloud = sample_point_cloud(ball, params, uav, dirs, noise)
centroid = detect_centroid(cloud)
bias = np.linalg.norm(centroid - ball)
print(f"\n500-point noisy cloud: centroid offset from the true centre = {bias * 1e3:.1f} mm")
print(f"(hemisphere sampling biases the centroid toward the camera, bounded by D/2 = {params.diameter_D / 2 * 1e3:.0f} mm)")

# The fringe filter drops outliers beyond one sigma of the mean distance.
corrupted = np.vstack([cloud, [[5.0, 2.0, 4.0]]])
clean = detect_centroid(corrupted)
print(f"With a wild outlier appended, the filtered centroid moves only "
      f"{np.linalg.norm(clean - centroid) * 1e3:.2f} mm")

# Frame gating: the camera picks, once per run, the 1 ms physics ticks that
# carry a frame (the first tick within half a step of each frame period).
# At 400 Hz the 2.5 ms period is five half steps, so odd frames fall halfway
# between two ticks; the first of the two carries each, and none is lost.
for rate in (cam.frame_rate, 400.0):
    ticks, stamps = frame_schedule(rate, 0.001, 201)
    print(f"\nFrames in the first 0.2 s at {rate:.0f} Hz: {len(ticks)}, on ticks {ticks[:8]}... "
          f"stamped {', '.join(f'{s * 1e3:.1f}' for s in stamps[:8])}... ms")
