"""Record propagate's reference runs into propagate.json, next to this file.

Run from the repository root, at the commit whose outputs the file pins:

    PYTHONPATH=src python tests/reference/make_propagate.py

Two runs on the tests' fast grid (128x64, hbar_scale 640, dt 0.2 ps) to
1 ns, static and driven.  The 4.4 ps sample interval (22 steps) does not
divide t_final, so the last sample is off the stride, and the snapshot at
0.37 ns falls inside a block.  Each run keeps every sample's fields, the
final norms of psi_x and psi_y, and the snapshot's sum and x-weighted sum
of density.  A sample is a list in EffSample's field order.
``test_propagate_matches_pinned_reference`` compares a fresh run with them.
A change that moves a value past that test's tolerance reruns this script
and says why.
"""

import json
from pathlib import Path

from hexmbqc import electron_dynamics as ed

PATH = Path(__file__).with_name("propagate.json")
CONFIG = dict(points_x=128, points_y=64, hbar_scale=640.0, dt=2e-13)
T_FINAL, SAMPLE_INTERVAL, SNAPSHOT_TIME = 1e-9, 4.4e-12, 3.7e-10


def record(static_mode: bool) -> dict:
    """One run's pinned values; every number is a float or an int."""
    cfg = ed.TrapConfig(static_mode=static_mode, **CONFIG)
    res = ed.propagate(ed.gaussian_wavepacket(cfg), cfg, T_FINAL,
                       sample_interval=SAMPLE_INTERVAL, snapshot_times=(SNAPSHOT_TIME,))
    return {
        "samples": [list(s) for s in res.trace.samples],
        "norm_x": ed._norm(res.wavepacket.psi_x, cfg.dx),
        "norm_y": ed._norm(res.wavepacket.psi_y, cfg.dy),
        "snapshots": [{"t": s.t, "sum": float(s.density.sum()),
                       "x_sum": float(cfg.x_axis() @ s.density.sum(axis=1))}
                      for s in res.snapshots],
    }


def main() -> None:
    doc = {"fields": ed.EffSample._fields, "static": record(True), "driven": record(False)}
    PATH.write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
