"""Constant-depth entangling schedule for 3D cluster preparation.

Every cluster edge is a CPHASE gate; gates sharing an ion cannot run in
the same round.  Six rounds always suffice, independent of array size:

    rounds 1-4:  in-layer edges, split by primitive direction (u or v)
                 and by the parity of the source coordinate along it;
    rounds 5-6:  interlayer edges, split by source-layer parity (round 6
                 carries the periodic wrap, whose source layer 2 n**2 is
                 even).

Each round is a matching by construction, so the schedule depth is a
constant 6 and preparation time is size-independent.  This module only
assigns rounds: which sites are partners is ``lattice.cluster_partners``'s
to say.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import LayerAssignment, cluster_partners

__all__ = ["GateSchedule", "build_schedule", "check_rounds", "prep_time", "schedule_report",
           "schedule_csv_rows"]

ROUND_NAMES = (
    "intra-u-even",
    "intra-u-odd",
    "intra-v-even",
    "intra-v-odd",
    "inter-odd-layer",
    "inter-even-layer",
)


@dataclass(frozen=True)
class GateSchedule:
    """Six rounds of disjoint CPHASE pairs; every round takes one shuttle
    plus one gate time."""

    rounds: tuple[tuple[tuple[int, int], ...], ...]
    t_shuttle: float
    t_gate: float
    periodic: bool
    layer_count: int

    def pair_counts(self) -> tuple[int, ...]:
        return tuple(len(rnd) for rnd in self.rounds)


def build_schedule(
    assign: LayerAssignment,
    *,
    periodic: bool = False,
    t_gate: float = 1e-5,
    t_shuttle: float = 1e-4,
) -> GateSchedule:
    """Partition the 3D cluster edge set into six parallel rounds."""
    if t_gate < 0 or t_shuttle < 0:
        raise ValueError("round times must be nonnegative")

    # One pass over the lattice's partners in ascending site id.  The u and v
    # partners have larger ids, so rounds 1-4 come out sorted; the next-layer
    # partner may not, so rounds 5-6 are sorted at the end.  The source layer
    # is the site's own, the wrap's too (2 n**2, even).
    coord_of, layer_of = assign.coord_of, assign.layer_of
    rounds: list[list[tuple[int, int]]] = [[] for _ in range(6)]
    for s, u, v, up in cluster_partners(assign, periodic):
        a, b = coord_of[s]  # (i // n, j // n)
        if u is not None:  # u step: parity of the source coordinate
            rounds[a % 2].append((s, u))
        if v is not None:  # v step
            rounds[2 + b % 2].append((s, v))
        if up is not None:
            rounds[5 - layer_of[s] % 2].append((s, up) if s < up else (up, s))
    rounds[4].sort()
    rounds[5].sort()

    return GateSchedule(
        rounds=tuple(map(tuple, rounds)),
        t_shuttle=t_shuttle,
        t_gate=t_gate,
        periodic=periodic,
        layer_count=assign.layer_count,
    )


def check_rounds(rounds, target: set[tuple[int, int]]) -> str | None:
    """None if ``rounds`` is a valid schedule of the edge set ``target``.

    Valid means exactly six rounds, each round site-disjoint, no gate
    listed twice, and the gates together exactly ``target`` (sorted pairs).
    Otherwise the first fault found, naming its round and ion or gate.
    """
    if len(rounds) != len(ROUND_NAMES):
        return f"{len(rounds)} rounds, expected {len(ROUND_NAMES)}"
    seen: set[tuple[int, int]] = set()
    for k, (name, rnd) in enumerate(zip(ROUND_NAMES, rounds), start=1):
        busy: set[int] = set()
        for a, b in rnd:
            gate = (min(a, b), max(a, b))
            if gate in seen:
                return f"round {k} ({name}): gate {list(gate)} listed twice"
            if gate not in target:
                return f"round {k} ({name}): gate {list(gate)} is not a cluster edge"
            for ion in gate:
                if ion in busy:
                    return f"round {k} ({name}): ion {ion} is in two gates"
                busy.add(ion)
            seen.add(gate)
    missing = sorted(target - seen)
    if missing:
        return f"cluster edge {list(missing[0])} is in no round ({len(missing)} missing)"
    return None


def prep_time(schedule: GateSchedule) -> float:
    """Total preparation time: rounds times (shuttle plus gate time); inf
    past float range."""
    return len(schedule.rounds) * (schedule.t_shuttle + schedule.t_gate)


def schedule_report(schedule: GateSchedule) -> dict:
    """JSON-compatible schedule document."""
    return {
        "schema_version": 1,
        "periodic": schedule.periodic,
        "layer_count": schedule.layer_count,
        "round_names": list(ROUND_NAMES),
        "rounds": [[list(e) for e in rnd] for rnd in schedule.rounds],
        "timing": [{"shuttle_time_s": schedule.t_shuttle, "gate_time_s": schedule.t_gate}
                   for _ in schedule.rounds],
    }


def schedule_csv_rows(schedule: GateSchedule) -> list[tuple[int, int, float]]:
    """(round, pair_count, duration_s) summary rows; round names live in the JSON report."""
    duration = schedule.t_shuttle + schedule.t_gate
    return [(k + 1, len(rnd), duration) for k, rnd in enumerate(schedule.rounds)]
