"""Constant-depth entangling schedule for 3D cluster preparation.

Every cluster edge is a CPHASE gate; gates sharing an ion cannot run in
the same round.  Six rounds always suffice, independent of array size:

    rounds 1-4:  in-layer edges, split by primitive direction (u or v)
                 and by the parity of the source coordinate along it;
    rounds 5-6:  interlayer edges, split by the source site's family: a
                 layer's parity is its family's (layer 2k + 1 + f), so
                 round 5 takes the family-A sources and round 6 the
                 family-B ones, the periodic wrap's included (its source
                 layer 2 n**2 is family B).

Each round is a matching by construction, so the schedule depth is a
constant 6 and preparation time is size-independent.  This module assigns
the rounds and audits any schedule against the cluster; which sites are
partners is ``lattice.cluster_partners``'s to say.
"""

from __future__ import annotations

from collections import namedtuple

from .lattice import LayerAssignment, cluster_partners

__all__ = ["GateSchedule", "audit_rounds", "build_schedule", "prep_time", "schedule_report",
           "schedule_csv_rows"]

ROUND_NAMES = (
    "intra-u-even",
    "intra-u-odd",
    "intra-v-even",
    "intra-v-odd",
    "inter-odd-layer",
    "inter-even-layer",
)


class GateSchedule(namedtuple("GateSchedule", (
        "rounds",  # six tuples of sorted (s, t) site pairs
        "t_shuttle", "t_gate", "periodic", "layer_count"))):
    """Six rounds of disjoint CPHASE pairs; every round takes one shuttle
    plus one gate time."""

    __slots__ = ()

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
    # partner may not, so rounds 5-6 are sorted at the end.  The source is the
    # site itself, for the wrap too, and its key gives its in-layer coordinate
    # (i // n, j // n) and its family f.
    n = assign.n
    rounds: list[list[tuple[int, int]]] = [[] for _ in range(6)]
    for (s, u, v, up), (f, i, j) in zip(cluster_partners(assign, periodic), assign.array.keys):
        if u is not None:  # u step: parity of the source coordinate
            rounds[i // n % 2].append((s, u))
        if v is not None:  # v step
            rounds[2 + j // n % 2].append((s, v))
        if up is not None:
            rounds[4 + f].append((s, up) if s < up else (up, s))
    rounds[4].sort()
    rounds[5].sort()

    return GateSchedule(
        rounds=tuple(map(tuple, rounds)),
        t_shuttle=t_shuttle,
        t_gate=t_gate,
        periodic=periodic,
        layer_count=assign.layer_count,
    )


def audit_rounds(rounds, assign: LayerAssignment, periodic: bool = False
                 ) -> tuple[str | None, list[int], int]:
    """Check ``rounds`` against the cluster of ``assign`` in one pass over
    its partner table: ``(failure, failing, target_edges)``.

    ``failure`` is None if six site-disjoint rounds list each cluster edge
    once and nothing else, else the first fault by round and ion or gate.
    ``failing`` is the sorted sites whose K_a fails on the graph state of
    the gates applied an odd number of times (CZs on |+>^n commute and undo
    themselves): the ends of the edges where that graph and the cluster
    differ, or none if a gate leaves the array or joins a site to itself.
    """
    table = list(cluster_partners(assign, periodic))
    sites = len(table)
    # slot 3 s + j of (s, u, v, up): 0 unapplied, 1 odd count or no partner, 2 even
    applied = bytearray(t is None for row in table for t in row[1:])
    edges = len(applied) - applied.count(1)
    stamp, odd = [0] * sites, set()  # each ion's last round; off-cluster gates
    failure = (None if len(rounds) == len(ROUND_NAMES)
               else f"{len(rounds)} rounds, expected {len(ROUND_NAMES)}")
    simple = True  # every gate joins two distinct sites of the array
    for k, rnd in enumerate(rounds, start=1):
        where = f"round {k} ({ROUND_NAMES[k - 1]})" if failure is None else None
        for a, b in rnd:
            if a > b:
                a, b = b, a
            on = 0 <= a and b < sites  # both ends on the array
            _, u, v, up = table[a] if on else (None,) * 4
            slot = (3 * a if b == u else 3 * a + 1 if b == v else 3 * a + 2 if b == up
                    else 3 * b + 2 if on and table[b][3] == a else -1)
            if slot < 0:
                failure = failure or f"{where}: gate {[a, b]} is not a cluster edge"
                simple = simple and on and a != b
                odd ^= {(a, b)}
                continue
            if failure is None:
                if applied[slot]:
                    failure = f"{where}: gate {[a, b]} listed twice"
                elif k in (stamp[a], stamp[b]):
                    failure = f"{where}: ion {a if stamp[a] == k else b} is in two gates"
                stamp[a] = stamp[b] = k
            applied[slot] = 2 if applied[slot] == 1 else 1
    differ = [(i // 3, table[i // 3][i % 3 + 1], count)
              for i, count in enumerate(applied) if count != 1]
    missing = [(min(s, t), max(s, t)) for s, t, count in differ if not count]
    ends = {q for gate in odd for q in gate} | {q for s, t, _ in differ for q in (s, t)}
    if failure is None and missing:
        failure = f"cluster edge {list(min(missing))} is in no round ({len(missing)} missing)"
    return failure, sorted(ends) if simple else [], edges


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
