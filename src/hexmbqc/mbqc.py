"""Adaptive measurement patterns on small cluster states (dense simulator).

A pattern is a list of single-qubit measurements in the equatorial plane.
Step ``j`` measures its qubit in the basis

    |m_j = 0>  ~  (|0> + exp(+i a') |1>) / sqrt(2)
    |m_j = 1>  ~  (|0> - exp(+i a') |1>) / sqrt(2)

with the adapted angle  a' = (-1)**s * angle + pi * t,  where ``s`` and
``t`` are XORs of earlier outcome bits (the step's s- and t-domains).
Measuring at angle a with outcome m teleports

    |psi>  ->  X**m  H  Rz(-a') |psi>,      Rz(t) = diag(1, exp(i t)),

onto the next qubit, which fixes every byproduct rule below.

Byproduct corrections are recorded, not applied: each correction is a
Pauli (X or Z) on an output qubit raised to the XOR of a domain of
outcome bits.

Capped at 20 qubits; exact within floating point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MeasurementStep",
    "Correction",
    "MeasurementPattern",
    "PatternResult",
    "run_pattern",
    "pattern_from_dict",
    "pattern_to_dict",
]

MAX_QUBITS = 20


@dataclass(frozen=True)
class MeasurementStep:
    qubit: int
    angle: float
    s_domain: frozenset[int] = frozenset()
    t_domain: frozenset[int] = frozenset()


@dataclass(frozen=True)
class Correction:
    qubit: int
    kind: str  # "X" or "Z"
    domain: frozenset[int] = frozenset()


@dataclass(frozen=True)
class MeasurementPattern:
    steps: tuple[MeasurementStep, ...]
    outputs: tuple[int, ...]
    corrections: tuple[Correction, ...] = ()

    def validate(self, n: int) -> None:
        measured = set()
        for j, st in enumerate(self.steps):
            if not 0 <= st.qubit < n:
                raise ValueError(f"step {j} measures qubit {st.qubit}, out of range")
            if st.qubit in measured:
                raise ValueError(f"qubit {st.qubit} measured twice")
            for dom in (st.s_domain, st.t_domain):
                if any(ref >= j or ref < 0 for ref in dom):
                    raise ValueError(
                        f"step {j} adaptivity references step outside 0..{j-1}"
                    )
            measured.add(st.qubit)
        for q in self.outputs:
            if not 0 <= q < n:
                raise ValueError(f"output qubit {q} out of range")
            if q in measured:
                raise ValueError(f"output qubit {q} is also measured")
        if len(set(self.outputs)) != len(self.outputs):
            raise ValueError("duplicate output qubit")
        if set(self.outputs) != set(range(n)) - measured:
            raise ValueError("outputs must list exactly the unmeasured qubits")
        for c in self.corrections:
            if c.kind not in ("X", "Z"):
                raise ValueError(f"correction kind must be X or Z, got {c.kind!r}")
            if c.qubit not in self.outputs:
                raise ValueError(f"correction on non-output qubit {c.qubit}")
            if any(ref < 0 or ref >= len(self.steps) for ref in c.domain):
                raise ValueError("correction domain references unknown step")


@dataclass
class PatternResult:
    outcomes: list[int]
    probabilities: list[float]
    state: np.ndarray
    outputs: tuple[int, ...]
    byproduct_x: dict[int, int] = field(default_factory=dict)
    byproduct_z: dict[int, int] = field(default_factory=dict)

    @property
    def probability(self) -> float:
        """Joint probability of the realized outcome branch."""
        return float(np.prod(self.probabilities)) if self.probabilities else 1.0


def _parity(bits: list[int], domain: frozenset[int]) -> int:
    return sum(bits[k] for k in domain) % 2


def run_pattern(
    n: int,
    edges: list[tuple[int, int]],
    pattern: MeasurementPattern,
    input_state: np.ndarray | None = None,
    input_qubits: tuple[int, ...] = (),
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
) -> PatternResult:
    """Prepare inputs (x) |+> on the rest, entangle along edges, run the pattern.

    ``input_state`` holds amplitudes on ``input_qubits`` (qubit 0 of the
    register = most significant bit); remaining qubits start in |+>.
    With ``forced_outcomes`` the stated branch is projected instead of
    sampling, and per-step probabilities record its weights.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    if n > MAX_QUBITS:
        raise ValueError(f"pattern simulator capped at {MAX_QUBITS} qubits, got {n}")
    pattern.validate(n)
    if forced_outcomes is not None:
        if len(forced_outcomes) != len(pattern.steps):
            raise ValueError("forced_outcomes must give one bit per step")
        if any(b not in (0, 1) for b in forced_outcomes):
            raise ValueError("forced outcomes are bits")
    elif rng is None and pattern.steps:
        raise ValueError("need an rng (or forced_outcomes) to sample measurements")

    # initial product state
    if input_state is None:
        if input_qubits:
            raise ValueError("input_qubits given without input_state")
        psi = np.full((2,) * n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    else:
        k = len(input_qubits)
        amp = np.asarray(input_state, dtype=np.complex128).reshape((2,) * k)
        nrm = np.linalg.norm(amp)
        if not math.isclose(nrm, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"input state norm {nrm} != 1")
        if len(set(input_qubits)) != k:
            raise ValueError("duplicate input qubit")
        if any(not 0 <= q < n for q in input_qubits):
            raise ValueError(f"input qubits {list(input_qubits)} outside 0..{n - 1}")
        rest = [q for q in range(n) if q not in input_qubits]
        plus = np.full((2,) * len(rest), 2.0 ** (-len(rest) / 2.0), dtype=np.complex128)
        psi = np.multiply.outer(amp, plus)
        # axes currently ordered input_qubits + rest; restore register order
        order = list(input_qubits) + rest
        psi = np.moveaxis(psi, range(n), [order.index(q) for q in range(n)])

    for a, b in edges:
        if a == b:
            raise ValueError("self-loop edge")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) has an endpoint outside 0..{n - 1}")
        sl = [slice(None)] * n
        sl[a] = 1
        sl[b] = 1
        psi[tuple(sl)] *= -1.0

    axis_of = {q: q for q in range(n)}  # qubit -> current axis
    outcomes: list[int] = []
    probs: list[float] = []

    for j, st in enumerate(pattern.steps):
        s = _parity(outcomes, st.s_domain)
        t = _parity(outcomes, st.t_domain)
        adapted = (-1.0) ** s * st.angle + math.pi * t
        ax = axis_of[st.qubit]
        a0 = np.take(psi, 0, axis=ax)
        a1 = np.take(psi, 1, axis=ax)
        phase = cmath.exp(-1j * adapted)
        branch0 = (a0 + phase * a1) / math.sqrt(2.0)
        p0 = float(np.sum(np.abs(branch0) ** 2))
        p0 = min(max(p0, 0.0), 1.0)
        # snap projector dust so impossible branches report exactly 0 / 1
        if p0 < 1e-14:
            p0 = 0.0
        elif p0 > 1.0 - 1e-14:
            p0 = 1.0
        if forced_outcomes is not None:
            m = forced_outcomes[j]
        else:
            m = 0 if rng.random() < p0 else 1
        if m == 0:
            post, pm = branch0, p0
        else:
            post, pm = (a0 - phase * a1) / math.sqrt(2.0), 1.0 - p0
        if pm > 0.0:
            psi = post / math.sqrt(pm)
        else:
            psi = post  # dead branch; probability 0 recorded
        outcomes.append(m)
        probs.append(pm)
        del axis_of[st.qubit]
        for q in axis_of:
            if axis_of[q] > ax:
                axis_of[q] -= 1

    # order residual axes as pattern.outputs
    perm = [axis_of[q] for q in pattern.outputs]
    psi = np.transpose(psi, perm) if perm else psi
    state = psi.reshape(-1)

    bx = {q: 0 for q in pattern.outputs}
    bz = {q: 0 for q in pattern.outputs}
    for c in pattern.corrections:
        bit = _parity(outcomes, c.domain)
        if c.kind == "X":
            bx[c.qubit] ^= bit
        else:
            bz[c.qubit] ^= bit

    return PatternResult(
        outcomes=outcomes,
        probabilities=probs,
        state=state,
        outputs=pattern.outputs,
        byproduct_x=bx,
        byproduct_z=bz,
    )


def pattern_to_dict(n: int, edges: list[tuple[int, int]], pattern: MeasurementPattern) -> dict:
    return {
        "schema_version": 1,
        "n": n,
        "edges": [list(e) for e in edges],
        "steps": [
            {
                "qubit": st.qubit,
                "angle": st.angle,
                "s_domain": sorted(st.s_domain),
                "t_domain": sorted(st.t_domain),
            }
            for st in pattern.steps
        ],
        "outputs": list(pattern.outputs),
        "corrections": [
            {"qubit": c.qubit, "kind": c.kind, "domain": sorted(c.domain)}
            for c in pattern.corrections
        ],
    }


def _int(value, what: str) -> int:
    """A JSON integer; floats and bools are refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _angle(value, step: int) -> float:
    """A finite JSON number; bools, strings, NaN and Infinity are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ValueError(f"step {step} angle must be a finite number, got {value!r}")
    return float(value)


def pattern_from_dict(doc: dict) -> tuple[int, list[tuple[int, int]], MeasurementPattern]:
    """Parse the JSON pattern document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise ValueError("pattern document must be a JSON object")
    allowed = {"schema_version", "n", "edges", "steps", "outputs", "corrections", "input"}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown pattern keys: {sorted(unknown)}")
    if doc.get("schema_version", 1) != 1:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    try:
        n = _int(doc["n"], "n")
        edges = [(_int(a, "edge endpoint"), _int(b, "edge endpoint"))
                 for a, b in doc["edges"]]
        steps = tuple(
            MeasurementStep(
                qubit=_int(s["qubit"], "step qubit"),
                angle=_angle(s["angle"], i),
                s_domain=frozenset(_int(k, "s_domain entry") for k in s.get("s_domain", ())),
                t_domain=frozenset(_int(k, "t_domain entry") for k in s.get("t_domain", ())),
            )
            for i, s in enumerate(doc["steps"])
        )
        outputs = tuple(_int(q, "output qubit") for q in doc["outputs"])
        corrections = tuple(
            Correction(
                qubit=_int(c["qubit"], "correction qubit"),
                kind=str(c["kind"]),
                domain=frozenset(_int(k, "domain entry") for k in c.get("domain", ())),
            )
            for c in doc.get("corrections", ())
        )
    # OverflowError: an integer angle past the float range
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed pattern document: {exc}") from exc
    return n, edges, MeasurementPattern(steps=steps, outputs=outputs, corrections=corrections)
