"""Adaptive measurement patterns on cluster states (live-width simulator).

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

The simulator holds amplitudes for the live qubits only.  Input qubits
start live.  Any other qubit becomes live, as |+>, when it or one of its
neighbours is measured, or at the end if it is an output; its listed edges
to the qubits already live are applied then, so a repeated edge cancels.
A CZ commutes with the preparation and the measurement of every other
qubit (Danos, Kashefi & Panangaden, *The measurement calculus*,
arXiv:0704.1263), so this order gives the state of preparing every qubit
and applying every CZ first.  A measured qubit is projected and dropped.
A step costs 2**(live qubits), not 2**n: on a chain two qubits are live.

At most ``MAX_QUBITS`` qubits are live at once, in a pattern of at most
``MAX_TOTAL_QUBITS``; exact within floating point.  Plain Python: the
state is a list of ``complex`` and no numpy is imported.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Sequence

__all__ = [
    "MeasurementStep",
    "Correction",
    "MeasurementPattern",
    "PatternResult",
    "run_pattern",
    "pattern_from_dict",
]

MAX_QUBITS = 20  # live at once: 2**20 amplitudes
MAX_TOTAL_QUBITS = 100_000  # in a pattern


# The records are named tuples: immutable, equal and hashed by their fields.
# s_domain, t_domain and domain are frozensets of step indices.
MeasurementStep = namedtuple("MeasurementStep", "qubit angle s_domain t_domain",
                             defaults=(frozenset(), frozenset()))
Correction = namedtuple("Correction", "qubit kind domain",  # kind "X" or "Z"
                        defaults=(frozenset(),))


class MeasurementPattern(namedtuple("MeasurementPattern", (
        "steps",         # tuple of MeasurementStep
        "outputs",       # tuple of qubits
        "corrections"),  # tuple of Correction
        defaults=((),))):
    __slots__ = ()

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


class PatternResult(namedtuple("PatternResult", (
        "outcomes", "probabilities",  # lists, one entry per step
        "state",  # amplitudes of ``outputs``, the first the most significant bit
        "outputs",
        "byproduct_x", "byproduct_z"))):  # {output qubit: 0 or 1}
    __slots__ = ()

    @property
    def probability(self) -> float:
        """Joint probability of the realized outcome branch."""
        return math.prod(self.probabilities, start=1.0)


_ROOT2 = math.sqrt(2.0)


def _parity(bits: list[int], domain: frozenset[int]) -> int:
    return sum(bits[k] for k in domain) % 2


def _weight(branch: list[complex]) -> float:
    """The squared norm of ``branch``, clipped to [0, 1]."""
    return min(max(math.fsum(z.real * z.real + z.imag * z.imag for z in branch), 0.0), 1.0)


def _cz(psi: list[complex], bit: int, mask: int) -> list[complex]:
    """CZ between the qubit at ``bit`` of the amplitude index and each qubit
    in ``mask``: negate the amplitudes with ``bit`` and an odd number of
    ``mask`` bits set."""
    return [-a if k & bit and (k & mask).bit_count() & 1 else a for k, a in enumerate(psi)]


def _split(psi: list[complex], bit: int) -> tuple[list[complex], list[complex]]:
    """The amplitudes with ``bit`` of the index clear and with it set, each
    indexed by the other bits.  Slices of whichever run is longer, the
    stride ``bit`` or the blocks of 2 * ``bit``, so that at most
    sqrt(len(psi)) slices are taken."""
    half, step = len(psi) // 2, 2 * bit
    if bit * bit <= half:
        a0, a1 = [0j] * half, [0j] * half
        for lo in range(bit):
            a0[lo::bit] = psi[lo::step]
            a1[lo::bit] = psi[lo + bit::step]
    else:
        a0, a1 = [], []
        for base in range(0, len(psi), step):
            a0 += psi[base:base + bit]
            a1 += psi[base + bit:base + step]
    return a0, a1


def run_pattern(
    n: int,
    edges: list[tuple[int, int]],
    pattern: MeasurementPattern,
    input_state: Sequence[complex] | None = None,
    input_qubits: tuple[int, ...] = (),
    rng=None,
    forced_outcomes: list[int] | None = None,
) -> PatternResult:
    """Prepare inputs (x) |+> on the rest, entangle along edges, run the pattern.

    ``input_state`` holds amplitudes on ``input_qubits`` (the first input
    qubit is the most significant bit of the amplitude index); the other
    qubits start in |+>.  ``rng`` is anything with a ``random()`` method
    that returns floats in [0, 1), such as ``random.Random`` or a numpy
    Generator.  With ``forced_outcomes`` the stated branch is projected
    instead of sampling, and per-step probabilities record its weights.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    if n > MAX_TOTAL_QUBITS:
        raise ValueError(f"pattern has {n} qubits, past the limit of {MAX_TOTAL_QUBITS}")
    pattern.validate(n)
    if forced_outcomes is not None:
        if len(forced_outcomes) != len(pattern.steps):
            raise ValueError("forced_outcomes must give one bit per step")
        if any(b not in (0, 1) for b in forced_outcomes):
            raise ValueError("forced outcomes are bits")
    elif rng is None and pattern.steps:
        raise ValueError("need an rng (or forced_outcomes) to sample measurements")

    # live[i] is the qubit at bit i of the amplitude index
    if input_state is None:
        if input_qubits:
            raise ValueError("input_qubits given without input_state")
        psi, live = [1 + 0j], []
    else:
        k = len(input_qubits)
        if k > MAX_QUBITS:
            raise ValueError(f"{k} input qubits, past the limit of {MAX_QUBITS} live qubits")
        if len(set(input_qubits)) != k:
            raise ValueError("duplicate input qubit")
        if any(not 0 <= q < n for q in input_qubits):
            raise ValueError(f"input qubits {list(input_qubits)} outside 0..{n - 1}")
        psi = [complex(a) for a in input_state]
        if len(psi) != 1 << k:
            raise ValueError(f"{k} input qubits take {1 << k} amplitudes, got {len(psi)}")
        # hypot scales its arguments: abs(a) ** 2 overflows past 1.3e154
        nrm = math.hypot(*(x for a in psi for x in (a.real, a.imag)))
        if not math.isclose(nrm, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"input state norm {nrm} != 1")
        live = list(reversed(input_qubits))

    partners: dict[int, set[int]] = {}
    for a, b in edges:
        if a == b:
            raise ValueError("self-loop edge")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) has an endpoint outside 0..{n - 1}")
        partners.setdefault(a, set()).symmetric_difference_update((b,))
        partners.setdefault(b, set()).symmetric_difference_update((a,))

    def live_mask(q: int, count: int) -> int:
        """Bits of the first ``count`` live qubits that share an edge with q."""
        near = partners.get(q, ())
        return sum(1 << i for i in range(count) if live[i] in near)

    started = set(live)  # every qubit made live so far, measured or not
    for i in range(len(live)):  # edges among the inputs
        if mask := live_mask(live[i], i):
            psi = _cz(psi, 1 << i, mask)

    def activate(q: int, when: str) -> None:
        nonlocal psi
        if len(live) == MAX_QUBITS:
            raise ValueError(f"{when} needs qubit {q} live with {len(live)} others, "
                             f"past the limit of {MAX_QUBITS} live qubits")
        low = [a / _ROOT2 for a in psi]  # q takes the top bit, as |+>
        mask = live_mask(q, len(live))
        psi = _cz(low + low, 1 << len(live), mask) if mask else low + low
        live.append(q)
        started.add(q)

    outcomes: list[int] = []
    probs: list[float] = []
    for j, st in enumerate(pattern.steps):
        for q in (st.qubit, *sorted(partners.get(st.qubit, ()))):
            if q not in started:
                activate(q, f"step {j}")
        s = _parity(outcomes, st.s_domain)
        t = _parity(outcomes, st.t_domain)
        adapted = (-1.0) ** s * st.angle + math.pi * t
        pos = live.index(st.qubit)
        a0, a1 = _split(psi, 1 << pos)
        phase = cmath.exp(-1j * adapted)
        branch0 = [(x + phase * y) / _ROOT2 for x, y in zip(a0, a1)]
        p0 = _weight(branch0)
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
            post = [(x - phase * y) / _ROOT2 for x, y in zip(a0, a1)]
            # the branch's own weight: 1 - p0 loses a rare outcome's digits
            pm = 1.0 - p0 if p0 in (0.0, 1.0) else _weight(post)
        if pm > 0.0:
            scale = 1.0 / math.sqrt(pm)
            psi = [z * scale for z in post]
        else:
            psi = post  # dead branch; probability 0 recorded
        outcomes.append(m)
        probs.append(pm)
        del live[pos]

    for q in pattern.outputs:
        if q not in started:
            activate(q, "the outputs")
    # order the amplitudes as pattern.outputs, the last output the lowest bit
    index = [0]
    for q in reversed(pattern.outputs):
        w = 1 << live.index(q)
        index += [i + w for i in index]
    state = [psi[i] for i in index]

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


def _int(value, what: str) -> int:
    """A JSON integer; floats and bools are refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _real(value, what: str, index: int | None = None) -> float:
    """A finite JSON number, or ValueError naming ``what.format(index)``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ValueError(f"{what.format(index)} must be a finite number, got {value!r}")
    return float(value)


# the keys each object of a pattern document may hold; a record's are its fields
_PATTERN_KEYS = frozenset(("schema_version", "n", "edges", "steps", "outputs", "corrections",
                           "input"))
_STEP_KEYS, _CORRECTION_KEYS = frozenset(MeasurementStep._fields), frozenset(Correction._fields)
_INPUT_KEYS = frozenset(("qubits", "amplitudes"))


def _known(objects, keys: frozenset, what: str) -> None:
    """Refuse a member of ``objects`` that is not a JSON object or holds a
    key outside ``keys``, naming it as ``what.format(index)``."""
    for i, obj in enumerate(objects):
        if not isinstance(obj, dict):
            raise ValueError(f"{what.format(i)} must be a JSON object, got {type(obj).__name__}")
        if not obj.keys() <= keys:
            raise ValueError(f"unknown keys in {what.format(i)}: {sorted(set(obj) - keys)}")


def pattern_from_dict(doc: dict) -> tuple[int, list[tuple[int, int]], MeasurementPattern,
                                          list[complex] | None, tuple[int, ...]]:
    """``run_pattern``'s arguments ``(n, edges, pattern, input_state,
    input_qubits)`` from the JSON pattern document, the last two ``(None,
    ())`` without ``input``.  Every object refuses keys it does not read."""
    _known((doc,), _PATTERN_KEYS, "pattern document")
    version = _int(doc.get("schema_version", 1), "schema_version")
    if version != 1:
        raise ValueError(f"unsupported schema_version {version!r}")
    try:
        n = _int(doc["n"], "n")
        edges = [(_int(a, "edge endpoint"), _int(b, "edge endpoint"))
                 for a, b in doc["edges"]]
        _known(doc["steps"], _STEP_KEYS, "step {}")
        steps = tuple(
            MeasurementStep(
                qubit=_int(s["qubit"], "step qubit"),
                angle=_real(s["angle"], "step {} angle", i),
                s_domain=frozenset(_int(k, "s_domain entry") for k in s.get("s_domain", ())),
                t_domain=frozenset(_int(k, "t_domain entry") for k in s.get("t_domain", ())),
            )
            for i, s in enumerate(doc["steps"])
        )
        outputs = tuple(_int(q, "output qubit") for q in doc["outputs"])
        _known(doc.get("corrections", ()), _CORRECTION_KEYS, "correction {}")
        corrections = tuple(
            Correction(
                qubit=_int(c["qubit"], "correction qubit"),
                kind=str(c["kind"]),
                domain=frozenset(_int(k, "domain entry") for k in c.get("domain", ())),
            )
            for c in doc.get("corrections", ())
        )
        input_state, input_qubits, inp = None, (), doc.get("input")
        if inp is not None:
            _known((inp,), _INPUT_KEYS, "input")
            if not _INPUT_KEYS <= inp.keys():
                raise ValueError(f"input lacks {sorted(_INPUT_KEYS - inp.keys())}")
            input_qubits = tuple(_int(q, "input qubit") for q in inp["qubits"])
            input_state = []
            for pair in inp["amplitudes"]:
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ValueError(f"input amplitude must be a [re, im] pair, got {pair!r}")
                input_state.append(complex(_real(pair[0], "input amplitude"),
                                           _real(pair[1], "input amplitude")))
    # OverflowError: an integer angle or amplitude past the float range
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed pattern document: {exc}") from exc
    return (n, edges, MeasurementPattern(steps=steps, outputs=outputs, corrections=corrections),
            input_state, input_qubits)
