"""Record the CLI's reference runs into cli.json, next to this file.

Run from the repository root, at the commit whose outputs the file pins:

    PYTHONPATH=src python tests/reference/make_cli.py

These are the artifacts that no ``GOLDEN`` digest covers, since they depend
on libm round-off: ``ionize rates`` at three irradiances (every
``rates.json`` field and every ``rates.csv`` column), ``electron
classical``, ``electron mathieu --boundary`` at two values of a, and
``mbqc`` on the 5-qubit chain, with an input state, and on the complete
graph K20 at the live limit, at two seeds each.  A run keeps each JSON
artifact as it is and each CSV file as {column: values}.
``test_cli_artifacts_match_pinned_reference`` runs them again and compares.
A change that moves a value past that test's tolerance reruns this script
and says why.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hexmbqc import cli

PATH = Path(__file__).with_name("cli.json")


def _chain_pattern() -> dict:
    """The universal single-qubit gate on the 5-qubit chain, with byproduct
    domains, on the input state 0.6|0> + 0.8i|1>."""
    angles = (0.3, -0.7, 1.1, 0.2)
    steps = [{"qubit": j, "angle": a, "s_domain": [j - 1] if j else [],
              "t_domain": [j - 2] if j > 1 else []} for j, a in enumerate(angles)]
    return {"schema_version": 1, "n": 5, "edges": [[q, q + 1] for q in range(4)],
            "steps": steps, "outputs": [4],
            "corrections": [{"qubit": 4, "kind": "X", "domain": [1, 3]},
                            {"qubit": 4, "kind": "Z", "domain": [0, 2]}],
            "input": {"qubits": [0], "amplitudes": [[0.6, 0.0], [0.0, 0.8]]}}


def _k20_pattern() -> dict:
    """The complete graph on twenty qubits, nineteen of them measured with
    adapted angles: all twenty are live at the first step."""
    n = 20
    steps = [{"qubit": q, "angle": 0.37 * q, "s_domain": [q - 1] if q else [],
              "t_domain": [q - 2] if q > 1 else []} for q in range(n - 1)]
    return {"schema_version": 1, "n": n,
            "edges": [[a, b] for a in range(n) for b in range(a + 1, n)],
            "steps": steps, "outputs": [n - 1],
            "corrections": [{"qubit": n - 1, "kind": "X", "domain": [n - 2]},
                            {"qubit": n - 1, "kind": "Z", "domain": [0, n - 3]}]}


PATTERNS = {"chain": _chain_pattern, "k20": _k20_pattern}
# label -> (argv, artifacts); "{chain}" and "{k20}" stand for the pattern files
RUNS = {
    "ionize rates 3e8": (["ionize", "rates", "--irradiance", "3e8", "--i-min", "1e8",
                          "--i-max", "1e9", "--points", "4"], ("rates.json", "rates.csv")),
    "ionize rates 1e9": (["ionize", "rates", "--irradiance", "1e9", "--points", "5"],
                         ("rates.json", "rates.csv")),
    "ionize rates 7.5e9": (["ionize", "rates", "--irradiance", "7.5e9", "--i-min", "2e9",
                            "--i-max", "3e10", "--points", "6"], ("rates.json", "rates.csv")),
    "electron classical": (["electron", "classical", "--t", "1.5e-9", "--omega-e", "2e9"],
                           ("classical.json",)),
    "electron mathieu a=0": (["electron", "mathieu", "--q", "0.9", "--boundary"],
                             ("mathieu.json",)),
    "electron mathieu a=0.1": (["electron", "mathieu", "--a", "0.1", "--q", "0.5",
                                "--boundary"], ("mathieu.json",)),
    **{f"mbqc {name} seed {seed}": (["mbqc", "--pattern", "{%s}" % name, "--seed", str(seed)],
                                    ("mbqc_result.json",))
       for name in PATTERNS for seed in (7, 9)},
}


def _read(path: Path):
    """A JSON artifact as it is; a CSV file as {column: [float, ...]}."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    header, *rows = path.read_text().splitlines()
    columns = zip(*(map(float, row.split(",")) for row in rows))
    return dict(zip(header.split(","), map(list, columns)))


def record(label: str) -> dict:
    """The artifacts of run ``label``, read back from a fresh directory."""
    argv, artifacts = RUNS[label]
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, make in PATTERNS.items():
            files[name] = Path(tmp, f"{name}.json")
            files[name].write_text(json.dumps(make()))
        out = Path(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.dispatch([arg.format(**files) for arg in argv] + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{label}: exit {code}")
        return {name: _read(out / name) for name in artifacts}


def main() -> None:
    doc = {label: {"argv": RUNS[label][0], "artifacts": record(label)} for label in RUNS}
    PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
