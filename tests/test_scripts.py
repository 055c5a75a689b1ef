"""The scripts under scripts/ keep running against the package's API: each
is loaded from its file and its entry point called in-process."""
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


@pytest.fixture
def load(monkeypatch):
    # fingerprint.py pins OpenBLAS to one thread for processes it starts
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    def load(name):
        spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


def test_rank_margin_prints_each_two_phase_point(load, capsys):
    assert load("rank_margin").main() == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[:-2]]
    assert len(rows) == 87 and all(len(row) == 3 for row in rows)
    assert all((int(rank) == 4) == (float(margin) > 0.0) for _, rank, margin in rows)
    assert lines[-2].startswith("closest point whose flip breaks the window, inside it")
    assert lines[-1].startswith("closest point whose flip breaks the window, after it")


def test_fingerprint_lists_and_hashes_a_sweep(load, capsys):
    fingerprint = load("fingerprint")
    assert fingerprint.main(["--list"]) == 0
    listed = capsys.readouterr().out
    assert all(name in listed for name in fingerprint.FIXTURES)
    assert fingerprint.main(["sweep_1c_nr2"]) == 0
    assert re.fullmatch(r"sweep_1c_nr2 [0-9a-f]{64} \d+\.\d\n", capsys.readouterr().out)


def test_substep_cost_times_each_kernel_at_one_size(load, capsys):
    assert load("substep_cost").main(["--nr", "4", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"float N_r=4 +\d+\.\d us per substep", lines[0])
    assert re.fullmatch(r"serial N_r=4 +\d+\.\d us per step \(simulate, C/4 in two-phase\)",
                        lines[1])


def test_traced_layers_resolve():
    """Every layer the benchmark's tracer wraps (LAYERS of
    perfbench/tracing.py, read and run without writing under perfbench/)
    names a callable of csespm, as the tracer looks it up: a missing class
    crashes every traced run."""
    path = ROOT / "perfbench" / "tracing.py"
    namespace = {"__name__": "tracing"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    missing = []
    for module, dotted, _ in namespace["LAYERS"]:
        owner = importlib.import_module(module)
        *outer, attr = dotted.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(fn):
            missing.append(f"{module}:{dotted}")
    assert missing == []
