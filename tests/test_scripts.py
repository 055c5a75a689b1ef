"""The scripts under scripts/ keep running against the package's API: each
is loaded from its file and its entry point called in-process."""
import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
