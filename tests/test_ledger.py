import ast
import dataclasses
import json
from pathlib import Path

import pytest

import poroscat
from poroscat import cli
from poroscat import forward as fw
from poroscat import ledger
from poroscat.material import solve_dispersion
from poroscat.presets import desk_scale_scenario

INVERT_STAGES = ["load", "map", "patterns", "roots", "setup", "solve", "write"]


class TestRecord:
    def test_stage_count_note_fill_the_open_record(self):
        with ledger.record() as rec:
            with ledger.stage("a"):
                pass
            with ledger.stage("a"):
                pass
            ledger.count("n", 2)
            ledger.count("n", 3)
            ledger.note("x", 1.5)
            ledger.note("x", 2.5)
        assert sorted(rec) == ["n", "timings_s", "x"]
        assert list(rec["timings_s"]) == ["a"] and rec["timings_s"]["a"] >= 0.0
        assert rec["n"] == 5 and rec["x"] == 2.5

    def test_innermost_record_receives(self):
        with ledger.record() as outer:
            ledger.count("n", 1)
            with ledger.record() as inner:
                ledger.count("n", 1)
                ledger.note("x", 1)
            ledger.count("n", 1)
        assert outer == {"timings_s": {}, "n": 2}
        assert inner == {"timings_s": {}, "n": 1, "x": 1}

    def test_no_op_outside_a_record(self):
        with ledger.stage("a"):
            ledger.count("n", 1)
            ledger.note("x", 1)
        assert ledger._open == []
        with ledger.record() as rec:
            pass
        assert rec == {"timings_s": {}}

    def test_error_closes_the_record(self):
        with pytest.raises(ZeroDivisionError):
            with ledger.record():
                with ledger.stage("a"):
                    1 / 0
        assert ledger._open == []


def _tiny_scenario(tmp_path) -> Path:
    doc = desk_scale_scenario(resolution=(5, 5), n_dir=2, target_delta=0.05)
    for well in doc["scene"]["wells"]:
        well["samples_per_segment"] = 6
    for frac in doc["scene"]["fractures"]:
        frac["cells"] = [4, 1]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    return path


def test_failed_command_leaves_no_record_open(tmp_path, capsys):
    # an operator norm too small to square exits 2 from inside the map's
    # setup stage; the next invert in the process records as usual
    path = _tiny_scenario(tmp_path)
    good, bad = tmp_path / "good", tmp_path / "bad"
    assert cli.main(["forward", "--scenario", str(path), "--out", str(good)]) == 0
    noisy = fw.load_matrix(good / "lambda_noisy.csv")
    bad.mkdir()
    fw.save_matrix(dataclasses.replace(noisy, data=noisy.data * 1e-300), bad / "lambda_noisy.csv")
    assert cli.main(["invert", "--scenario", str(path), "--out", str(bad)]) == cli.EXIT_VALIDATION
    assert "operator norm" in capsys.readouterr().err
    assert ledger._open == []
    assert cli.main(["invert", "--scenario", str(path), "--out", str(good)]) == 0
    meta = json.loads((good / "invert_meta.json").read_text())
    assert sorted(meta["timings_s"]) == INVERT_STAGES
    assert meta["morozov_roots"] == cli.load_scenario(path).scene.sampling.trial_count
    assert ledger._open == []


def test_library_call_outside_a_record_keeps_nothing(tmp_path):
    sc = cli.load_scenario(_tiny_scenario(tmp_path))
    wave = solve_dispersion(sc.params, sc.omega)
    lam = fw.assemble_lambda(sc.scene, wave, sc.params, "interacting", cutoff=None)
    assert ledger._open == []
    assert [f.name for f in dataclasses.fields(lam)] == [
        "data", "channels", "n_points", "omega", "kind", "mode", "epsilon", "seed", "delta",
        "scene",
    ]
    with ledger.record() as rec:
        pass
    assert rec == {"timings_s": {}}


_CLOCKS = {"perf_counter", "perf_counter_ns", "time", "time_ns", "monotonic", "monotonic_ns"}


def _clock_reads(tree: ast.AST) -> list[str]:
    """Where a module reads a clock of the time module, by import or attribute."""
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "time"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            found += [f"from time import {a.name}" for a in node.names if a.name in _CLOCKS]
        elif (isinstance(node, ast.Attribute) and node.attr in _CLOCKS
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(f"{node.value.id}.{node.attr} at line {node.lineno}")
    return found


def test_only_the_ledger_reads_a_clock():
    # stage seconds are taken in one place, so no stage is timed twice
    src = Path(poroscat.__file__).parent
    reads = {
        path.name: _clock_reads(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(src.glob("*.py"))
    }
    assert reads.pop("ledger.py")
    assert {name: found for name, found in reads.items() if found} == {}
    assert _clock_reads(ast.parse("import time as t\nt.perf_counter()"))
    assert _clock_reads(ast.parse("from time import time"))
