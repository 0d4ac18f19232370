import dataclasses
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poroscat
from poroscat import cli
from poroscat import forward as fw
from poroscat import greens
from poroscat import inversion as inv
from poroscat.errors import CompatibilityError, ConditioningError, ValidationError
from poroscat.material import solve_dispersion
from poroscat.presets import desk_scale_scenario

from oracles import clamp_psd, coupled_jumps


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name: str):
    """A module of the benchmark harness, loaded once from its file."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def _tiny_doc() -> dict:
    doc = desk_scale_scenario(resolution=(5, 5), n_dir=2, target_delta=0.05)
    # keep CLI tests quick: fewer sensing points and cells
    for well in doc["scene"]["wells"]:
        well["samples_per_segment"] = 6
    for frac in doc["scene"]["fractures"]:
        frac["cells"] = [4, 1]
    return doc


# Pecos sandstone in SI units, with its reference scales
_DIMENSIONAL = {
    "dimensional": {
        "lam": 2.74e9, "mu": 5.85e9, "M": 9.71e9, "rho": 2270.0,
        "rho_f": 1000.0, "rho_a": 117.0, "kappa": 0.8e-12,
        "phi": 0.195, "alpha": 0.83,
    },
    "scales": {"mu_r": 5.85e9, "rho_r": 1000.0, "ell_r": 0.14},
}


@pytest.fixture(scope="module")
def tiny_scenario_doc():
    return _tiny_doc()


@pytest.fixture()
def scenario_path(tmp_path, tiny_scenario_doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(tiny_scenario_doc))
    return path


class TestLoadScenario:
    def test_desk_scale_loads(self, scenario_path):
        sc = cli.load_scenario(scenario_path)
        assert sc.scene.grid.count == 12
        assert sc.omega == pytest.approx(3.91)
        assert sc.method == "lsm"

    def test_h_shaped_well_count(self, tmp_path, tiny_scenario_doc):
        doc = json.loads(json.dumps(tiny_scenario_doc))
        doc["scene"]["wells"] = [
            {"points": [[-5.0, -8.0, 0.0], [-5.0, 8.0, 0.0]], "samples_per_segment": 110},
            {"points": [[5.0, -8.0, 0.0], [5.0, 8.0, 0.0]], "samples_per_segment": 110},
            {"points": [[-4.9, 0.3, 0.0], [4.9, 0.3, 0.0]], "samples_per_segment": 110},
        ]
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        sc = cli.load_scenario(path)
        assert sc.scene.grid.count == 330

    def test_missing_material_named(self, tmp_path, tiny_scenario_doc):
        doc = json.loads(json.dumps(tiny_scenario_doc))
        del doc["material"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="material"):
            cli.load_scenario(path)

    def test_unknown_key_rejected(self, tmp_path, tiny_scenario_doc):
        doc = json.loads(json.dumps(tiny_scenario_doc))
        doc["scene"]["sampling"]["n_directions"] = 8
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="n_directions"):
            cli.load_scenario(path)

    def test_dimensional_material_block(self, tmp_path, tiny_scenario_doc):
        doc = json.loads(json.dumps(tiny_scenario_doc))
        doc["material"] = _DIMENSIONAL
        doc["frequency"] = {"omega_prime": 2 * math.pi * 12e3}
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(doc))
        sc = cli.load_scenario(path)
        assert sc.params.mu == 1.0
        assert sc.params.lam == pytest.approx(0.468, abs=1e-3)


class TestRunForward:
    def test_zero_epsilon_payloads_identical(self, tmp_path, tiny_scenario_doc):
        doc = json.loads(json.dumps(tiny_scenario_doc))
        doc["noise"] = {"epsilon": 0.0, "seed": 3}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        sc = cli.load_scenario(path)
        cli.run_forward(sc, tmp_path / "out")

        def payload(p):
            return [l for l in p.read_text().splitlines() if not l.startswith("#")]

        assert payload(tmp_path / "out/lambda.csv") == payload(
            tmp_path / "out/lambda_noisy.csv"
        )

    def test_target_delta_recorded_and_recomputable(self, tmp_path, scenario_path):
        sc = cli.load_scenario(scenario_path)
        meta = cli.run_forward(sc, tmp_path / "out")
        clean = fw.load_matrix(tmp_path / "out/lambda.csv")
        noisy = fw.load_matrix(tmp_path / "out/lambda_noisy.csv")
        achieved = np.linalg.norm(noisy.data - clean.data, 2)
        assert meta["achieved_delta"] == pytest.approx(achieved, rel=1e-10)
        assert meta["achieved_delta"] == pytest.approx(0.05, rel=1e-9)

    def test_rerun_byte_identical(self, tmp_path, scenario_path):
        sc = cli.load_scenario(scenario_path)
        cli.run_forward(sc, tmp_path / "a")
        cli.run_forward(sc, tmp_path / "b")
        for name in ("lambda.csv", "lambda_noisy.csv", "resolved_scenario.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_resolved_scenario_written(self, tmp_path, scenario_path):
        sc = cli.load_scenario(scenario_path)
        cli.run_forward(sc, tmp_path / "out")
        resolved = json.loads((tmp_path / "out/resolved_scenario.json").read_text())
        assert resolved["forward"]["mode"] == "local"
        assert resolved["scene"]["channels"] == ["fx", "fy", "fluid"]

    @pytest.mark.parametrize("workload", ["desk-image", "network-forward", "fine-grid-fixed"])
    def test_resolved_echo_reproduces_matrices(self, tmp_path, workload):
        # the echo is a scenario: forward on it writes the same files
        doc = _perfbench("workloads").scenario_doc(workload, 1, smoke=True)
        (tmp_path / "s.json").write_text(json.dumps(doc))
        assert cli.main(["forward", "--scenario", str(tmp_path / "s.json"),
                         "--out", str(tmp_path / "a")]) == 0
        echo = tmp_path / "a" / "resolved_scenario.json"
        assert cli.main(["forward", "--scenario", str(echo), "--out", str(tmp_path / "b")]) == 0
        for name in ("lambda.csv", "lambda_noisy.csv", "resolved_scenario.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_echo_records_overrides(self, tmp_path, scenario_path):
        argv = ["forward", "--scenario", str(scenario_path), "--out", str(tmp_path / "a")]
        assert cli.main(argv + ["--seed", "7", "--mode", "interacting"]) == 0
        echo = tmp_path / "a" / "resolved_scenario.json"
        resolved = json.loads(echo.read_text())
        assert resolved["noise"]["seed"] == 7
        assert resolved["forward"]["mode"] == "interacting"
        assert cli.main(["forward", "--scenario", str(echo), "--out", str(tmp_path / "b")]) == 0
        for name in ("lambda.csv", "lambda_noisy.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("key, value", [("delta", 0.05), ("fixed_alpha", 1e-3)])
    def test_removed_inversion_key_refused(self, tmp_path, scenario_path, capsys, key, value):
        # delta comes from the matrix file and the fixed alpha from the roots
        # at the grid centre: the echo holds neither key and reloads, and a
        # scenario that holds one (an older echo, say) exits 2 naming it
        assert cli.main(["forward", "--scenario", str(scenario_path), "--out", str(tmp_path)]) == 0
        echo = json.loads((tmp_path / "resolved_scenario.json").read_text())
        assert echo["inversion"] == {"method": "lsm", "alpha_policy": "per-candidate"}
        assert cli.parse_scenario(echo).resolved == echo
        echo["inversion"].update({"alpha_policy": "fixed", key: value})
        (tmp_path / "old.json").write_text(json.dumps(echo))
        out = tmp_path / "b"
        argv = ["forward", "--scenario", str(tmp_path / "old.json"), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert f"inversion: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_beyond_scenario_range_rejected(self, tmp_path, scenario_path, capsys):
        # an override seed follows noise.seed's rule, so every echo reruns;
        # a refused one writes nothing
        out = tmp_path / "a"
        argv = ["forward", "--scenario", str(scenario_path), "--out", str(out)]
        assert cli.main(argv + ["--seed", str(2**64)]) == cli.EXIT_VALIDATION
        assert f"--seed must be an integer of magnitude below {2**64}" in capsys.readouterr().err
        assert cli.main(argv + ["--seed", "-5"]) == cli.EXIT_VALIDATION
        assert "--seed must be at least 0, got -5" in capsys.readouterr().err
        assert not out.exists()


class TestRunInvert:
    def test_maps_written_with_pgm_dimensions(self, tmp_path, scenario_path):
        sc = cli.load_scenario(scenario_path)
        cli.run_forward(sc, tmp_path / "out")
        meta = cli.run_invert(sc, tmp_path / "out")
        assert meta["method"] == "lsm"
        pgm = (tmp_path / "out/map_lsm.pgm").read_text().splitlines()
        assert pgm[0] == "P2"
        assert pgm[1] == "5 5"
        assert pgm[2] == "255"
        assert len(pgm) == 3 + 5
        imap = inv.load_indicator_map(tmp_path / "out/map_lsm.csv")
        assert imap.raw.shape == (25,)

    def test_single_point_grid_single_row(self, tmp_path, tiny_scenario_doc):
        doc = json.loads(json.dumps(tiny_scenario_doc))
        doc["scene"]["sampling"]["resolution"] = [1, 1]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        sc = cli.load_scenario(path)
        cli.run_forward(sc, tmp_path / "out")
        cli.run_invert(sc, tmp_path / "out")
        rows = [
            l
            for l in (tmp_path / "out/map_lsm.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert len(rows) == 1

    def test_mismatched_matrix_rejected(self, tmp_path, scenario_path, tiny_scenario_doc):
        sc = cli.load_scenario(scenario_path)
        cli.run_forward(sc, tmp_path / "out")
        doc = json.loads(json.dumps(tiny_scenario_doc))
        for well in doc["scene"]["wells"]:
            well["samples_per_segment"] = 7
        path2 = tmp_path / "other.json"
        path2.write_text(json.dumps(doc))
        other = cli.load_scenario(path2)
        with pytest.raises(ValidationError, match="does not"):
            cli.run_invert(other, tmp_path / "out")

    def test_matrix_at_other_frequency_rejected(self, tmp_path, scenario_path, capsys):
        # a matrix assembled at omega = 3.91 does not image a scenario at 2.0
        out = tmp_path / "out"
        assert cli.main(["forward", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        doc = json.loads(scenario_path.read_text())
        doc["frequency"]["omega"] = 2.0
        (tmp_path / "other.json").write_text(json.dumps(doc))
        rc = cli.main(["invert", "--scenario", str(tmp_path / "other.json"), "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "does not match" in err and "omega 3.91" in err and "omega 2.0" in err
        assert not (out / "map_lsm.csv").exists()

    def test_matrix_of_other_scene_rejected(self, tmp_path, scenario_path, capsys):
        # every well moved 0.7 in x and mu doubled keep the point count,
        # the channels and omega; the scene digest tells the scenes apart
        out = tmp_path / "out"
        assert cli.main(["forward", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        doc = json.loads(scenario_path.read_text())
        for well in doc["scene"]["wells"]:
            for point in well["points"]:
                point[0] += 0.7
        doc["material"]["dimensionless"]["mu"] *= 2.0
        (tmp_path / "other.json").write_text(json.dumps(doc))
        rc = cli.main(["invert", "--scenario", str(tmp_path / "other.json"), "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        other = cli.load_scenario(tmp_path / "other.json")
        err = capsys.readouterr().err
        assert fw.load_matrix(out / "lambda_noisy.csv").scene in err
        assert fw._scene_digest(other.scene, other.params) in err
        assert not (out / "map_lsm.csv").exists()
        # the same scene on another sampling grid images it
        doc = json.loads(scenario_path.read_text())
        doc["scene"]["sampling"]["resolution"] = [4, 6]
        (tmp_path / "resampled.json").write_text(json.dumps(doc))
        rc = cli.main(["invert", "--scenario", str(tmp_path / "resampled.json"), "--out", str(out)])
        assert rc == 0 and (out / "map_lsm.csv").exists()

    def test_map_pipeline_deterministic(self, tmp_path, scenario_path):
        sc = cli.load_scenario(scenario_path)
        for sub in ("a", "b"):
            cli.run_forward(sc, tmp_path / sub)
            cli.run_invert(sc, tmp_path / sub)
        for name in ("map_lsm.csv", "map_lsm.pgm"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestRunCheck:
    def test_reference_scenario_passes(self, tmp_path, scenario_path):
        sc = cli.load_scenario(scenario_path)
        results = cli.run_check(sc, tmp_path / "out")
        by_name = {r["name"]: r for r in results}
        assert by_name["dispersion_reference_speeds"]["status"] == "pass"
        assert by_name["fundamental_solution_pde_residual"]["status"] == "pass"
        assert by_name["adjoint_identity"]["status"] == "pass"
        assert by_name["factorization_consistency"]["status"] == "pass"
        assert by_name["lambda_sharp_psd"]["status"] == "pass"
        assert by_name["morozov_closed_form"]["status"] == "pass"
        assert by_name["contact_admissibility"]["status"] == "pass"
        assert by_name["operator_reciprocity"]["status"] == "pass"
        assert by_name["dislocation_reciprocity"]["status"] == "pass"
        report = json.loads((tmp_path / "out/check_report.json").read_text())
        assert len(report) == len(results)

    def test_trace_kernel_evaluated_once(self, monkeypatch, scenario_path):
        # both closures reuse the S and R the adjoint check builds
        sc = cli.load_scenario(scenario_path)
        assert len(sc.scene.patches) == 2
        block, calls = fw._kernel_block, []

        def counted(*args):
            calls.append(args)
            return block(*args)

        monkeypatch.setattr(fw, "_kernel_block", counted)
        cli.run_check(sc)
        assert len(calls) == 1

    def test_factors_built_once(self, monkeypatch, scenario_path):
        # every check reads the one set of cells and contact blocks
        sc = cli.load_scenario(scenario_path)
        calls = []
        for name in ("_collect_cells", "_contact_blocks"):
            def counted(*args, _name=name, _fn=getattr(fw, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(fw, name, counted)
        cli.run_check(sc)
        assert sorted(calls) == ["_collect_cells", "_contact_blocks"]

    def test_wrong_cell_transfer_flagged(self, monkeypatch, scenario_path):
        # L built with each cell's transfer block moved to the next cell no
        # longer matches the contact conditions solved cell by cell
        sc = cli.load_scenario(scenario_path)
        factors = fw._factors

        def planted(*args):
            f = factors(*args)
            T = np.roll(f.interface.T, 1, axis=0)
            return f._replace(interface=f.interface._replace(T=T))

        monkeypatch.setattr(fw, "_factors", planted)
        by_name = {r["name"]: r for r in cli.run_check(sc)}
        assert by_name["factorization_consistency"]["status"] == "fail"

    def test_inadmissible_contact_flagged(self, tmp_path, tiny_scenario_doc):
        doc = json.loads(json.dumps(tiny_scenario_doc))
        doc["scene"]["contact"]["kappa_f"] = -1e-3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        sc = cli.load_scenario(path)
        results = cli.run_check(sc)
        by_name = {r["name"]: r for r in results}
        assert by_name["contact_admissibility"]["status"] == "fail"

    def test_empty_fracture_scene_factorization_trivial(self, tmp_path, tiny_scenario_doc):
        doc = json.loads(json.dumps(tiny_scenario_doc))
        doc["scene"]["fractures"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        sc = cli.load_scenario(path)
        results = cli.run_check(sc)
        by_name = {r["name"]: r for r in results}
        assert by_name["factorization_consistency"]["status"] == "pass"
        assert by_name["operator_reciprocity"]["status"] == "pass"
        assert by_name["adjoint_identity"]["status"] == "skip"
        assert by_name["dislocation_reciprocity"]["status"] == "skip"


class TestMainEntry:
    def test_check_command_exit_zero(self, tmp_path, scenario_path, capsys):
        rc = cli.main(
            ["check", "--scenario", str(scenario_path), "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "CHECK dispersion_reference_speeds: PASS" in out

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"material\": {}}")
        rc = cli.main(["forward", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_VALIDATION

    def test_missing_file_exit_code(self, tmp_path):
        rc = cli.main(
            ["forward", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert rc == cli.EXIT_VALIDATION

    def test_io_exit_code(self, tmp_path, scenario_path, capsys):
        # --out names an existing regular file, so no output directory is made
        out = tmp_path / "taken"
        out.write_text("")
        rc = cli.main(["forward", "--scenario", str(scenario_path), "--out", str(out)])
        assert rc == cli.EXIT_IO
        assert "i/o error: [Errno 17] File exists" in capsys.readouterr().err

    def test_numerical_exit_code(self, tmp_path, scenario_path, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise ConditioningError("coupled system is singular")

        monkeypatch.setattr(fw, "assemble_lambda", singular)
        rc = cli.main(["forward", "--scenario", str(scenario_path), "--out", str(tmp_path)])
        assert rc == cli.EXIT_NUMERICAL
        assert "numerical error: coupled system is singular" in capsys.readouterr().err

    def test_map_command(self, tmp_path, scenario_path, capsys):
        rc = cli.main(
            [
                "map", "--scenario", str(scenario_path), "--out", str(tmp_path / "o"),
                "--method", "lsm",
            ]
        )
        assert rc == 0
        assert (tmp_path / "o" / "map_lsm.csv").exists()
        assert (tmp_path / "o" / "map_lsm.pgm").exists()

    @pytest.mark.parametrize("method", ["lsm", "glsm"])
    def test_sampling_point_on_sensing_point_gives_nan(
        self, tmp_path, tiny_scenario_doc, method
    ):
        # two corners of this region are the end points of the first well
        doc = json.loads(json.dumps(tiny_scenario_doc))
        doc["scene"]["sampling"]["region"] = [-3.2, 2.8, -3.0, 3.0]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        rc = cli.main(
            ["map", "--scenario", str(path), "--out", str(out), "--method", method]
        )
        assert rc == 0
        scene = cli.load_scenario(path).scene
        on_sensor = np.array(
            [(scene.grid.points == p).all(axis=1).any() for p in scene.sampling.points()]
        )
        assert on_sensor.sum() == 2
        imap = inv.load_indicator_map(out / f"map_{method}.csv")
        assert np.isnan(imap.raw[on_sensor]).all()
        assert np.isfinite(imap.raw[~on_sensor]).all()
        assert imap.degenerate_count == 2

    @pytest.mark.parametrize("entry", ["nan,0", "1.0,abc", "", "# note"])
    def test_bad_matrix_entry_rejected(self, tmp_path, scenario_path, entry, capsys):
        # a bad row, a blank line or a comment between rows: the message
        # names the line
        out = tmp_path / "o"
        assert cli.main(["forward", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        path = out / "lambda_noisy.csv"
        lines = path.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[first + 5] = entry
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CompatibilityError, match="matrix entry"):
            fw.load_matrix(path)
        rc = cli.main(["invert", "--scenario", str(scenario_path), "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert f"matrix entry {entry!r}" in capsys.readouterr().err

    def test_matrix_line_ends(self, tmp_path, scenario_path, capsys):
        # the written matrix reads without its final newline, to the same
        # map; with CR LF line ends it is refused at its first line
        out = tmp_path / "o"
        argv = ["--scenario", str(scenario_path), "--out", str(out)]
        assert cli.main(["map", *argv]) == 0
        path, written = out / "lambda_noisy.csv", (out / "map_lsm.csv").read_bytes()
        text = path.read_bytes()
        path.write_bytes(text[:-1])
        assert cli.main(["invert", *argv]) == 0
        assert (out / "map_lsm.csv").read_bytes() == written
        path.write_bytes(text.replace(b"\n", b"\r\n"))
        assert cli.main(["invert", *argv]) == cli.EXIT_VALIDATION
        assert "not a poroscat-matrix v1 file: '# poroscat-matrix v1\\r'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("n_points", "twelve"), ("omega", "x"), ("seed", "1.5")]
    )
    def test_bad_header_value_rejected(self, tmp_path, scenario_path, key, value, capsys):
        out = tmp_path / "o"
        assert cli.main(["forward", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        path = out / "lambda_noisy.csv"
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(f"# {key} ="))
        lines[i] = f"# {key} = {value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CompatibilityError, match="bad header value"):
            fw.load_matrix(path)
        rc = cli.main(["invert", "--scenario", str(scenario_path), "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert "bad header value" in capsys.readouterr().err

    def test_fixed_alpha_with_center_on_sensing_point(self, tmp_path, tiny_scenario_doc):
        # centre the sampling region on the third sensing point: the fixed
        # policy's roots move to a neighbouring sampling point
        x, y, _ = cli.parse_scenario(tiny_scenario_doc).scene.grid.points[2]
        doc = json.loads(json.dumps(tiny_scenario_doc))
        doc["scene"]["sampling"]["region"] = [x - 2.0, x + 2.0, y - 2.0, y + 2.0]
        doc["inversion"]["alpha_policy"] = "fixed"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        scene = cli.load_scenario(path).scene
        pts = scene.sampling.points()
        on_sensor = np.array([(scene.grid.points == p).all(axis=1).any() for p in pts])
        center = np.argmin(np.linalg.norm(pts - (x, y, scene.sampling.plane_z), axis=1))
        assert np.flatnonzero(on_sensor).tolist() == [center]
        out = tmp_path / "o"
        rc = cli.main(["map", "--scenario", str(path), "--out", str(out), "--method", "glsm"])
        assert rc == 0
        imap = inv.load_indicator_map(out / "map_glsm.csv")
        assert np.isnan(imap.raw[on_sensor]).all()
        assert np.isfinite(imap.raw[~on_sensor]).all()

    @pytest.mark.parametrize("override", [None, "lsm"])
    def test_lsm_refuses_fixed_alpha_policy(self, tmp_path, tiny_scenario_doc, capsys, override):
        # the fixed policy is glsm's: an lsm invert under it, by the
        # scenario's method or by --method lsm, exits 2 and names the
        # policy, and the same scenario inverts with --method glsm without
        # a RuntimeWarning
        doc = json.loads(json.dumps(tiny_scenario_doc))
        doc["inversion"].update(method="glsm" if override else "lsm", alpha_policy="fixed")
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        argv = ["invert", "--scenario", str(path), "--out", str(out)]
        assert cli.main(["forward", "--scenario", str(path), "--out", str(out)]) == 0
        assert cli.main(argv + (["--method", override] if override else [])) == cli.EXIT_VALIDATION
        assert "alpha_policy 'fixed'" in capsys.readouterr().err
        assert not (out / "map_lsm.csv").exists()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(argv + ["--method", "glsm"]) == 0

    @pytest.mark.parametrize(
        "method, policy", [("lsm", "per-candidate"), ("glsm", "per-candidate"), ("glsm", "fixed")]
    )
    def test_zero_matrix_gives_nan_map(self, tmp_path, tiny_scenario_doc, method, policy):
        # a zero operator leaves no candidate usable anywhere: under every
        # method and alpha policy the map is all NaN and invert exits 0
        doc = json.loads(json.dumps(tiny_scenario_doc))
        doc["inversion"].update(method=method, alpha_policy=policy)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert cli.main(["forward", "--scenario", str(path), "--out", str(out)]) == 0
        noisy = fw.load_matrix(out / "lambda_noisy.csv")
        zero = dataclasses.replace(noisy, data=np.zeros_like(noisy.data))
        fw.save_matrix(zero, out / "lambda_noisy.csv")
        assert cli.main(["invert", "--scenario", str(path), "--out", str(out)]) == 0
        imap = inv.load_indicator_map(out / f"map_{method}.csv")
        assert np.isnan(imap.raw).all()
        meta = json.loads((out / "invert_meta.json").read_text())
        assert meta["degenerate_points"] == imap.grid.point_count
        assert meta["morozov_roots"] == 0 and meta["sigma_max"] == 0.0

    @pytest.mark.parametrize("method", ["lsm", "glsm"])
    @pytest.mark.parametrize("region", [None, [-3.2, 2.8, -3.0, 3.0]])
    def test_root_counters_in_meta(self, tmp_path, tiny_scenario_doc, method, region):
        # the second region puts two sampling points on sensing points
        doc = json.loads(json.dumps(tiny_scenario_doc))
        if region is not None:
            doc["scene"]["sampling"]["region"] = region
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert cli.main(["map", "--scenario", str(path), "--out", str(out), "--method", method]) == 0
        meta = json.loads((out / "invert_meta.json").read_text())
        sampling = cli.load_scenario(path).scene.sampling
        live = sampling.point_count - (2 if region else 0)
        assert meta["morozov_roots"] == live * len(sampling.candidates())
        low, high = meta["morozov_unbracketed_low"], meta["morozov_unbracketed_high"]
        assert 0 <= low and 0 <= high and low + high <= meta["morozov_roots"]

    @pytest.mark.parametrize(
        "method, policy", [("lsm", "per-candidate"), ("glsm", "per-candidate"), ("glsm", "fixed")]
    )
    def test_stage_timings_in_meta(self, tmp_path, tiny_scenario_doc, method, policy):
        doc = json.loads(json.dumps(tiny_scenario_doc))
        doc["inversion"]["alpha_policy"] = policy
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert cli.main(["map", "--scenario", str(path), "--out", str(out), "--method", method]) == 0
        meta = json.loads((out / "invert_meta.json").read_text())
        # the one alpha of the fixed policy, null where each candidate has its own
        assert (meta["fixed_alpha"] > 0.0) if policy == "fixed" else meta["fixed_alpha"] is None
        timings = meta["timings_s"]
        keys = ("load", "map", "patterns", "roots", "solve", "setup", "write")
        assert sorted(timings) == sorted(keys)
        assert all(timings[k] >= 0.0 for k in keys)
        assert sum(timings[k] for k in ("patterns", "roots", "solve", "setup")) <= timings["map"]

    def test_closure_health_in_meta(self, tmp_path):
        # interacting mode records the coupled solve's residual and the
        # closure gap ||L_int - L_loc|| / ||L_loc||; local mode records null
        doc = _perfbench("workloads").scenario_doc("network-forward", 1, smoke=True)
        (tmp_path / "s.json").write_text(json.dumps(doc))
        sc = cli.load_scenario(tmp_path / "s.json")
        assert sc.forward_mode == "interacting"
        cli.run_forward(sc, tmp_path / "i")
        cli.run_forward(sc, tmp_path / "l", mode="local")
        wave = solve_dispersion(sc.params, sc.omega)
        loc, inter = (
            fw.assemble_lambda(sc.scene, wave, sc.params, mode, sc.forward_cutoff).data
            for mode in ("local", "interacting")
        )
        gap = np.linalg.norm(inter - loc) / np.linalg.norm(loc)
        # the reference residual is that of the jumps the assembly solves for
        f = fw._factors(sc.scene, wave, sc.params)
        S, iface = f.S, f.interface
        [M] = fw._interaction_matrix(iface, wave, sc.params)
        blocks = S.reshape(iface.cells.count, 5, -1)
        rhs = np.einsum("cij,cjk->cik", iface.E, blocks).reshape(S.shape)
        jumps = coupled_jumps(iface, S, fw._coupled(iface, (wave, sc.params, sc.forward_cutoff)))
        res = np.linalg.norm(M @ jumps - rhs) / np.linalg.norm(rhs)
        meta = json.loads((tmp_path / "i/forward_meta.json").read_text())
        assert 0.0 < meta["coupled_residual"] <= 1e-8
        assert meta["coupled_residual"] == pytest.approx(res, rel=1e-6)
        assert gap > 0.0 and abs(meta["closure_gap"] - gap) <= 1e-12 * gap
        meta = json.loads((tmp_path / "l/forward_meta.json").read_text())
        assert meta["coupled_residual"] is None and meta["closure_gap"] is None

    @pytest.mark.parametrize(
        "lift, mode, blocks",
        [
            (None, "interacting", [32]),  # 8 cells on the plane: the even block of 4 x 8
            (0.3, "interacting", [40]),  # one fracture centred at z = 0.3: one LU of M
            (None, "local", None),
        ],
    )
    def test_coupled_blocks_in_meta(self, tmp_path, lift, mode, blocks):
        # the sizes of the blocks the coupled solve factored
        doc = _perfbench("workloads").scenario_doc("network-forward", 1, smoke=True)
        if lift is not None:
            frac = doc["scene"]["fractures"][0]
            frac["center"] = [*frac["center"], lift]
        (tmp_path / "s.json").write_text(json.dumps(doc))
        sc = cli.load_scenario(tmp_path / "s.json")
        meta = cli.run_forward(sc, tmp_path / "o", mode=mode)
        assert json.loads((tmp_path / "o/forward_meta.json").read_text()) == meta
        assert meta["coupled_blocks"] == blocks
        # two 4-cell patches: every cell is its own image, so the fill is over all of them
        assert meta["kernel_pairs"] == (None if blocks is None else 16)

    @pytest.mark.parametrize("mode", ["local", "interacting"])
    def test_forward_stage_timings_in_meta(self, tmp_path, mode):
        # forward times its file writes, and an interacting assembly the fill
        # of M and its LU solve, which are part of the assembly
        doc = _perfbench("workloads").scenario_doc("network-forward", 1, smoke=True)
        (tmp_path / "s.json").write_text(json.dumps(doc))
        sc = cli.load_scenario(tmp_path / "s.json")
        timings = cli.run_forward(sc, tmp_path / "o", mode=mode)["timings_s"]
        meta = json.loads((tmp_path / "o/forward_meta.json").read_text())
        assert meta["timings_s"] == timings
        keys = ["assemble", "noise", "write"]
        keys += ["coupling", "solve"] if mode == "interacting" else []
        assert sorted(timings) == sorted(keys)
        assert all(timings[k] >= 0.0 for k in keys)
        if mode == "interacting":
            assert timings["coupling"] + timings["solve"] <= timings["assemble"]

    def test_spectrum_summary_in_meta(self, tmp_path):
        # L's singular values against delta, from an SVD of the written matrix
        doc = _perfbench("workloads").scenario_doc("desk-image", 1, smoke=True)
        (tmp_path / "s.json").write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert cli.main(["map", "--scenario", str(tmp_path / "s.json"), "--out", str(out)]) == 0
        noisy = fw.load_matrix(out / "lambda_noisy.csv")
        s = np.linalg.svd(noisy.data, compute_uv=False)
        tol = s[0] * max(noisy.data.shape) * np.finfo(float).eps
        meta = json.loads((out / "invert_meta.json").read_text())
        assert meta["operator_rank"] == np.count_nonzero(s > tol) < s.size
        assert meta["sigma_max"] == pytest.approx(s[0], rel=1e-12)
        assert meta["sigma_above_delta"] == np.count_nonzero(s > meta["delta"])
        assert meta["relative_delta"] == pytest.approx(meta["delta"] / s[0], rel=1e-12)
        assert meta["method"] == "lsm" and meta["pencil_rank"] is None
        # the GLSM pencil's rank: the singular values of C^-1 L^H, C C^H = L#_psd + delta I
        argv = ["invert", "--scenario", str(tmp_path / "s.json"), "--out", str(out)]
        assert cli.main(argv + ["--method", "glsm"]) == 0
        gmeta = json.loads((out / "invert_meta.json").read_text())
        L, n = noisy.data, noisy.data.shape[1]
        C = np.linalg.cholesky(clamp_psd(inv.lambda_sharp(L)) + gmeta["delta"] * np.eye(n))
        x = np.linalg.svd(np.linalg.solve(C, L.conj().T), compute_uv=False)
        rank = np.count_nonzero(x > x[0] * max(L.shape) * np.finfo(float).eps)
        assert gmeta["pencil_rank"] == rank < n
        assert gmeta["operator_rank"] == meta["operator_rank"]
        fmeta = json.loads((out / "forward_meta.json").read_text())
        clean = np.linalg.svd(fw.load_matrix(out / "lambda.csv").data, compute_uv=False)
        assert fmeta["relative_delta"] == pytest.approx(0.05 / clean[0], rel=1e-9)
        assert fmeta["relative_delta"] == fmeta["achieved_delta"] / fmeta["norm_lambda"]
        assert fmeta["near_singular_points"] == 0

    def test_seed_override_changes_noise(self, tmp_path, scenario_path):
        sc = cli.load_scenario(scenario_path)
        cli.run_forward(sc, tmp_path / "a", seed=1)
        cli.run_forward(sc, tmp_path / "b", seed=2)
        a = fw.load_matrix(tmp_path / "a/lambda_noisy.csv")
        b = fw.load_matrix(tmp_path / "b/lambda_noisy.csv")
        assert not np.array_equal(a.data, b.data)


def _mutated_doc(doc: dict, mutation) -> dict:
    """A copy of doc with the entry at path ``where`` set to value, deleted,
    or (an object) given an unknown key."""
    where, kind, value = mutation
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in where[:-1]:
        node = node[key]
    if kind == "set":
        node[where[-1]] = value
    elif kind == "delete":
        del node[where[-1]]
    elif isinstance(node[where[-1]], dict):
        node[where[-1]]["unknown"] = 1
    return doc


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("frequency", "omega"), "x", "frequency.omega must be a number"),
        (("material", "dimensionless", "mu"), "a", "material.dimensionless.mu must be a number"),
        (("scene", "wells"), [], "scene.wells must hold at least 1 entries"),
        (("scene", "fractures", 0, "center"), [0.0], "scene.fractures[0].center must hold 2 or 3"),
        (("scene", "fractures"), None, "scene.fractures must be an array"),
        (("scene", "contact"), "x", "scene.contact must be an object"),
        (("frequency", "omega"), 1e300, "omega = 1e+300 is out of range"),
        (("frequency", "omega"), 1e-300, "omega = 1e-300 is out of range"),
        (("noise", "seed"), -1, "noise.seed must be at least 0, got -1"),
        (("noise",), {"epsilon": -0.1}, "noise.epsilon must be at least 0, got -0.1"),
        (("noise", "target_delta"), -0.05, "noise.target_delta must be at least 0, got -0.05"),
        (("inversion", "delta"), -1, "inversion: unknown key 'delta'"),
        (("forward", "cutoff"), -1, "forward.cutoff must be at least 0, got -1"),
        (("scene", "sampling", "region"), [-2.5, 2.5, 2.5, -2.5],
         "scene.sampling.region [xmin, xmax, ymin, ymax] needs min <= max"),
        (("scene", "sampling", "region"), [2.5, -2.5, -2.5, 2.5],
         "scene.sampling.region [xmin, xmax, ymin, ymax] needs min <= max"),
        (("material", "scales"), {"mu_r": -1},
         "material: give dimensionless or dimensional + scales, not both"),
        (("material", "dimensional"), _DIMENSIONAL["dimensional"],
         "material: give dimensionless or dimensional + scales, not both"),
        (("frequency", "omega_prime"), 12345, "frequency: give only one of omega or omega_prime"),
        (("noise", "epsilon"), 0.01, "noise: give only one of epsilon or target_delta"),
        (("scene", "wells", 1, "samples_per_segment"), 7,
         "scene.wells: samples_per_segment must agree across wells"),
        (("scene", "channels"), ["fx", 1], "scene.channels must name channels, got"),
        (("frequency",), {"omega_prime": 1.0}, "frequency: dimensionless material needs 'omega'"),
        (("material",), _DIMENSIONAL, "frequency: dimensional material needs 'omega_prime'"),
        ("text", "{", "not valid JSON"),
        ("invert", None, "lambda_noisy.csv (run forward first)"),
    ],
    ids=["omega-x", "mu-a", "wells-empty", "center-short", "fractures-null", "contact-x",
         "omega-1e300", "omega-1e-300", "seed-negative", "epsilon-negative",
         "target-delta-negative", "inversion-delta-negative", "cutoff-negative", "region-y-flipped",
         "region-x-flipped", "dimensionless-and-scales", "dimensionless-and-dimensional",
         "omega-and-omega-prime", "epsilon-and-target-delta", "samples-differ",
         "channel-not-string", "omega-missing", "omega-prime-missing", "not-json",
         "invert-before-forward"],
)
def test_bad_scenario_value_rejected(tmp_path, tiny_scenario_doc, capsys, where, value, message):
    # where is the path of the entry set to value; "text" makes value the
    # whole file, and "invert" runs invert on the scenario before forward
    path = tmp_path / "s.json"
    if where == "text":
        path.write_text(value)
    elif where != "invert":
        path.write_text(json.dumps(_mutated_doc(tiny_scenario_doc, (where, "set", value))))
    else:
        path.write_text(json.dumps(tiny_scenario_doc))
    command = "invert" if where == "invert" else "forward"
    rc = cli.main([command, "--scenario", str(path), "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "policy, alpha", [("fixed", -3.0), ("fixed", 0.0), ("per-candidate", 1e-3)]
)
def test_unused_or_nonpositive_fixed_alpha_rejected(tiny_scenario_doc, policy, alpha):
    # the fixed policy takes its alpha from the roots at the grid centre, so
    # inversion.fixed_alpha is no key: refused, never ignored, whatever its
    # value and policy, a positive one under the fixed policy too
    doc = json.loads(json.dumps(tiny_scenario_doc))
    for policy, alpha in ((policy, alpha), ("fixed", 1e-3)):
        doc["inversion"].update(alpha_policy=policy, fixed_alpha=alpha)
        with pytest.raises(ValidationError, match="inversion: unknown key 'fixed_alpha'"):
            cli.parse_scenario(doc)


_FRAME_FRACTURE = {"center": [0.0, 0.5, 0.0], "e1": [1.0, 0.0, 0.0], "e2": [0.0, 0.0, 1.0],
                   "half_lengths": [1.0, 0.5]}


@pytest.mark.parametrize(
    "where, path",
    [
        (("scene", "wells", 0, "points", 1, 0), "scene.wells[0].points[1][0]"),
        (("scene", "fractures", 0, "center", 1), "scene.fractures[0].center[1]"),
        (("scene", "fractures", 1, "length"), "scene.fractures[1].length"),
        (("scene", "fractures", 1, "center", 0), "scene.fractures[1].center[0]"),
        (("scene", "fractures", 1, "width"), "scene.fractures[1].width"),
        (("scene", "fractures", 0, "half_lengths", 0), "scene.fractures[0].half_lengths[0]"),
        (("scene", "fractures", 0, "e2", 2), "scene.fractures[0].e2[2]"),
        (("scene", "sampling", "region", 3), "scene.sampling.region[3]"),
        (("scene", "sampling", "plane_z"), "scene.sampling.plane_z"),
    ],
)
@pytest.mark.parametrize("value", [1e300, -1e150])
def test_far_scene_coordinate_rejected(tmp_path, tiny_scenario_doc, capsys, where, path, value):
    # squared distances of coordinates this large leave double range
    doc = json.loads(json.dumps(tiny_scenario_doc))
    doc["scene"]["fractures"][0] = dict(_FRAME_FRACTURE)
    doc = _mutated_doc(doc, (where, "set", value))
    (tmp_path / "s.json").write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["forward", "--scenario", str(tmp_path / "s.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    assert f"{path} must be of magnitude below 1e+150" in capsys.readouterr().err


@pytest.mark.parametrize(
    "form, key, value",
    [
        ("strike", "e1", "junk"),
        ("strike", "e2", [0.0, 0.0, 1.0]),
        ("strike", "half_lengths", [1.0, 0.5]),
        ("frame", "width", "nonsense"),
        ("frame", "width", 1e300),
    ],
)
def test_other_form_fracture_key_rejected(tmp_path, tiny_scenario_doc, capsys, form, key, value):
    # a fracture in one form (strike: length, angle_rad, width; frame: e1,
    # e2, half_lengths) rejects the other form's keys instead of dropping them
    doc = json.loads(json.dumps(tiny_scenario_doc))
    if form == "frame":
        doc["scene"]["fractures"][0] = dict(_FRAME_FRACTURE)
    doc["scene"]["fractures"][0][key] = value
    (tmp_path / "s.json").write_text(json.dumps(doc))
    rc = cli.main(["forward", "--scenario", str(tmp_path / "s.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    assert f"scene.fractures[0].{key} is not a key of a {form}" in capsys.readouterr().err


def _doc_paths(node, where=()):
    """Paths of every entry of a scenario document, containers included."""
    if where:
        yield where
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _doc_paths(child, where + (key,))


# mutations are drawn from an input document and from its resolved echo
_SCENARIO_DOCS = {
    "input": _tiny_doc(),
    "echo": json.loads(json.dumps(cli.parse_scenario(_tiny_doc()).resolved)),
}
# wrong types, empty containers, and numbers at and beyond double range;
# integers stay small, so no mutation asks for a huge grid
_SCENARIO_VALUES = [
    "x", None, True, [], {}, [0.0], [[0.0]], 0, -1, 2, 0.5,
    1e300, 1e-300, -1e300, 1e150, 10**400, math.nan, math.inf,
]
_SCENARIO_MUTATIONS = st.one_of(*(
    st.tuples(
        st.just(name),
        st.tuples(
            st.sampled_from(list(_doc_paths(doc))),
            st.sampled_from(["set", "delete", "add"]),
            st.sampled_from(_SCENARIO_VALUES),
        ),
    )
    for name, doc in _SCENARIO_DOCS.items()
))


@settings(max_examples=60, deadline=None)
@given(mutation=_SCENARIO_MUTATIONS)
def test_mutated_scenario_gives_exit_code(tmp_path_factory, mutation):
    name, change = mutation
    out = tmp_path_factory.mktemp("scenario")
    (out / "s.json").write_text(json.dumps(_mutated_doc(_SCENARIO_DOCS[name], change)))
    rc = cli.main(["forward", "--scenario", str(out / "s.json"), "--out", str(out)])
    assert rc in (0, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL, cli.EXIT_IO)


@pytest.fixture(scope="module")
def forward_lines(tmp_path_factory, tiny_scenario_doc):
    """Scenario path and the lines of its lambda_noisy.csv, written once."""
    out = tmp_path_factory.mktemp("forward")
    path = out / "scenario.json"
    path.write_text(json.dumps(tiny_scenario_doc))
    assert cli.main(["forward", "--scenario", str(path), "--out", str(out)]) == 0
    return path, (out / "lambda_noisy.csv").read_text(encoding="ascii").splitlines()


_HEADER_LINES = 10  # the format tag and nine "key = value" lines
# finite values whose squares leave double range
_EXTREME_ENTRIES = ["1e300,1e300", "1.7e308,0", "1e-310,0"]
_MUTATIONS = st.one_of(
    st.tuples(
        st.just("header"),
        st.integers(1, _HEADER_LINES - 1),
        st.one_of(
            st.sampled_from(
                ["", "-1", "0", "nan", "inf", "1e400", "1e300", "1.5", "fx,fy", "noisy"]
            ),
            st.text(max_size=8),
        ),
    ),
    st.tuples(
        st.just("entry"),
        st.integers(0, 2**16),
        st.one_of(st.sampled_from(_EXTREME_ENTRIES), st.text(max_size=12)),
    ),
    st.tuples(st.just("fill"), st.just(0), st.sampled_from(_EXTREME_ENTRIES)),
    st.tuples(st.just("truncate"), st.integers(0, 2**20), st.just("")),
)


def _mutated(lines, mutation) -> str:
    """lambda_noisy.csv text with one header value or entry replaced, every
    entry replaced (fill), or cut short (truncate)."""
    kind, where, text = mutation
    lines = list(lines)
    if kind == "header":
        lines[where] = f"{lines[where].partition('=')[0]}= {text}"
    elif kind == "entry":
        lines[_HEADER_LINES + where % (len(lines) - _HEADER_LINES)] = text
    elif kind == "fill":
        lines[_HEADER_LINES:] = [text] * (len(lines) - _HEADER_LINES)
    body = "\n".join(lines) + "\n"
    if kind == "truncate":
        body = body[: where % len(body)]
    return body


@settings(max_examples=20, deadline=None)
@given(mutation=_MUTATIONS)
def test_mutated_matrix_file_gives_exit_code(forward_lines, tmp_path_factory, mutation):
    path, lines = forward_lines
    out = tmp_path_factory.mktemp("invert")
    (out / "lambda_noisy.csv").write_text(_mutated(lines, mutation), encoding="utf-8")
    rc = cli.main(["invert", "--scenario", str(path), "--out", str(out)])
    assert rc in (0, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL, cli.EXIT_IO)


@pytest.mark.parametrize("method", ["lsm", "glsm"])
@pytest.mark.parametrize(
    "mutation, cause",
    [
        (("header", 8, "1e300"), "delta = 1e+300 is out of range"),
        (("entry", 5, "1e300,1e300"), "operator norm"),
        (("entry", 5, "1.7e308,0"), "operator norm"),
        (("fill", 0, "1e-310,0"), "operator norm"),
    ],
    ids=["delta-1e300", "entry-1e300", "entry-1.7e308", "all-1e-310"],
)
def test_extreme_matrix_file_gives_typed_error(
    forward_lines, tmp_path, capsys, mutation, cause, method
):
    path, lines = forward_lines
    assert lines[8].startswith("# delta =")
    (tmp_path / "lambda_noisy.csv").write_text(_mutated(lines, mutation), encoding="ascii")
    rc = cli.main(["invert", "--scenario", str(path), "--out", str(tmp_path), "--method", method])
    assert rc == cli.EXIT_VALIDATION
    assert cause in capsys.readouterr().err


def test_replayed_call_shapes(tiny_scenario_doc):
    """The public calls a per-layer benchmark replay makes, in its shapes."""
    sc = cli.parse_scenario(tiny_scenario_doc)
    scene, params = sc.scene, sc.params
    wave = cli.solve_dispersion(params, sc.omega)
    for owner, names in (
        (cli, ["load_scenario", "run_forward", "run_invert", "write_pgm", "solve_dispersion",
               "build_sensing_grid", "build_fracture_patch", "build_sampling_grid"]),
        (fw, ["assemble_lambda", "inject_noise", "save_matrix", "load_matrix"]),
        (inv, ["indicator_map", "save_indicator_map"]),
    ):
        assert all(callable(getattr(owner, name)) for name in names)
    lam = fw.assemble_lambda(scene, wave, params, mode="local", cutoff=None)
    noisy = fw.inject_noise(lam, target_delta=0.05, seed=1)
    op = inv.SvdOperator(noisy)
    sharp = inv.lambda_sharp(op.matrix)
    inv.GlsmPencil(op.matrix, sharp, noisy.delta)
    pts, cands = scene.sampling.points(), scene.sampling.candidates()
    gpts, channels = scene.grid.points, scene.channels
    normal, iota = cands[0]
    pattern = inv.trial_pattern(pts[12], normal, iota, gpts, wave, params, channels)
    assert pattern.vector.shape == (len(gpts) * len(channels),)
    Phi = inv.trial_pattern_block(pts[:8], cands, gpts, wave, params, channels)
    assert Phi.shape == (len(gpts) * len(channels), 8 * len(cands))
    assert all(isinstance(inv.morozov_eta(op, phi, noisy.delta).bracketed, bool) for phi in Phi.T)
    greens.trace_kernel(gpts[0], pts[7], scene.sampling.normals[0], wave, params)
    src, trc = scene.patches[0], scene.patches[1]
    greens.dislocation_trace_kernel(
        src.cells()[0][0], src.normal, trc.cells()[0][1], trc.normal, wave, params
    )


def test_public_names_exist():
    for info in pkgutil.iter_modules(poroscat.__path__):
        module = importlib.import_module(f"poroscat.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"poroscat.{info.name}.__all__ names missing {missing}"


def test_runtime_loads_no_scipy(tmp_path, scenario_path):
    """Importing the package and running `check` load numpy's BLAS runtime
    only: scipy, a test extra, stays out of sys.modules."""
    code = "\n".join([
        "import sys",
        "import poroscat, poroscat.cli",
        f"rc = poroscat.cli.main(['check', '--scenario', {str(scenario_path)!r}, "
        f"'--out', {str(tmp_path / 'o')!r}])",
        "print(rc, 'scipy' in sys.modules)",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split()[-2:] == ["0", "False"]


def test_package_import_loads_no_module():
    """The package re-exports nothing: each name is imported from its
    module, so `import poroscat` loads none of them."""
    code = "import sys, poroscat; print(sorted(m for m in sys.modules if m.startswith('poroscat.')))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_tracer_wraps_and_restores():
    """The traced benchmark run wraps module attributes of the CLI path; each
    must exist, and uninstalling must put the originals back."""
    tracer = _perfbench("tracing").Tracer()
    try:
        tracer.install()  # an attribute that is gone raises AttributeError here
        wrapped = list(tracer._patches)
        assert wrapped
        assert all(getattr(owner, attr) is not original for owner, attr, original in wrapped)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in wrapped)
