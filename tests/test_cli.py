import io as _io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import rectlink
from rectlink import cli, frontend
from rectlink.bench import CSV_HEADER, rows_to_csv, run_bench
from rectlink.cli import main
from rectlink.frontend import solve
from rectlink.generator import generate_instance
from rectlink.geometry import GeometryError
from rectlink.io import dump_instance
from rectlink.model import Instance, InvalidInstance, Terminal
from rectlink.render import render


@pytest.fixture
def inst_file(tmp_path):
    inst = generate_instance(9, n_obstacles=5, coord_limit=120)
    path = tmp_path / "inst.json"
    with open(path, "w") as fp:
        dump_instance(inst, fp)
    return path, inst


def test_solve_and_oracle_agree_end_to_end(inst_file, tmp_path):
    path, _ = inst_file
    out_s = tmp_path / "s.json"
    out_o = tmp_path / "o.json"
    assert main(["solve", str(path), "--json", str(out_s)]) == 0
    assert main(["oracle", str(path), "--json", str(out_o)]) == 0
    got_s = json.loads(out_s.read_text())
    got_o = json.loads(out_o.read_text())
    assert got_s["distance"] == got_o["distance"]
    assert got_s["links"] == got_o["links"]


def test_cli_import_loads_no_numpy_or_scipy():
    """Only the oracle subcommand needs numpy and scipy, and it imports the
    oracle itself, so loading the CLI (as ``rectlink solve`` does) does not
    pay for them."""
    src = os.path.dirname(os.path.dirname(rectlink.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, rectlink.cli; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_result_json_is_canonical(inst_file, tmp_path):
    path, _ = inst_file
    out = tmp_path / "r.json"
    main(["solve", str(path), "--json", str(out)])
    text = out.read_text()
    obj = json.loads(text)
    assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_check_exit_codes(inst_file, tmp_path):
    path, _ = inst_file
    assert main(["check", str(path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["check", str(bad)]) == 2
    missing_version = tmp_path / "no_version.json"
    missing_version.write_text(json.dumps({
        "obstacles": [],
        "source": {"kind": "point", "at": [0, 0]},
        "target": {"kind": "point", "at": [1, 1]},
    }))
    assert main(["check", str(missing_version)]) == 2


OVERLAPPING = {
    "version": 1,
    "obstacles": [
        [[0, 0], [4, 0], [4, 4], [0, 4]],
        [[2, 2], [6, 2], [6, 6], [2, 6]],
    ],
    "source": {"kind": "point", "at": [8, 8]},
    "target": {"kind": "point", "at": [9, 9]},
}


def test_check_rejects_invalid_geometry(tmp_path):
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(OVERLAPPING))
    assert main(["check", str(path)]) == 1


@pytest.mark.parametrize("argv", [["solve"], ["render", "--solve"]])
def test_solving_an_invalid_file_validates_once(argv, tmp_path, monkeypatch,
                                                capsys):
    """``solve`` validates, so the CLI names the problems of the instance
    ``solve`` rejects instead of validating it first."""
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(OVERLAPPING))
    calls = []
    for mod in (cli, frontend):
        monkeypatch.setattr(mod, "validate", lambda inst, *rest, orig=mod.validate:
                            calls.append(inst) or orig(inst, *rest))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    assert capsys.readouterr().err == "invalid: obstacle boxes 0 and 1 overlap\n"
    assert len(calls) == 1
    with pytest.raises(InvalidInstance) as got:
        solve(calls[0])
    assert isinstance(got.value, GeometryError)
    assert str(got.value) == "invalid instance: obstacle boxes 0 and 1 overlap"
    assert got.value.problems == ["obstacle boxes 0 and 1 overlap"]


def test_oracle_refuses_oversized_grids(tmp_path):
    # 260 rectangles contribute 520 distinct x coordinates: beyond the cap
    obstacles = []
    for i in range(260):
        x, y = 10 * i, 10 * i
        obstacles.append([[x, y], [x + 2, y], [x + 2, y + 2], [x, y + 2]])
    obj = {
        "version": 1,
        "obstacles": obstacles,
        "source": {"kind": "point", "at": [-5, -5]},
        "target": {"kind": "point", "at": [2601, 2601]},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    assert main(["oracle", str(path)]) == 3


def test_gen_output_round_trips(tmp_path, capsys):
    assert main(["gen", "--obstacles", "4", "--seed", "5",
                 "--kind", "segment"]) == 0
    first = capsys.readouterr().out
    f = tmp_path / "gen.json"
    f.write_text(first)
    assert main(["check", str(f)]) == 0
    capsys.readouterr()
    # determinism
    main(["gen", "--obstacles", "4", "--seed", "5", "--kind", "segment"])
    assert capsys.readouterr().out == first


def test_render_cli_writes_svg(inst_file, tmp_path):
    path, _ = inst_file
    out = tmp_path / "out.svg"
    assert main(["render", str(path), "--solve", "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")


class TestRender:
    def test_byte_identical(self):
        inst = generate_instance(21, n_obstacles=6)
        report = solve(inst)
        assert render(inst, report) == render(inst, report)

    def test_no_obstacles_renders_frame(self):
        inst = Instance(obstacles=(), source=Terminal.of_point((0, 0)),
                        target=Terminal.of_point((5, 5)))
        svg = render(inst)
        root = ET.fromstring(svg)
        assert 'version="1.1"' in svg
        assert "polyline" not in svg        # no path drawn without a result

    def test_path_and_label_present(self):
        inst = generate_instance(13, n_obstacles=5)
        report = solve(inst)
        svg = render(inst, report)
        assert "polyline" in svg
        assert f"links={report.links}" in svg


class TestBench:
    def test_single_row(self):
        rows = run_bench([4], reps=1, seed=1)
        assert len(rows) == 1
        assert rows[0].n == 4
        assert rows[0].N > 0

    def test_csv_shape(self):
        rows = run_bench([3, 5], reps=1, seed=2)
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER == "n,N,events,ms"
        assert len(lines) == 3

    def test_cli_writes_the_csv_it_prints(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "20,40", "--reps", "1",
                     "--csv", str(out)]) == 0
        printed = capsys.readouterr().out
        lines = printed.strip().split("\n")
        assert lines[0] == "n,N,events,ms"
        assert [line.split(",")[0] for line in lines[1:]] == ["20", "40"]
        assert out.read_text() == printed
