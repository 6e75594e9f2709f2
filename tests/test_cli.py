import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from swapengine import cli, engine, regions


def run(argv):
    return cli.main(argv)


class TestCycle:
    def test_csv_report(self, capsys):
        assert run([
            "cycle", "--state", "0.5,0.35,0.15", "--energies", "0,3,4",
            "--m", "1", "--n", "1",
        ]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["work"]) == pytest.approx(0.0703704, abs=1e-6)
        assert float(vals["efficiency"]) == pytest.approx(2 / 3, abs=1e-9)

    def test_json_roundtrips_config(self, tmp_path):
        out = tmp_path / "r.json"
        assert run([
            "cycle", "--state", "0.5,0.35,0.15", "--energies", "0,3,4",
            "--m", "2", "--n", "3", "--format", "json", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        cfg = payload["config"]
        assert cfg["command"] == "cycle"
        assert cfg["state"] == [0.5, 0.35, 0.15]
        assert cfg["m"] == 2 and cfg["n"] == 3
        # re-dispatching the stored config reproduces the result
        rerun = [
            "cycle",
            "--state", ",".join(map(str, cfg["state"])),
            "--energies", ",".join(map(str, cfg["energies"])),
            "--m", str(cfg["m"]), "--n", str(cfg["n"]),
            "--format", "json", "--out", str(tmp_path / "r2.json"),
        ]
        assert run(rerun) == 0
        assert json.loads((tmp_path / "r2.json").read_text())["results"] == payload["results"]

    def test_beta_builds_thermal_state(self, capsys):
        assert run([
            "cycle", "--beta", "0.8", "--energies", "0,1,3", "--m", "2", "--n", "3",
        ]) == 0
        _, row = capsys.readouterr().out.strip().splitlines()
        work = float(row.split(",")[3])
        assert work <= 1e-15  # thermal states yield nothing


class TestFig4:
    def test_work_band_edges(self, tmp_path):
        out = tmp_path / "f4.csv"
        assert run([
            "fig4", "--state", "0.5,0.35,0.15", "--energies", "0,3,4",
            "--sweep-gap", "0.5:8:16", "--out", str(out),
        ]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        gaps = np.array([float(r[0]) for r in rows])
        works = np.array([float(r[1]) for r in rows])
        # zero at gap == dE21, positive inside the band, negative outside
        assert works[gaps == 1.0][0] == pytest.approx(0.0, abs=1e-15)
        assert np.all(works[(gaps > 1.0) & (gaps < 7.0)] > 0)
        assert np.all(works[gaps < 1.0] < 0)
        assert works[-1] < 0


class TestFig5:
    def test_grid_labels_and_membership(self, tmp_path):
        out = tmp_path / "f5.csv"
        assert run(["fig5", "--energies", "0,1,3", "--grid", "20", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("p0,p1,p2,region,active_3_1")
        regions_seen = {line.split(",")[3] for line in lines[1:]}
        assert {"R1", "R2"} <= regions_seen

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_matches_per_point_loop(self, tmp_path, fmt):
        # (2, 1) is the degenerate cycle of this ladder: m dE10 = n dE21
        cycles = [(3, 1), (5, 2), (2, 1), (1, 1)]
        e = np.array([0.0, 1.0, 3.0])
        out = tmp_path / f"f5.{fmt}"
        assert run(["fig5", "--energies", "0,1,3", "--grid", "60", "--cycles",
                    "3:1,5:2,2:1,1:1", "--format", fmt, "--out", str(out)]) == 0
        ratio = regions.approximate_gap_ratio(e)
        expected = []
        for pt in regions.passive_simplex_grid(60):
            row = [float(pt[0]), float(pt[1]), float(pt[2]), regions.classify(pt, ratio)]
            row += [regions.in_activation_region(pt, e, m, n) for m, n in cycles]
            expected.append(row)
        header = ["p0", "p1", "p2", "region"] + [f"active_{m}_{n}" for m, n in cycles]
        if fmt == "csv":
            lines = [",".join(header)] + [
                ",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row)
                for row in expected
            ]
            assert out.read_text() == "\n".join(lines) + "\n"
        else:
            assert json.loads(out.read_text())["results"] == [
                dict(zip(header, row)) for row in expected
            ]


class TestFig6:
    def test_thermal_start_single_row(self, tmp_path):
        out = tmp_path / "f6.csv"
        assert run([
            "fig6", "--beta", "0.9", "--energies", "0,1,3",
            "--strategy", "entropy", "--out", str(out),
        ]) == 0
        assert len(out.read_text().splitlines()) == 2  # header + one sample

    def test_alpha_strategy_flag(self, tmp_path):
        out = tmp_path / "f6.csv"
        assert run([
            "fig6", "--state", "0.5,0.35,0.15", "--energies", "0,3,4",
            "--strategy", "alpha=1.5", "--out", str(out),
        ]) == 0
        assert len(out.read_text().splitlines()) > 3


class TestOptimize:
    def test_qudit_reports_window(self, capsys):
        assert run([
            "optimize", "--state", "0.4,0.28,0.12,0.12,0.08",
            "--energies", "0,3,4,9,11", "--max-dim", "6",
        ]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["work"]) > 0
        assert int(vals["window"]) in (0, 1, 2)

    def test_max_dim_below_two_is_usage_error(self, capsys):
        assert run([
            "optimize", "--state", "0.5,0.35,0.15", "--energies", "0,3,4", "--max-dim", "1",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need --max-dim >= 2, got 1\n"


class TestVerifyAndErrors:
    def test_verify_passes(self, capsys):
        assert run(["verify"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_verify_json_reports_measured_against_threshold(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        assert run(["verify", "--format", "json", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert payload["config"] == {"command": "verify", "format": "json"}
        results = payload["results"]
        assert [r["check"] for r in results] == [
            "worked_example_work", "worked_example_eta", "machine_distribution_vs_oracle",
            "work_vs_simulation", "machine_reusable",
        ]
        for r in results:
            assert r["pass"] is True
            assert 0.0 <= r["measured"] < r["threshold"]

    def test_verify_csv_to_stdout(self, capsys):
        assert run(["verify", "--format", "csv"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "check,pass,measured,threshold"
        assert len(rows) == 5 and all(row.split(",")[1] == "True" for row in rows)

    def test_mutated_closed_form_fails(self, capsys, monkeypatch):
        true_fn = engine.machine_distribution

        def corrupted(p, m, n):
            q = true_fn(p, m, n).copy()
            q[0] += 1e-6
            q[-1] -= 1e-6
            return q

        monkeypatch.setattr(engine, "machine_distribution", corrupted)
        assert run(["verify"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_domain_error_exits_1(self, capsys):
        code = run([
            "cycle", "--state", "0.5,0.6,0.1", "--energies", "0,1,2",
            "--m", "1", "--n", "1",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("state, energies", [
        ("0.5,0.35,0.15", "0,nan,4"), ("0.5,0.35,0.15", "0,3,inf"), ("0.5,nan,0.15", "0,3,4"),
        ("0.5,0.35,0.15", "inf,inf,inf"),
    ])
    def test_non_finite_input_exits_1(self, capsys, state, energies):
        assert run(["cycle", "--state", state, "--energies", energies,
                    "--m", "2", "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_cycle_below_one_exits_1(self, capsys):
        assert run(["fig5", "--energies", "0,1,3", "--grid", "20", "--cycles", "0:1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: need m, n >= 1" in captured.err

    def test_sweep_gap_needs_three_fields(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fig4", "--state", "0.5,0.35,0.15", "--energies", "0,3,4",
                 "--sweep-gap", "0.5:7.5"])
        assert exc.value.code == 2
        assert "lo:hi:steps" in capsys.readouterr().err

    def test_parse_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["cycle", "--energies", "0,1,2"])  # missing required --m/--n
        assert exc.value.code == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4", "--state", "0.5,0.35,0.15", "--energies", "0,3,4",
             "--sweep-gap", "0.5:7.5:40"],
            ["fig5", "--energies", "0,1,3", "--grid", "25"],
            ["fig6", "--state", "0.5,0.35,0.15", "--energies", "0,3,4",
             "--strategy", "entropy", "--format", "json"],
        ],
    )
    def test_repeated_runs_byte_identical(self, tmp_path, argv):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def _readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("swapengine ")
    ]


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: argv[0])
def test_readme_example_runs(tmp_path, argv):
    if "--out" in argv:
        i = argv.index("--out")
        argv = argv[:i] + argv[i + 2:]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0
