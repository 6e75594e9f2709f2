import contextlib
import io
import json
import math
import platform
import re
import shlex
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swapengine import cli, engine, quasistatic, regions
from tests.test_validation import ANY_FLOAT, BETAS, LADDERS, STATES, SWAPS


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

    def test_flow_fixed_point_exits_1(self, capsys):
        # p0 == p1: zero flow rate off the thermal manifold
        assert run(["fig6", "--state", "0.4,0.4,0.2", "--energies", "0,1,2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: flow rate is zero")


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

    def test_qudit_with_empty_top_levels_runs_window_zero(self, capsys):
        assert run([
            "optimize", "--state", "0.5,0.3,0.2,0,0", "--energies", "0,1,2,3,4", "--max-dim", "6",
        ]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["window"] == "0"

    def test_max_dim_below_two_is_usage_error(self, capsys):
        assert run([
            "optimize", "--state", "0.5,0.35,0.15", "--energies", "0,3,4", "--max-dim", "1",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need --max-dim >= 2, got 1\n"


@pytest.mark.parametrize("argv", [
    "cycle --state 0.5,0.3,0.2 --energies 0,1,2 --m 1 --n 1",
    "optimize --state 0.5,0.3,0.2,0,0 --energies 0,1,2,3,4 --max-dim 6",
    "optimize --state 0.5,0.3,0.2,0,0 --energies 0,1,2,3,4 --max-dim 6 --format json",
])
def test_resonant_cycle_reports_positive_zero_work(capsys, argv):
    # m dE10 == n dE21 with delta_p < 0: the product lever * delta_p is -0.0
    assert run(argv.split()) == 0
    out = capsys.readouterr().out
    if out.startswith("{"):
        work = json.loads(out)["results"][0]["work"]
    else:
        header, row = out.strip().splitlines()
        work = float(dict(zip(header.split(","), row.split(",")))["work"])
    assert work == 0.0 and math.copysign(1.0, work) == 1.0


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

    @pytest.mark.parametrize("cycles", ["3", "3:x", "1:1,"])
    def test_cycles_need_m_n_pairs(self, capsys, cycles):
        with pytest.raises(SystemExit) as exc:
            run(["fig5", "--energies", "0,1,3", "--grid", "20", "--cycles", cycles])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad cycle list {cycles!r}: need m:n pairs such as 3:1,5:2" in captured.err

    @pytest.mark.parametrize("cycles", ["3:1,5:2,3:1", "1:1,01:1"])
    def test_cycles_must_not_repeat(self, capsys, cycles):
        # a repeated cycle wrote two active_m_n columns, and JSON kept one of them
        with pytest.raises(SystemExit) as exc:
            run(["fig5", "--energies", "0,1,3", "--grid", "20", "--cycles", cycles])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad cycle list {cycles!r}: a cycle is repeated" in captured.err

    @pytest.mark.parametrize("cycles, message", [
        ("5:7,0:1", "overflows the float range"),  # the first cycle's lever m dE10 - n dE21
        ("0:1,5:7", "need m, n >= 1"),
    ])
    def test_first_bad_cycle_reports(self, capsys, cycles, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["fig5", "--energies", "0,1e308,1.7e308", "--grid", "12",
                        "--cycles", cycles]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize("sweep", ["0.5:7.5:inf", "0.5:7.5:-3", "0.5:7.5:2.7"])
    def test_sweep_gap_needs_whole_steps(self, capsys, sweep):
        with pytest.raises(SystemExit) as exc:
            run(["fig4", "--state", "0.5,0.35,0.15", "--energies", "0,3,4",
                 "--sweep-gap", sweep])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "whole steps >= 1" in captured.err

    @pytest.mark.parametrize("argv", [
        "fig4 --state 0.5,0.3,0.2 --energies 0,1,2 --sweep-gap 0:1e308:3",  # exp(beta gap)
        "fig5 --energies 0,1e308,1.7e308 --grid 12 --cycles 5:7",  # m dE10 - n dE21
        "fig5 --energies=-1e300,0,5e-324 --grid 12",  # dE10/dE21
    ])
    def test_float_range_overflow_exits_1(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "overflow" in captured.err

    @pytest.mark.parametrize("sweep", ["-1e308:1e308:3", "0:inf:3", "nan:1:3"])
    def test_sweep_gap_needs_a_finite_span(self, capsys, sweep):
        with pytest.raises(SystemExit) as exc:
            run(["fig4", "--state", "0.5,0.35,0.15", "--energies", "0,3,4",
                 f"--sweep-gap={sweep}"])
        assert exc.value.code == 2
        assert "finite hi - lo" in capsys.readouterr().err

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


def _reference_emit(rows, header, fmt, config):
    """The per-value rule _emit follows: .item() on numpy scalars, then %.17g
    for floats and str() for the rest in CSV, float("%.17g" % v) in JSON."""
    rows = [[v.item() if isinstance(v, np.generic) else v for v in row] for row in rows]
    if fmt == "csv":
        lines = [",".join(header)] + [
            ",".join(["%.17g" % v if isinstance(v, float) else str(v) for v in row])
            for row in rows
        ]
        return "\n".join(lines) + "\n"
    results = [
        {k: (float("%.17g" % v) if isinstance(v, float) else v) for k, v in zip(header, row)}
        for row in rows
    ]
    return json.dumps({"config": config, "results": results}, indent=2, sort_keys=True) + "\n"


_SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.5e-310,
            np.float64(-0.0), np.float64(4e-320), np.float32(1e-45), np.float32(-0.0)]
CELLS = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.text(max_size=4), st.none(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.sampled_from(_SPECIAL),
)


_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf")]))
# array columns of 8 values, cut to the table's rows: their rule is chosen by dtype
ARRAY_COLUMNS = st.lists(st.one_of(
    st.lists(_FLOATS, min_size=8, max_size=8).map(np.array),
    st.lists(st.floats(width=32), min_size=8, max_size=8).map(lambda v: np.array(v, dtype=np.float32)),
    st.lists(st.booleans(), min_size=8, max_size=8).map(np.array),
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=8, max_size=8).map(np.array),
    st.lists(st.text(max_size=3), min_size=8, max_size=8).map(np.array),
), max_size=3)


@given(
    table=st.integers(1, 5).flatmap(
        lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=8)
    ),
    fmt=st.sampled_from(["csv", "json"]),
    arrays=ARRAY_COLUMNS,
)
@example(  # one column, four type signatures
    table=[[1.5], [np.float32(0.1)], [np.int64(3)], [None]], fmt="csv", arrays=[],
)
@example(  # floats with both zeros, a NaN and a repeat: 0.0 and -0.0 are one dict key
    table=[[0.25], [0.0], [-0.0], [float("nan")], [0.25], [-0.0]], fmt="csv", arrays=[],
)
@example(  # True, 1 and 1.0 are one dict key too
    table=[[True], [1], [1.0], [1], [True]], fmt="csv", arrays=[],
)
@example(  # nonzero floats only, with a NaN and repeats; then str, bool and int
    table=[[0.1, "R1", True, 3], [float("nan"), "R2", False, 3], [0.1, "R1", True, -2**70]],
    fmt="csv", arrays=[],
)
@example(
    table=[
        [0.1, 1, True, "R1", None, np.float64(-0.0), np.float32(2.5), np.int64(-7), np.bool_(1)],
        [float("nan"), np.float64(float("inf")), np.bool_(0), "x", 5e-324, -0.0,
         np.float32(float("nan")), 2**70, np.float64(-float("inf"))],
        [np.int64(0), np.float32(1e-45), None, 3.0, "", False, 2.2e-308, np.float64(1e300), 7],
    ],
    fmt="json", arrays=[],
)
@example(  # a bool-only column and a str-only column (used as it is)
    table=[[True, "R1"], [False, ""], [True, "R3"]], fmt="csv", arrays=[],
)
@example(table=[], fmt="csv", arrays=[])  # no rows: the header alone
@example(table=[], fmt="json", arrays=[])
@example(  # array columns: floats with both zeros, NaN and inf, floats without a zero, bools
    table=[[1]] * 6, fmt="csv",
    arrays=[np.array([0.25, 0.0, -0.0, float("nan"), float("inf"), 0.25, -float("inf"), 1e-300]),
            np.array([0.5, float("nan"), 0.5, -float("inf"), float("inf"), 5e-324, 2.0, 3.0]),
            np.array([True, False, False, True, True, False, True, False])],
)
@example(  # a grid's strided columns, as fig5 passes them
    table=[[None]] * 8, fmt="csv",
    arrays=[*regions.passive_simplex_grid(10)[:8].T, np.zeros(8, dtype=bool)],
)
@example(
    table=[["x"]] * 5, fmt="json",
    arrays=[np.array([-0.0, 0.0, float("nan"), float("inf"), 0.1, 0.1, 2.0, 3.0]),
            np.array([True, False] * 4), np.array(["R1", "R2", "R3", "", "a", "b", "c", "d"])],
)
@settings(max_examples=200, deadline=None)
def test_emit_matches_per_value_rule(table, fmt, arrays):
    arrays = [a[:len(table)] for a in arrays]
    header = [f"c{i}" for i in range(len(table[0]) if table else 1)]
    config = {"command": "test", "format": fmt}
    cols = [list(col) for col in zip(*table)] or [[] for _ in header]  # _emit takes columns
    header += [f"a{i}" for i in range(len(arrays))]
    rows = [[*row, *(a[i] for a in arrays)] for i, row in enumerate(table)]  # numpy scalars
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(cols + arrays, header, SimpleNamespace(format=fmt, out=None), config)
    assert out.getvalue() == _reference_emit(rows, header, fmt, config)


def _readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("swapengine ")
    ]


def _example_ids(argvs):
    """Each example's subcommand, numbered from its second example on (optimize, optimize_2)."""
    names = [argv[0] for argv in argvs]
    return [name if names[:i].count(name) == 0 else f"{name}_{names[:i].count(name) + 1}"
            for i, name in enumerate(names)]


@pytest.mark.parametrize("argv", _readme_examples(), ids=_example_ids(_readme_examples()))
def test_readme_example_runs(tmp_path, argv):
    if "--out" in argv:
        i = argv.index("--out")
        argv = argv[:i] + argv[i + 2:]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0


_PINNED = Path(__file__).with_name("cli_stdout.txt")


def _pinned_argvs():
    """The README's cycle, fig4, fig6 and optimize examples, without --out, then
    three small fig5 runs (CSV, JSON, and four cycles with the degenerate
    (2, 1) of the 0,1,3 ladder among them) and verify --format csv."""
    argvs = []
    for argv in _readme_examples():
        if argv[0] in ("cycle", "fig4", "fig6", "optimize"):
            if "--out" in argv:
                i = argv.index("--out")
                argv = argv[:i] + argv[i + 2:]
            argvs.append(argv)
    fig5 = ["fig5", "--energies", "0,1,3", "--grid", "25", "--cycles", "3:1,5:2"]
    fig5_json = ["fig5", "--energies", "0,1,3", "--grid", "20", "--cycles", "3:1,5:2",
                 "--format", "json"]
    fig5_four = ["fig5", "--energies", "0,1,3", "--grid", "20", "--cycles", "3:1,5:2,2:1,1:1"]
    return argvs + [fig5, fig5_json, fig5_four, ["verify", "--format", "csv"]]


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _write_pinned():
    """Write each pinned argv's stdout to cli_stdout.txt, after a "$ argv" line."""
    lines = [
        "# stdout of `swapengine ARGV` after each \"$ ARGV\" line; tests/test_cli.py compares it ==.",
        f"# Written by `PYTHONPATH=src python -m tests.test_cli` with Python {platform.python_version()}"
        f" and numpy {np.__version__}.",
    ]
    blocks = "".join(f"$ {shlex.join(argv)}\n{_stdout(argv)}" for argv in _pinned_argvs())
    _PINNED.write_text("\n".join(lines) + "\n" + blocks)


def test_readme_outputs_match_pinned_bytes():
    # each block is a "$ argv" line and that argv's stdout, after a '#' header
    blocks = re.split(r"^\$ ", _PINNED.read_text(), flags=re.MULTILINE)[1:]
    argvs, outputs = zip(*(block.split("\n", 1) for block in blocks))
    assert [shlex.split(argv) for argv in argvs] == _pinned_argvs()
    for argv, out in zip(argvs, outputs):
        assert _stdout(shlex.split(argv)) == out


def _floats(xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


_ENDS = st.one_of(ANY_FLOAT, st.sampled_from([1e308, -1e308, 1.7e308]))
SWEEPS = st.one_of(
    st.tuples(st.floats(-2.0, 10.0), st.floats(-2.0, 10.0), st.integers(1, 4)),
    st.tuples(_ENDS, _ENDS, st.integers(1, 4)),
    st.tuples(st.floats(-2.0, 10.0), _ENDS, st.integers(1, 4)),
).map(lambda t: f"{t[0]!r}:{t[1]!r}:{t[2]}") | st.sampled_from(
    ["0:1", "0:1:0", "0:1:2.5", "0:1:inf", "1:x:3", "", "0:1:3:4"])
CYCLES = st.one_of(*(
    st.lists(st.tuples(swaps, swaps), min_size=1, max_size=3).map(
        lambda cs: ",".join(f"{m}:{n}" for m, n in cs))
    for swaps in (st.integers(1, 8), SWAPS)
), st.sampled_from(["3", "3:", ":2", "a:b", "3:1,,5:2", ""]))
STRATEGIES = st.one_of(
    st.sampled_from(["entropy", "energy", "entropy_conserving", "bogus", "alpha=", "alpha=x"]),
    st.one_of(st.floats(0.0, 5.0), ANY_FLOAT).map(lambda a: f"alpha={a!r}"),
)


@st.composite
def cli_argvs(draw):
    """An argv for one subcommand, from the library fuzz's states and ladders."""
    command = draw(st.sampled_from(["cycle", "fig4", "fig5", "fig6", "optimize", "verify"]))
    if command == "verify":
        return ["verify", *draw(st.sampled_from([[], ["--format=csv"], ["--format=json"]]))]
    argv = [command, f"--energies={_floats(draw(LADDERS))}",
            f"--format={draw(st.sampled_from(['csv', 'json']))}"]
    if command != "fig5":
        argv.append(draw(st.one_of(STATES.map(lambda p: f"--state={_floats(p)}"),
                                   BETAS.map(lambda b: f"--beta={b!r}"))))
    if command == "cycle":
        argv += [f"--m={draw(SWAPS)}", f"--n={draw(SWAPS)}"]
    elif command == "fig4":
        argv.append(f"--sweep-gap={draw(SWEEPS)}")
    elif command == "fig5":
        argv += [f"--grid={draw(st.integers(8, 16))}", f"--cycles={draw(CYCLES)}"]
    elif command == "fig6":
        argv.append(f"--strategy={draw(STRATEGIES)}")
    else:
        argv.append(f"--max-dim={draw(st.integers(-1, 6))}")
    return argv


@given(argv=cli_argvs())
@example(argv="fig4 --state 0.5,0.3,0.2 --energies 0,1,2 --sweep-gap 0:1e308:3".split())
@example(argv="fig5 --energies 0,1e308,1.7e308 --grid 12 --cycles 5:7".split())
@example(argv="fig6 --energies 0,0,5 --beta 8 --strategy entropy".split())  # 1 - p0 - p1 == 0
@settings(max_examples=200, deadline=None)
def test_fuzz_cli_subcommands(argv):
    """Every subcommand exits 0, 1 with one error line, or 2 on a usage error,
    with warnings as errors; nothing else escapes."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        # a short step budget, as in the library fuzz: near p0 == p1 a flow can
        # need more steps than any budget, which is the documented exit 1
        mp.setattr(quasistatic.integrate_trajectory, "__defaults__", (0.05, 2000))
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1) or (code == 2 and argv[0] == "optimize"), argv  # 2: --max-dim < 2
    if code and argv[0] != "verify":
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv


if __name__ == "__main__":
    _write_pinned()
