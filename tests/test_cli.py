import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from renyinfo import cli
from renyinfo.cli import main
from renyinfo.dist import JointPmf, Pmf, to_json
from renyinfo.measures import cond_entropy_variant, mutual_info_variant
from renyinfo.properties import REGISTRY, Property, PropertyResult


@pytest.fixture
def joint_path(tmp_path):
    j = JointPmf(("a", "b"), ("0", "1"), [[0.4, 0.1], [0.2, 0.3]])
    p = tmp_path / "joint.json"
    p.write_text(to_json(j))
    return str(p)


@pytest.fixture
def uniform_indep_path(tmp_path):
    j = JointPmf(("a", "b", "c", "d"), ("0", "1"), np.full((4, 2), 0.125))
    p = tmp_path / "uniform.json"
    p.write_text(to_json(j))
    return str(p)


@pytest.fixture
def zeros_43_path(tmp_path):
    """A 4x3 joint with zero cells."""
    j = JointPmf(("a", "b", "c", "d"), ("0", "1", "2"),
                 [[0.2, 0.0, 0.1], [0.0, 0.05, 0.3], [0.1, 0.0, 0.1], [0.05, 0.1, 0.0]])
    p = tmp_path / "zeros43.json"
    p.write_text(to_json(j))
    return str(p)


EXT_GRID = "0,0.25,0.5,0.75,1,1.5,2,4,inf"
SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_process(argv):
    """Run the CLI in a new interpreter; (exit code, stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "renyinfo", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def without_times(text):
    """verify output with the per-property times blanked."""
    text = re.sub(r", \d+\.\d{3} s\)", ", T s)", text)
    return re.sub(r'"seconds": [0-9.e-]+', '"seconds": T', text)


def read_csv(path):
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0].startswith("# renyinfo")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return lines[0], rows[0], rows[1:]


class TestMeasure:
    def test_uniform_independent_constant_column(self, uniform_indep_path, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["measure", "--input", uniform_indep_path, "--quantity", "htilde",
                   "--alpha", "0.5,2,inf", "--beta", "0.5,1,2", "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["quantity", "alpha", "beta", "value", "branch"]
        for row in rows:
            assert float(row[3]) == pytest.approx(2.0, abs=1e-12)

    def test_itilde_at_diagonal_matches_classic(self, joint_path, tmp_path, capsys):
        rc = main(["measure", "--input", joint_path, "--quantity", "itilde,i",
                   "--alpha", "2", "--beta", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        tilde = next(float(r[3]) for r in rows[1:] if r[0] == "itilde")
        classic = next(float(r[3]) for r in rows[1:] if r[0] == "i")
        assert tilde == pytest.approx(classic, abs=1e-12)

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["measure", "--input", str(bad)])
        assert rc == 2
        assert "line" in capsys.readouterr().err

    def test_nonfinite_mass_is_config_error(self, tmp_path, capsys):
        for bad in ("NaN", "Infinity"):
            path = tmp_path / f"{bad}.json"
            path.write_text('{"alphabet_x": ["a", "b"], "alphabet_y": ["0", "1"], '
                            f'"pmf": [[0.5, 0.5], [0.0, {bad}]]}}')
            rc = main(["measure", "--input", str(path), "--quantity", "htilde",
                       "--alpha", "2", "--beta", "0.5"])
            assert rc == 2, bad
            assert "JointPmf" in capsys.readouterr().err

    def test_nats_rescale(self, joint_path, tmp_path):
        o1, o2 = tmp_path / "bits.csv", tmp_path / "nats.csv"
        main(["measure", "--input", joint_path, "--quantity", "h", "--alpha", "2",
              "--out", str(o1)])
        main(["measure", "--input", joint_path, "--quantity", "h", "--alpha", "2",
              "--nats", "--out", str(o2)])
        _, _, r1 = read_csv(o1)
        _, _, r2 = read_csv(o2)
        assert float(r2[0][3]) == pytest.approx(float(r1[0][3]) * math.log(2.0))

    def test_nonpositive_tolerance_rejected(self, joint_path):
        rc = main(["measure", "--input", joint_path, "--quantity", "h",
                   "--alpha", "2", "--tol", "-1"])
        assert rc == 2

    def test_marginal_divergence(self, tmp_path):
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text(to_json(Pmf(("0", "1"), [0.5, 0.5])))
        q.write_text(to_json(Pmf(("0", "1"), [0.25, 0.75])))
        out = tmp_path / "d.csv"
        rc = main(["measure", "--input", str(p), "--ref", str(q), "--quantity", "d",
                   "--alpha", "2", "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][3]) == pytest.approx(math.log2(4.0 / 3.0))


class TestExponent:
    def test_pa_beta_two_equals_closed_form(self, joint_path, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["exponent", "pa", "--input", joint_path, "--beta", "2",
                   "--rate", "0,0.5,1,1.5", "--no-dual", "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        j = JointPmf(("a", "b"), ("0", "1"), [[0.4, 0.1], [0.2, 0.3]])
        h2 = cond_entropy_variant("h", j, 2).value
        for row in rows:
            assert float(row[2]) == max(float(row[1]) - h2, 0.0)

    def test_sc_independent_all_zero(self, tmp_path):
        j = JointPmf(("a", "b"), ("0", "1"), np.outer([0.3, 0.7], [0.6, 0.4]))
        path = tmp_path / "ind.json"
        path.write_text(to_json(j))
        out = tmp_path / "e.csv"
        rc = main(["exponent", "sc", "--input", str(path), "--beta", "0.5,2",
                   "--rate", "0,0.3,0.9", "--no-dual", "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert all(abs(float(r[2])) <= 1e-10 for r in rows)

    def test_rows_sorted_and_dual_close(self, joint_path, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["exponent", "pa", "--input", joint_path, "--beta", "0.5",
                   "--rate", "1.0,0.25", "--solver-iters", "1500", "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert [float(r[1]) for r in rows] == [0.25, 1.0]
        for r in rows:
            assert abs(float(r[2]) - float(r[4])) <= 1e-3

    def test_empty_rate_grid_is_config_error(self, joint_path, capsys):
        rc = main(["exponent", "pa", "--input", joint_path, "--beta", "0.5",
                   "--rate", " "])
        assert rc == 2


class TestVariational:
    def test_h_report(self, joint_path, tmp_path):
        out = tmp_path / "v.csv"
        rc = main(["variational", "h", "--input", joint_path, "--alpha", "2",
                   "--beta", "1", "--solver-iters", "1500", "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][6]) <= max(1e-4, float(rows[0][5]))


class TestSimulate:
    def test_fixed_seed_byte_identical(self, joint_path, tmp_path):
        o1, o2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["simulate", "sc", "--input", joint_path, "--mode", "mc", "--n", "1",
                "--m", "2", "--beta", "1.5", "--samples", "400", "--seed", "33"]
        assert main(args + ["--out", str(o1)]) == 0
        assert main(args + ["--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_exact_single_codeword_matches_measure(self, joint_path, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["simulate", "sc", "--input", joint_path, "--mode", "exact",
                   "--n", "1", "--m", "1", "--beta", "2", "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        j = JointPmf(("a", "b"), ("0", "1"), [[0.4, 0.1], [0.2, 0.3]])
        want = mutual_info_variant("i", j, 2).value
        assert float(rows[0][4]) == pytest.approx(want, abs=1e-12)

    def test_over_cap_exit_code(self, tmp_path):
        j = JointPmf(tuple(map(str, range(4))), ("0", "1"), np.full((4, 2), 0.125))
        path = tmp_path / "wide.json"
        path.write_text(to_json(j))
        rc = main(["simulate", "pa", "--input", str(path), "--mode", "exhaustive",
                   "--n", "3", "--m", "4", "--beta", "0.5"])
        assert rc == 3

    def test_requires_exactly_one_size_flag(self, joint_path):
        assert main(["simulate", "pa", "--input", joint_path, "--beta", "0.5"]) == 2
        assert main(["simulate", "pa", "--input", joint_path, "--beta", "0.5",
                     "--m", "2", "--rate", "1.0"]) == 2

    def test_rate_rounding_recorded(self, joint_path, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["simulate", "pa", "--input", joint_path, "--mode", "exhaustive",
                   "--n", "2", "--rate", "0.8", "--beta", "0.5", "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert "round(2^(n*R))" in rows[0][7]
        assert rows[0][1] == "3"


class TestVerify:
    def test_selected_props_pass(self, capsys):
        rc = main(["verify", "--props", "power-concavity,div-order-mono",
                   "--samples", "25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS power-concavity" in out
        assert "PASS div-order-mono" in out
        assert "FAIL" not in out

    def test_unknown_prop_is_config_error(self):
        assert main(["verify", "--props", "no-such-prop"]) == 2

    def test_injected_failure_named_with_counterexample(self, monkeypatch, tmp_path, capsys):
        def broken(rng, samples):
            return PropertyResult(
                "broken-mono", False, samples, 0.5,
                {"alpha": 2.0, "pmf": [[0.5, 0.5]]}, "injected for harness self-test",
            )

        monkeypatch.setitem(
            REGISTRY, "broken-mono",
            Property("broken-mono", "deliberately failing check", broken, 5),
        )
        report_path = tmp_path / "report.json"
        rc = main(["verify", "--props", "broken-mono", "--out", str(report_path)])
        assert rc == 4
        assert "FAIL broken-mono" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["all_passed"] is False
        assert report["results"][0]["counterexample"]["alpha"] == 2.0

    def test_reports_seconds_per_property(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(["verify", "--props", "power-concavity,mono-alpha", "--samples", "3",
                   "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert [r["name"] for r in report["results"]] == ["power-concavity", "mono-alpha"]
        for r in report["results"]:
            assert isinstance(r["seconds"], float) and r["seconds"] >= 0.0
        out = capsys.readouterr().out
        assert re.search(r"^PASS mono-alpha \(checked \d+, worst \S+, \d+\.\d{3} s\)$", out, re.M)


class TestSweep:
    def test_worker_pool_preserves_order(self, joint_path, tmp_path):
        out = tmp_path / "sw.csv"
        rc = main(["sweep", "--input", joint_path, "--alpha", "0.5,1,2",
                   "--beta", "0.5,1", "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        keys = [(r[0], r[1], r[2]) for r in rows]
        assert keys == sorted(keys, key=lambda k: (k[0], float(k[1]), float(k[2])))
        assert len(rows) == 12

    @pytest.mark.parametrize("extra", [[], ["--nats"], ["--strict-corner"],
                                       ["--nats", "--strict-corner"]],
                             ids=["bits", "nats", "strict", "nats-strict"])
    def test_sweep_is_measure_of_the_two_parameter_quantities(self, zeros_43_path, extra, capsys):
        outs = {}
        for cmd, quantity in (("sweep", []), ("measure", ["--quantity", "htilde,itilde"])):
            argv = [cmd, "--input", zeros_43_path, "--alpha", EXT_GRID, "--beta", EXT_GRID]
            assert main(argv + quantity + extra) == 0
            outs[cmd] = capsys.readouterr().out.splitlines()
        assert "cmd=sweep" in outs["sweep"][0]
        assert outs["sweep"][0].replace("cmd=sweep", "cmd=measure") == outs["measure"][0]
        assert outs["sweep"][1:] == outs["measure"][1:]
        assert len(outs["sweep"]) == 2 + 2 * 81
        corner = [line for line in outs["sweep"] if line.startswith("htilde,0,0,")]
        if "--strict-corner" in extra:
            assert corner == ["htilde,0,0,,undefined"]
        else:
            assert len(corner) == 1 and corner[0].endswith(",corner_zero_zero")

    def test_sweep_rejects_other_quantities(self, zeros_43_path, capsys):
        rc = main(["sweep", "--input", zeros_43_path, "--alpha", "2", "--beta", "1",
                   "--quantity", "htilde,hbar"])
        assert rc == 2
        assert "sweep supports htilde/itilde, got ['hbar']" in capsys.readouterr().err


class TestOneProcess:
    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_repeated_calls_match_fresh_processes(self, zeros_43_path, capsys):
        runs = [
            ["sweep", "--input", zeros_43_path, "--alpha", "0,1,2", "--beta", "0,inf",
             "--strict-corner", "--nats"],
            ["measure", "--input", zeros_43_path, "--alpha", "0,0.5,1,inf", "--beta", "0,2"],
            ["verify", "--props", "power-concavity,dpi-i", "--samples", "4", "--seed", "3"],
            ["sweep", "--input", zeros_43_path, "--alpha", "0,1,2", "--beta", "0,inf"],
        ]
        outs = []
        for argv in runs:
            code = main(argv)
            out = capsys.readouterr().out
            fresh_code, fresh_out = fresh_process(argv)
            assert code == fresh_code, argv
            assert without_times(out) == without_times(fresh_out), argv
            outs.append(out)
        # no flag of the first sweep leaks into the last one
        assert "units=nats" in outs[0] and "units=bits" in outs[3]
        assert "htilde,0,0,,undefined" in outs[0]
        assert "htilde,0,0,,undefined" not in outs[3]
