"""Command line interface: file contents, determinism, and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvqec
from cvqec import cli
from cvqec.cli import build_parser, main
from cvqec.protocol import optimal_alpha_qubit


def _read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestFig2:
    def test_variance_curve(self, tmp_path):
        assert main(["fig2", "--sigma", "0.1", "--out", str(tmp_path)]) == 0
        _, rows = _read_rows(tmp_path / "fig2_variance.csv")
        by_alpha = {float(r["alpha"]): float(r["var_p"]) for r in rows}
        assert by_alpha[0.0] == pytest.approx(0.005, abs=1e-10)
        alpha_opt = optimal_alpha_qubit(0.1)
        opt_rows = [r for r in rows if r["is_opt"] == "1"]
        assert len(opt_rows) == 1
        assert float(opt_rows[0]["alpha"]) == pytest.approx(alpha_opt, rel=1e-4)
        assert float(opt_rows[0]["var_p"]) == pytest.approx(
            (1 - math.exp(-1)) * 0.005, abs=1e-8)
        # interior minimum: the optimum beats both curve endpoints
        assert float(opt_rows[0]["var_p"]) < min(by_alpha[0.0],
                                                 by_alpha[max(by_alpha)])

    def test_distribution_narrows(self, tmp_path):
        assert main(["fig2", "--out", str(tmp_path)]) == 0
        _, rows = _read_rows(tmp_path / "fig2_distribution.csv")
        center = min(rows, key=lambda r: abs(float(r["beta_p"])))
        assert float(center["p_corrected"]) > float(center["p_uncorrected"])
        # corrected distribution integrates to 1 like the raw one
        db = float(rows[1]["beta_p"]) - float(rows[0]["beta_p"])
        total = sum(float(r["p_corrected"]) for r in rows) * db
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_sidecar_has_no_timestamp(self, tmp_path):
        assert main(["fig2", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "fig2_config.json").read_text())
        assert payload["config"]["command"] == "fig2"
        assert "time" not in json.dumps(payload).lower()


class TestFig3:
    def test_monotone_and_bounded(self, tmp_path):
        assert main(["fig3", "--sigma", "0.1", "--dmax", "6",
                     "--out", str(tmp_path)]) == 0
        _, rows = _read_rows(tmp_path / "fig3_qudit.csv")
        var_opt = [float(r["var_opt"]) for r in rows]
        assert all(a > b for a, b in zip(var_opt, var_opt[1:]))
        assert float(rows[0]["var_opt"]) == pytest.approx(
            (1 - math.exp(-1)) * 0.005, abs=1e-9)
        for r in rows:
            if float(r["d"]) >= 4:
                assert float(r["var_at_alpha_s"]) < float(r["bound"])

    @pytest.mark.parametrize("dmax", ["64", "1", "0"])
    def test_dmax_cap(self, tmp_path, dmax):
        assert main(["fig3", "--dmax", dmax, "--out", str(tmp_path)]) == 3
        assert not (tmp_path / "fig3_qudit.csv").exists()

    # Text written by the quadrature implementation of the qudit moments;
    # the closed-form Fejer sum must reproduce it exactly.
    def test_pinned_csv_text(self, tmp_path):
        assert main(["fig3", "--sigma", "0.1", "--dmax", "9",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig3_qudit.csv").read_text() == (
            "d,alpha_opt,var_opt,var_at_alpha_s,bound\n"
            "2,7.07106788,0.00316060279,0.00320751901,0.03125\n"
            "3,5.0900311,0.00290688184,0.00303159214,0.0208333333\n"
            "4,7.09359629,0.00266838125,0.00270892115,0.015625\n"
            "5,6.56164848,0.00229640403,0.00230403946,0.0125\n"
            "6,6.57603667,0.00202742618,0.00203346387,0.0104166667\n"
            "7,6.46936875,0.00181299133,0.00181594038,0.00892857143\n"
            "8,6.40334116,0.00164487884,0.00164598037,0.0078125\n"
            "9,6.34963371,0.00150677035,0.00150711738,0.00694444444\n")

    # Text written when each optimizer evaluation built the per-outcome
    # noise description; d >= 8 sums 8 or more outcome terms.
    def test_pinned_csv_text_to_d15(self, tmp_path):
        assert main(["fig3", "--sigma", "0.2", "--dmax", "15",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig3_qudit.csv").read_text() == (
            "d,alpha_opt,var_opt,var_at_alpha_s,bound\n"
            "2,3.53553406,0.0126424112,0.012830076,0.125\n"
            "3,2.54501541,0.0116275274,0.0121263686,0.0833333333\n"
            "4,3.54679802,0.010673525,0.0108356846,0.0625\n"
            "5,3.28082394,0.00918561612,0.00921615783,0.05\n"
            "6,3.28801841,0.0081097047,0.00813385548,0.0416666667\n"
            "7,3.23468431,0.00725196531,0.00726376152,0.0357142857\n"
            "8,3.20167087,0.00657951535,0.00658392148,0.03125\n"
            "9,3.17481679,0.00602708138,0.0060284695,0.0277777778\n"
            "10,3.14786305,0.00556784806,0.00556789585,0.025\n"
            "11,3.1262396,0.00517872646,0.00517901033,0.0227272727\n"
            "12,3.10548064,0.00484449905,0.00484604277,0.0208333333\n"
            "13,3.08727367,0.00455412467,0.00455756599,0.0192307692\n"
            "14,3.07038212,0.00429920999,0.00430504222,0.0178571429\n"
            "15,3.05493812,0.00407352165,0.00408203744,0.0166666667\n")


class TestFig4:
    def test_byte_identical_reruns(self, tmp_path):
        argv = ["fig4", "--code", "three_qubit", "--trajectories", "60",
                "--points", "0.0", "0.1", "--out", str(tmp_path)]
        assert main(argv) == 0
        stem = "fig4_three_qubit_coherent_pphi"
        first = {(tmp_path / name).read_bytes()
                 for name in (f"{stem}.csv", f"{stem}_config.json")}
        assert main(argv) == 0
        second = {(tmp_path / name).read_bytes()
                  for name in (f"{stem}.csv", f"{stem}_config.json")}
        assert first == second

    def test_leakage_warning_goes_to_stderr_only(self, tmp_path):
        """At sigma 3 the shor9 ancilla displacements move population past
        the Fock cutoff: a fresh interpreter prints one TruncationWarning on
        stderr and writes the same bytes as with warnings ignored."""
        src = str(Path(cvqec.__file__).resolve().parent.parent)
        runs = []
        for flags in ([], ["-W", "ignore"]):
            out = tmp_path / f"run{len(runs)}"
            out.mkdir()
            proc = subprocess.run([sys.executable, *flags, "-m", "cvqec.cli", "fig4", "--code",
                                   "shor", "--sweep", "sigma", "--points", "3",
                                   "--trajectories", "12", "--out", str(out)],
                                  capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": src}, timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs.append((proc, {path.name: path.read_bytes() for path in out.iterdir()}))
        (warned, files), (quiet, same) = runs
        assert warned.stderr.count("TruncationWarning") == 1 and quiet.stderr == ""
        assert warned.stdout == quiet.stdout
        assert len(files) == 2 and files == same

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        """The command in two fresh interpreters, with OpenBLAS on one
        thread and on two, writes the same bytes."""
        src = str(Path(cvqec.__file__).resolve().parent.parent)
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            proc = subprocess.run([sys.executable, "-m", "cvqec.cli", "fig4", "--trajectories",
                                   "80", "--points", "0.05", "--out", str(out)],
                                  capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": src,
                                       "OPENBLAS_NUM_THREADS": threads}, timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert len(runs[0]) == 2 and runs[0] == runs[1]

    # Budget 1 makes every chunk one row, 14 gives chunks of 7 bare or 1
    # phase-code rows.  chunk_budget empties the memos at each budget.
    @pytest.mark.parametrize("code", ["none", "three_qubit"])
    def test_chunk_budget_does_not_change_bytes(self, tmp_path, chunk_budget, code):
        stem = f"fig4_{code}_coherent_pphi"
        outputs = []
        for budget in (1, 14, 2048, 65536):
            chunk_budget(budget)
            out = tmp_path / str(budget)
            out.mkdir()
            assert main(["fig4", "--code", code, "--trajectories", "300",
                         "--seed", "11", "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in (f"{stem}.csv", f"{stem}_config.json")])
        assert all(o == outputs[0] for o in outputs)

    # Text written by the dense-matrix implementation of the qubit-carrier
    # Paulis and confinement; the bit-mask path must reproduce it exactly.
    @pytest.mark.parametrize("argv, name, text", [
        (["--code", "shor", "--sweep", "sigma"], "fig4_shor_coherent_sigma.csv",
         "sigma,infidelity,std_error,n,unrecoverable,complement\n"
         "0.15,0.0171685174,0.00367272013,8,1,0\n"),
        (["--code", "three_qubit", "--sweep", "pphi"],
         "fig4_three_qubit_coherent_pphi.csv",
         "pphi,infidelity,std_error,n,unrecoverable,complement\n"
         "0.15,0.00824686661,0.00250492454,8,0,0\n"),
    ])
    def test_pinned_csv_text(self, tmp_path, argv, name, text):
        assert main(["fig4", *argv, "--points", "0.15", "--trajectories", "8",
                     "--seed", "5", "--out", str(tmp_path)]) == 0
        assert (tmp_path / name).read_text() == text

    # Text written by one run per point, before the points of a p_phi sweep
    # shared their trajectories.
    @pytest.mark.parametrize("code, text", [
        ("none", "pphi,infidelity,std_error,n,unrecoverable,complement\n"
                 + "0,0.00616261985,0.00076259889,40,0,0\n"
                 + "".join(f"{p},0.00616261985,0.00076259889,40,0,0\n"
                           for p in ("0.01", "0.02", "0.05", "0.1"))
                 + "0.15,0.00660414725,0.000820805066,40,0,0\n"
                 + "0.2,0.00682244718,0.000825701787,40,0,0\n"),
        ("three_qubit", "pphi,infidelity,std_error,n,unrecoverable,complement\n"
                        + "".join(f"{p},0.00630303823,0.000858372187,40,0,0\n"
                                  for p in ("0", "0.01", "0.02", "0.05", "0.1",
                                            "0.15", "0.2"))),
    ])
    def test_pinned_default_pphi_sweep_text(self, tmp_path, code, text):
        assert main(["fig4", "--code", code, "--trajectories", "40", "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"fig4_{code}_coherent_pphi.csv").read_text() == text

    # Text written with one seeded generator per trajectory and sweep point;
    # one chunk of 200 trajectories shares one set of draws across points.
    def test_pinned_csv_text_shared_sigma_sweep(self, tmp_path):
        assert main(["fig4", "--code", "binomial", "--sweep", "sigma",
                     "--points", "0.1", "0.15", "--trajectories", "200",
                     "--seed", "5", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig4_binomial_coherent_sigma.csv").read_text() == (
            "sigma,infidelity,std_error,n,unrecoverable,complement\n"
            "0.1,0.0092371637,0.000763233586,200,0,0\n"
            "0.15,0.0240558774,0.00216910795,200,3,0\n")

    def test_sweep_rows(self, tmp_path):
        assert main(["fig4", "--code", "none", "--trajectories", "40",
                     "--points", "0.0", "0.05", "0.1",
                     "--out", str(tmp_path)]) == 0
        _, rows = _read_rows(tmp_path / "fig4_none_coherent_pphi.csv")
        assert [float(r["pphi"]) for r in rows] == [0.0, 0.05, 0.1]
        for r in rows:
            assert r["n"] == "40"
            assert 0.0 <= float(r["infidelity"]) <= 1.0

    def test_rejects_pphi_sweep_for_bosonic_code(self, tmp_path):
        assert main(["fig4", "--code", "binomial", "--sweep", "pphi",
                     "--out", str(tmp_path)]) == 3

    def test_rejects_sigma_sweep_for_dephasing_code(self, tmp_path):
        assert main(["fig4", "--code", "none", "--sweep", "sigma",
                     "--out", str(tmp_path)]) == 3

    def test_bosonic_sigma_sweep(self, tmp_path):
        assert main(["fig4", "--code", "binomial", "--sweep", "sigma",
                     "--trajectories", "30", "--points", "0.1",
                     "--out", str(tmp_path)]) == 0
        _, rows = _read_rows(tmp_path / "fig4_binomial_coherent_sigma.csv")
        assert len(rows) == 1 and rows[0]["n"] == "30"


class TestOptimize:
    def test_squeezed_payload(self, tmp_path, capsys):
        assert main(["optimize", "--scheme", "squeezed", "--sigma", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["zeta_opt"] == pytest.approx(
            math.log(1 - math.exp(-1)) / 8, abs=1e-4)
        assert payload["squeezing_db"] == pytest.approx(0.996, abs=1e-3)

    def test_qubit_to_file(self, tmp_path):
        out = tmp_path / "opt.json"
        assert main(["optimize", "--scheme", "qubit_p", "--sigma", "0.1",
                     "--out-file", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["alpha_opt"] == pytest.approx(
            optimal_alpha_qubit(0.1), rel=1e-4)

    def test_qudit_d(self, tmp_path):
        out = tmp_path / "opt.json"
        assert main(["optimize", "--scheme", "qudit", "--sigma", "0.1",
                     "--d", "3", "--out-file", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["d"] == 3
        assert payload["var_p"] < (1 - math.exp(-1)) * 0.005

    # JSON of the closed-form qubit and squeezed optima and of the qudit
    # search on the closed-form variance.
    @pytest.mark.parametrize("argv, text", [
        (["--scheme", "qubit_p", "--sigma", "0.1"],
         '{\n'
         '  "alpha_opt": 3.535533905932737,\n'
         '  "scheme": "qubit_p",\n'
         '  "sigma": 0.1,\n'
         '  "var_p": 0.003160602794142789\n'
         '}\n'),
        (["--scheme", "two_qubit", "--sigma", "0.1"],
         '{\n'
         '  "alpha_opt": 3.535533905932737,\n'
         '  "scheme": "two_qubit",\n'
         '  "sigma": 0.1,\n'
         '  "var_p": 0.003160602794142789,\n'
         '  "var_q": 0.003160602794142789\n'
         '}\n'),
        (["--scheme", "squeezed", "--sigma", "0.1"],
         '{\n'
         '  "scheme": "squeezed",\n'
         '  "sigma": 0.1,\n'
         '  "squeezing_db": 0.9960004231389074,\n'
         '  "total_variance": 0.007950600976206503,\n'
         '  "zeta_opt": -0.05733439317338524\n'
         '}\n'),
        (["--scheme", "qudit", "--sigma", "0.1"],
         '{\n'
         '  "alpha_opt": 6.403341159930514,\n'
         '  "d": 8,\n'
         '  "scheme": "qudit",\n'
         '  "sigma": 0.1,\n'
         '  "var_p": 0.0016448788374535536\n'
         '}\n'),
        (["--scheme", "squeezed", "--sigma", "0.2"],
         '{\n'
         '  "scheme": "squeezed",\n'
         '  "sigma": 0.2,\n'
         '  "squeezing_db": 0.9960004231389074,\n'
         '  "total_variance": 0.03180240390482601,\n'
         '  "zeta_opt": -0.05733439317338524\n'
         '}\n'),
        (["--scheme", "qudit", "--sigma", "0.1", "--d", "15"],
         '{\n'
         '  "alpha_opt": 6.10987611684439,\n'
         '  "d": 15,\n'
         '  "scheme": "qudit",\n'
         '  "sigma": 0.1,\n'
         '  "var_p": 0.0010183804115292082\n'
         '}\n'),
    ])
    def test_pinned_json_text(self, tmp_path, argv, text):
        out = tmp_path / "opt.json"
        assert main(["optimize", *argv, "--out-file", str(out)]) == 0
        assert out.read_text() == text


class TestExitCodes:
    def test_bad_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["fig9"])
        assert exc.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize"])
        assert exc.value.code == 2

    def test_numerical_failure(self, tmp_path):
        assert main(["fig4", "--sigma", "-0.2", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("argv", [
        ["--sigma", "inf", "--points", "0.1"],
        ["--amplitude", "nan"],
        ["--amplitude", "inf"],
        ["--sweep", "sigma", "--code", "binomial", "--points", "inf"]])
    def test_non_finite_input_writes_nothing(self, tmp_path, argv):
        assert main(["fig4", "--trajectories", "4", *argv, "--out", str(tmp_path)]) == 3
        assert list(tmp_path.iterdir()) == []

    # 1e-310 is subnormal: its closed-form optimum alpha overflows to inf
    @pytest.mark.parametrize("sigma", ["inf", "nan", "0", "-0.1", "1e-310"])
    @pytest.mark.parametrize("command", [
        ["fig2"], *(["optimize", "--scheme", scheme]
                    for scheme in ("qubit_p", "two_qubit", "squeezed", "qudit"))])
    def test_bad_sigma_writes_nothing(self, tmp_path, command, sigma):
        self._exits_3_writing_nothing(tmp_path, [*command, "--sigma", sigma])

    @pytest.mark.parametrize("argv", [
        ["fig3", "--dmax", "3", "--s", "inf"], ["fig3", "--dmax", "3", "--s", "nan"],
        ["optimize", "--scheme", "qudit", "--d", "33"],
        ["optimize", "--scheme", "qudit", "--d", "1"]])
    def test_unbounded_qudit_input_writes_nothing(self, tmp_path, argv):
        self._exits_3_writing_nothing(tmp_path, argv)

    @pytest.mark.parametrize("argv", [
        ["optimize", "--scheme", "qudit", "--d", "3", "--sigma", "1e-12"],
        ["fig3", "--sigma", "1e-12", "--dmax", "3"]])
    def test_tiny_sigma_search_ends(self, tmp_path, argv):
        """At sigma 1e-12 the qudit search's bracket lies near 1e12, where
        the float spacing is wider than its absolute tolerance; the search
        must still end.  A fresh interpreter, so a hang fails at the
        timeout instead of stalling the suite."""
        target = (["--out-file", str(tmp_path / "opt.json")] if argv[0] == "optimize"
                  else ["--out", str(tmp_path)])
        src = str(Path(cvqec.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-m", "cvqec.cli", *argv, *target],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert list(tmp_path.iterdir())

    @staticmethod
    def _exits_3_writing_nothing(tmp_path, argv):
        target = (["--out-file", str(tmp_path / "opt.json")] if argv[0] == "optimize"
                  else ["--out", str(tmp_path)])
        assert main([*argv, *target]) == 3
        assert list(tmp_path.iterdir()) == []

    def test_io_failure(self, tmp_path):
        missing = tmp_path / "does" / "not" / "exist"
        assert main(["fig2", "--out", str(missing)]) == 4


class TestParser:
    """main builds the arguments of the chosen subcommand only."""

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("    ")]
        assert listed == ["fig2", "fig3", "fig4", "optimize"]

    def test_subcommand_help_prints_its_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig4", "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: cvqec fig4")
        assert all(flag in out for flag in ("--trajectories", "--points", "--amplitude"))

    @pytest.mark.parametrize("argv, expected", [
        (["fig2", "--sigma", "0.2"], dict(sigma=0.2, out=".")),
        (["fig3", "--dmax", "4", "--s", "3"], dict(sigma=0.1, dmax=4, s=3.0, out=".")),
        (["fig4", "--code", "shor", "--sweep", "sigma", "--points", "0.1", "0.2"],
         dict(state="coherent", code="shor", sweep="sigma", trajectories=2000,
              seed=0, sigma=0.1, amplitude=0.0, points=[0.1, 0.2], out=".")),
        (["optimize", "--scheme", "qudit", "--d", "5", "--out-file", "x.json"],
         dict(scheme="qudit", sigma=0.1, d=5, out_file="x.json"))])
    def test_subcommand_arguments_and_defaults(self, argv, expected):
        args = vars(build_parser(argv[0]).parse_args(argv))
        assert args.pop("func") is getattr(cli, f"cmd_{argv[0]}")
        assert args == dict(command=argv[0], **expected)

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["fig9"], "argument command: invalid choice: 'fig9'")])
    def test_missing_or_unknown_subcommand(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_unknown_option_of_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig4", "--dmax", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dmax 3" in capsys.readouterr().err


# Run in a fresh interpreter: imports cvqec.cli, runs each argv (given as
# JSON on stdin) through main, and prints the loaded scipy and
# numpy.polynomial modules.
_IMPORT_PROBE = """
import json, sys
from cvqec.cli import main
for argv in json.load(sys.stdin):
    rc = main(argv)
    if rc != 0:
        sys.exit(f"exit code {rc} from {argv}")
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith(("scipy.", "numpy.polynomial")))))
"""


def test_no_command_loads_scipy(tmp_path):
    """scipy and numpy.polynomial serve only the oracles (adaptive
    quadrature and the Cholesky check in the package, expm and the
    Gauss-Hermite rules in tests/oracles.py), so importing the CLI and
    running one small command of each kind leaves both unloaded."""
    out = ["--out", str(tmp_path)]
    commands = [["fig2", *out], ["fig3", "--dmax", "3", *out]]
    commands += [["optimize", "--scheme", scheme, "--d", "3",
                  "--out-file", str(tmp_path / f"{scheme}.json")]
                 for scheme in ("qubit_p", "two_qubit", "squeezed", "qudit")]
    commands += [["fig4", "--code", code, "--points", "0.1", "--trajectories", "4",
                  *out] for code in ("none", "three_qubit")]
    commands += [["fig4", "--code", code, "--sweep", "sigma", "--points", "0.1",
                  "--trajectories", "2", *out] for code in ("binomial", "shor")]
    src = str(Path(cvqec.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          input=json.dumps(commands), capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
