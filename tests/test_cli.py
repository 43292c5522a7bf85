"""CLI surface: eval/verify/sweep grammar, exit codes, report determinism."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from ehv.cli import build_parser, main
from ehv.params import spec_to_params
from ehv.registry import FAMILY_CHECKS, CheckOptions, Sampler, _draw_spec, run_check

CMD = [sys.executable, "-m", "ehv.cli"]


def run(*args, **kw):
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          **kw)


class TestEval:
    def test_theta_at_one_is_zero(self):
        out = run("eval", "theta", "--z", "1", "--p", "0.3")
        assert out.returncode == 0
        assert json.loads(out.stdout) == {"re": 0.0, "im": 0.0}

    def test_gamma_matches_library(self):
        out = run("eval", "gamma", "--z", "0.5", "--q", "0.3", "--p", "0.2")
        assert out.returncode == 0
        from ehv.core import Moduli
        from ehv.gamma import elliptic_gamma

        want = elliptic_gamma(0.5, Moduli(0.3, 0.2))
        got = json.loads(out.stdout)
        assert got["re"] == pytest.approx(want.real, rel=1e-15)

    def test_unknown_function_exit_2(self):
        out = run("eval", "nosuch", "--z", "1")
        assert out.returncode == 2
        assert "error" in json.loads(out.stderr)

    def test_sum_v_not_terminating_exit_2(self, tmp_path):
        # balanced 10-parameter data with no q^-N entry
        q = 0.31
        t0, t1, t4, t5, t6 = 0.5, 0.6, 0.7, 0.8, 0.9
        t7 = q * t0 * t0 / (t1 * t4 * t5 * t6)
        f = tmp_path / "v.json"
        f.write_text(json.dumps({
            "q": [q, 0], "p": [0.23, 0],
            "t": [[t1, 0], [t4, 0], [t5, 0], [t6, 0], [t7.real, t7.imag]],
            "extras": {"t0": [t0, 0], "N": 2},
        }))
        out = run("eval", "sum_V", "--params", str(f))
        assert out.returncode == 2
        assert "not terminating" in json.loads(out.stderr)["error"]

    @pytest.mark.parametrize("args", [
        ("theta", "--z", "1e-300", "--p", "0.5"),
        ("qpochhammer", "--z", "1e300", "--b", "0.5"),
        ("gamma", "--z", "1e300", "--q", "0.3", "--p", "0.2"),
        ("S", "--u", "1e5", "--w1", "1+1j", "--w2", "1"),
        ("theta_factorial", "--z", "0.5", "--p", "0.3", "--q", "1e-200",
         "--N", "-5"),
    ])
    def test_overflow_exit_2(self, args):
        out = run("eval", *args)
        assert out.returncode == 2
        [line] = out.stderr.splitlines()
        assert json.loads(line)["error"].startswith("overflow: ")

    @pytest.mark.parametrize("value", ["nan", "inf", "1,nan", "nanj"])
    def test_non_finite_argument_exit_2(self, value):
        out = run("eval", "theta", "--z", value, "--p", "0.5")
        assert out.returncode == 2
        [line] = out.stderr.splitlines()
        assert json.loads(line)["error"] == f"--z must be finite; got {value!r}"


class TestVerify:
    def test_ft_sum_passes(self):
        out = run("verify", "ft_sum", "--seed", "7", "--tol", "1e-11")
        assert out.returncode == 0
        assert out.stdout.count("PASS") == 50

    def test_unknown_identity_exit_2(self):
        out = run("verify", "no_such_identity")
        assert out.returncode == 2

    def test_json_reports_deterministic_modulo_runtime(self):
        outs = []
        for _ in range(2):
            r = run("verify", "kratt", "--seed", "5", "--json")
            assert r.returncode == 0
            rows = [json.loads(line) for line in r.stdout.splitlines()]
            for row in rows:
                row.pop("runtime_ms")
            outs.append(json.dumps(rows, sort_keys=True))
        assert outs[0] == outs[1]

    def test_report_schema(self):
        r = run("verify", "kratt", "--seed", "5", "--json")
        row = json.loads(r.stdout.splitlines()[0])
        assert list(row) == ["name", "lhs", "rhs", "abs_err", "rel_err",
                             "tol", "pass", "nodes", "runtime_ms",
                             "params_digest"]
        assert row["pass"] is True
        assert row["rel_err"] <= row["tol"]

    def test_biorth_inadmissible_params_exit_2(self, tmp_path):
        f = tmp_path / "rp.json"
        f.write_text(json.dumps({
            "q": [0.3, 0], "p": [0.2, 0],
            "t": [[0.6, 0], [0.6, 0], [0.6, 0], [0.6, 0], [0.5, 0]],
        }))
        out = run("verify", "biorth", "--n", "3", "--m", "2",
                  "--params", str(f))
        assert out.returncode == 2
        assert "inadmissible contour" in json.loads(out.stderr)["error"]

    @pytest.mark.parametrize("fields, error", [
        ({"n": 2, "f": [[0.5, 0]], "extras": {"t": 0.5}},
         "does not read extras, f, n"),
        ({"family": "E", "z": [1, 0], "x": [[0.5, 0]]},
         "does not read family, x, z"),
        ({"p": None}, "needs p"),
        ({"q": None, "p": None}, "needs q, p"),
    ])
    def test_biorth_params_refuses_unread_and_missing_fields(
            self, tmp_path, fields, error):
        d = {"q": [0.8, 0], "p": [0.1, 0],
             "t": [[0.85, 0], [0.83, 0], [0.86, 0], [0.84, 0], [0.45, 0]],
             **fields}
        f = tmp_path / "rp.json"
        f.write_text(json.dumps({k: v for k, v in d.items() if v is not None}))
        out = run("verify", "biorth", "--n", "1", "--m", "1",
                  "--params", str(f))
        assert out.returncode == 2 and out.stdout == ""
        assert error in json.loads(out.stderr)["error"]

    def test_malformed_node_budget_exit_2(self):
        out = run("verify", "theorem1",
                  env={**os.environ, "EHV_MAX_NODES": "1e6"})
        assert out.returncode == 2
        assert "positive integer" in json.loads(out.stderr)["error"]

    def test_failing_tolerance_exit_1(self):
        out = run("verify", "kratt", "--seed", "5", "--tol", "1e-18")
        assert out.returncode == 1

    @pytest.mark.parametrize("args, error", [
        (("verify", "cn1", "--n", "0"), "rank n must be >= 1"),
        (("verify", "theorem1", "--nodes", "0"), "nodes_per_dim must be >= 8"),
        (("verify", "ft_sum", "--tol", "0"), "tolerance must be > 0"),
        (("verify", "ident", "--tol", "-1"), "tolerance must be > 0"),
        (("sweep", "cn1", "--grid", "q=0.31:0.31:1", "--n", "0"),
         "rank n must be >= 1"),
        (("sweep", "cn1", "--grid", "q=0.31:0.31:1", "--tol", "0"),
         "tolerance must be > 0"),
        # a biorth cell needs both indices, each >= 0
        (("verify", "biorth", "--n", "-1", "--m", "0"), "both --n >= 0 and --m >= 0"),
        (("verify", "biorth", "--n", "0", "--m", "-2"), "both --n >= 0 and --m >= 0"),
        (("verify", "biorth", "--n", "2"), "both --n >= 0 and --m >= 0"),
        (("verify", "biorth", "--m", "1"), "both --n >= 0 and --m >= 0"),
        # a check refuses every option it does not read
        (("verify", "ident", "--n", "7"), "ident does not read --n;"),
        (("verify", "ident", "--n", "7", "--m", "3", "--nodes", "9"),
         "ident does not read --nodes, --n, --m;"),
        (("verify", "theorem1", "--n", "2"), "theorem1 does not read --n;"),
        (("verify", "ft_sum", "--nodes", "8"), "ft_sum does not read --nodes;"),
        (("verify", "operator", "--nodes", "64"),
         "operator does not read --nodes;"),
        (("verify", "cn1", "--m", "1"), "cn1 does not read --m;"),
        (("verify", "bailey", "--nodes", "64"), "bailey does not read --nodes;"),
        # theorem1's sweep draws E at the rank it is given, and E has rank 1
        (("sweep", "theorem1", "--grid", "t0=0.5:0.5:1", "--n", "2"),
         "E family is single-variable"),
    ])
    def test_zero_or_negative_option_exit_2(self, args, error):
        # 0 is a value, not "unset": it reaches the option's own check, and
        # an option the check does not read exits 2
        out = run(*args)
        assert out.returncode == 2 and out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and error in json.loads(lines[0])["error"]

    def test_biorth_cell_zero_zero(self):
        out = run("verify", "biorth", "--n", "0", "--m", "0", "--json")
        assert out.returncode == 0
        rows = [json.loads(line) for line in out.stdout.splitlines()]
        assert [r["name"] for r in rows] == ["biorth[n=0,m=0]"]


BASE_E = {
    # wide-margin base point: the t0 sweep over [0.1, 0.9] stays admissible
    "family": "E", "n": 1, "q": [0.2, 0], "p": [0.1, 0],
    "t": [[0.5, 0], [0.7, 0], [0.72, 0], [0.68, 0], [0.71, 0]],
}


class TestSweep:
    def test_theorem1_grid_all_pass(self, tmp_path):
        f = tmp_path / "base.json"
        f.write_text(json.dumps(BASE_E))
        out = run("sweep", "theorem1", "--grid", "t0=0.1:0.9:10",
                  "--params", str(f))
        assert out.returncode == 0
        rows = [json.loads(line) for line in out.stdout.splitlines()]
        summary = rows[-1]
        assert summary["points"] == 10
        assert summary["pass_fraction"] == 1.0

    def test_cn3_boundary_records_domain_violations(self):
        out = run("sweep", "cn3", "--grid", "t=0.3:0.9:6", "--seed", "1",
                  "--n", "1")
        assert out.returncode == 0
        rows = [json.loads(line) for line in out.stdout.splitlines()]
        names = " ".join(r.get("name", "") for r in rows[:-1])
        assert "DomainViolation" in names

    def test_empty_grid_exit_2(self):
        out = run("sweep", "theorem1", "--grid", "t0=0.1:0.9:0")
        assert out.returncode == 2

    @pytest.mark.parametrize("grid", ["q=0.3:nan:2", "t0=nan:0.5:2",
                                      "q=0.3:inf:2"])
    def test_non_finite_endpoint_exit_2(self, grid):
        out = run("sweep", "theorem1", "--grid", grid)
        assert out.returncode == 2
        [line] = out.stderr.splitlines()
        assert json.loads(line)["error"].startswith("malformed grid spec")

    def test_geometric_grid_and_output_file(self, tmp_path):
        f = tmp_path / "base.json"
        f.write_text(json.dumps(BASE_E))
        target = tmp_path / "rows.jsonl"
        out = run("sweep", "theorem1", "--grid", "t0=0.3:0.6:3:geom",
                  "--params", str(f), "--out", str(target))
        assert out.returncode == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 4          # 3 points + summary
        rows = [json.loads(line) for line in lines[:3]]
        assert rows[0]["name"].endswith("[t0=0.3]")
        assert all(r["pass"] for r in rows)

    def test_family_sweep_uses_the_rank_tolerance(self):
        out = run("sweep", "cn1", "--grid", "q=0.31:0.31:1", "--n", "1")
        assert out.returncode == 0
        assert '"tol":1e-09' in out.stdout.splitlines()[0]

    def test_digest_covers_the_whole_spec(self, tmp_path):
        # two base points that differ only in t0, swept over the same t1 value
        rows = []
        for t0 in (0.5, 0.55):
            f = tmp_path / f"base{t0}.json"
            f.write_text(json.dumps({**BASE_E,
                                     "t": [[t0, 0]] + BASE_E["t"][1:]}))
            out = run("sweep", "theorem1", "--grid", "t1=0.6:0.6:1",
                      "--params", str(f))
            assert out.returncode == 0
            rows.append(json.loads(out.stdout.splitlines()[0]))
        assert rows[0]["name"] == rows[1]["name"] == "theorem1[t1=0.6]"
        assert rows[0]["lhs"] != rows[1]["lhs"]
        assert rows[0]["params_digest"] != rows[1]["params_digest"]


class TestPrecisionFlag:
    def test_extended_eval_matches_std(self):
        a = run("eval", "theta", "--z", "0.4,0.1", "--p", "0.25")
        b = run("eval", "theta", "--z", "0.4,0.1", "--p", "0.25",
                "--precision", "extended")
        va, vb = json.loads(a.stdout), json.loads(b.stdout)
        assert va["re"] == pytest.approx(vb["re"], rel=1e-13)
        assert va["im"] == pytest.approx(vb["im"], rel=1e-13)

    def test_help_names_the_scope(self):
        out = run("verify", "--help")
        text = " ".join(out.stdout.split())
        assert "scalar functions, series and closed forms at 36 digits" in text
        assert "quadrature node tables and node sums stay float64" in text


# The flags each subcommand reads; it takes no other.
FLAGS = {
    "eval": {"--z", "--p", "--q", "--b", "--u", "--sigma", "--tau", "--w1",
             "--w2", "--w3", "--N", "--params", "--precision"},
    "verify": {"--params", "--tol", "--seed", "--nodes", "--n", "--m",
               "--json", "--precision"},
    "sweep": {"--grid", "--out", "--params", "--tol", "--seed", "--nodes",
              "--n", "--precision"},
}
BASE_ARGV = {
    "eval": ["eval", "theta", "--z", "0.5", "--p", "0.3"],
    "verify": ["verify", "degeneration_p0"],
    "sweep": ["sweep", "theorem1", "--grid", "t0=0.5:0.5:1"],
}


class TestFlagSurface:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: {flag for action in sp._actions
                      for flag in action.option_strings
                      if flag not in ("-h", "--help")}
               for name, sp in sub.choices.items()}
        assert got == FLAGS
        assert sum(map(len, got.values())) == 29

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--tol"), ("eval", "--seed"), ("eval", "--nodes"),
        ("eval", "--json"), ("eval", "--n"), ("eval", "--m"),
        ("eval", "--side"), ("verify", "--side"), ("sweep", "--json"),
        ("sweep", "--m"), ("sweep", "--side"),
        ("verify", "--see"),        # no abbreviations either
    ])
    def test_a_flag_it_does_not_read_exits_2(self, command, flag, capsys):
        value = {"--json": [], "--side": ["integral"]}.get(flag, ["1"])
        with pytest.raises(SystemExit) as exc:
            main(BASE_ARGV[command] + [flag] + value)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _seeded(name, seed, n):
    """The check's first seeded spec and row at rank n (theorem1 reads no
    --n: it draws at rank 1)."""
    smp = Sampler(seed if name == "theorem1" else seed + n)
    spec = _draw_spec(smp, FAMILY_CHECKS[name][0], n)
    opts = CheckOptions(seed=seed, n=None if name == "theorem1" else n)
    row = run_check(name, opts)[0]
    return spec, json.loads(row.to_json_line())


class TestFamilyParamsFile:
    """A parameter file holding a family check's own seeded draw reproduces
    that draw's row: the file's family and rank n are the check's."""

    @pytest.mark.parametrize("name", sorted(FAMILY_CHECKS))
    def test_file_reproduces_the_seeded_row(self, name, tmp_path, capsys):
        n = FAMILY_CHECKS[name][1] or 2
        spec, want = _seeded(name, 4, n)
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec_to_params(spec)))
        assert main(["verify", name, "--params", str(f), "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        row = json.loads(lines[0])
        assert row["name"] == f"{name}[n={n}]"
        for key in ("lhs", "rhs", "params_digest"):
            assert row[key] == want[key]

    def test_mismatches_exit_2(self, tmp_path):
        spec, _ = _seeded("an2_odd", 4, 1)
        f = tmp_path / "an2.json"
        f.write_text(json.dumps(spec_to_params(spec)))
        for args, error in [
                (("verify", "an3_odd"), "this check's is 'An_III'"),
                (("verify", "an2_odd", "--n", "2"), "--n 2 disagrees"),
                (("sweep", "an2_odd", "--grid", "q=0.3:0.3:1", "--n", "3"),
                 "--n 3 disagrees"),
                (("verify", "ident"), "ident does not read --params;")]:
            out = run(*args, "--params", str(f))
            assert out.returncode == 2 and out.stdout == ""
            assert error in json.loads(out.stderr)["error"]

    def test_unread_parameters_exit_2(self, tmp_path):
        """A file holding an extra or a sequence its family does not read is
        refused by verify and by sweep: a sweep over it would print rows
        that all evaluate the same integral."""
        an1, _ = _seeded("an1", 4, 1)
        an1 = spec_to_params(an1)
        for name, d, unread in [
                ("theorem1", {**BASE_E, "extras": {"t": [0.3, 0]}}, "extra 't'"),
                ("theorem1", {**BASE_E, "extras": {"N": 4}}, "extra 'N'"),
                ("an1", {**an1, "x": [[0.5, 0]]}, "sequence x"),
                ("cn1", {**BASE_E, "family": "Cn_I", "f": [[0.5, 0]]},
                 "sequence f")]:
            f = tmp_path / "spec.json"
            f.write_text(json.dumps(d))
            for args in (("verify", name),
                         ("sweep", name, "--grid", "t=0.2:0.6:3")):
                out = run(*args, "--params", str(f))
                assert out.returncode == 2 and out.stdout == ""
                assert f"does not read {unread}" in json.loads(out.stderr)["error"]

    def test_bailey_beyond_its_largest_n_exits_2(self):
        out = run("verify", "bailey", "--n", "6")
        assert out.returncode == 2
        assert "from 1 to 5, got 6" in json.loads(out.stderr)["error"]


class TestParityChecks:
    """an2_odd, an2_even, an3_odd and an3_even test the closed form of one
    parity of n: --n or a file of the other parity exits 2."""

    @pytest.mark.parametrize("args, parity", [
        (("verify", "an2_odd", "--n", "2"), "odd"),
        (("verify", "an3_odd", "--n", "4"), "odd"),
        (("verify", "an2_even", "--n", "1"), "even"),
        (("verify", "an3_even", "--n", "3"), "even"),
        (("sweep", "an2_even", "--grid", "q=0.3:0.3:1", "--n", "3"), "even")])
    def test_parity_checks_refuse_the_other_parity(self, args, parity):
        # an2_odd --n 2 used to print an2_even's rows under another name
        out = run(*args)
        assert out.returncode == 2 and out.stdout == ""
        assert (f"{args[1]} takes an {parity} n; got n = {args[-1]}"
                in json.loads(out.stderr)["error"])

    def test_parity_check_runs_at_its_own_parity(self):
        rows = run_check("an2_odd", CheckOptions(seed=0, n=3))
        assert [r.name for r in rows] == ["an2_odd[n=3,0]", "an2_odd[n=3,1]"]
        assert all(r.passed for r in rows)

    def test_parity_check_refuses_a_file_of_the_other_parity(self, tmp_path):
        spec, _ = _seeded("an2_even", 4, 2)
        f = tmp_path / "an2.json"
        f.write_text(json.dumps(spec_to_params(spec)))
        out = run("verify", "an2_odd", "--params", str(f))
        assert out.returncode == 2
        assert "an2_odd takes an odd n; got n = 2" in \
            json.loads(out.stderr)["error"]

