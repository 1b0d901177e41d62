import json
import os
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

from substochastic import SweepSpec, family_from_config, perron_ladder, run_sweep, sweep_csv
from substochastic.cli import EXIT_ERROR, EXIT_UNKNOWN, main

RUN = [sys.executable, "-m", "substochastic.cli"]


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        RUN + args, capture_output=True, text=True, input=stdin_text, timeout=300
    )
    return proc


@pytest.fixture(scope="module")
def star_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("digraphs") / "star.json"
    proc = run_cli(
        ["construct", "example2",
         "--params", '{"a": {"kind": "list", "values": ["3/5", "4/5"]}}',
         "--emit-truncation", "3", "--out", str(path)]
    )
    assert proc.returncode == 0
    return str(path)


DIGRAPH_SCHEMA = {
    "type": "object",
    "required": ["order", "arcs"],
    "properties": {
        "order": {"type": "integer", "minimum": 0},
        "arcs": {
            "type": "array",
            "items": {
                "type": "array",
                "minItems": 3,
                "maxItems": 3,
                "prefixItems": [
                    {"type": "integer", "minimum": 1},
                    {"type": "integer", "minimum": 1},
                    {"type": "string"},
                ],
            },
        },
    },
}

CYCLES_SCHEMA = {
    "type": "object",
    "required": ["cycles", "truncated"],
    "properties": {
        "truncated": {"type": "boolean"},
        "cycles": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["vertices", "length", "weight", "gain"],
                "properties": {
                    "vertices": {"type": "array", "items": {"type": "integer"}},
                    "length": {"type": "integer"},
                    "weight": {"type": "string"},
                    "gain": {
                        "type": "object",
                        "required": ["value", "weight", "length"],
                    },
                },
            },
        },
    },
}

VERDICT_SCHEMA = {
    "type": "object",
    "required": ["family", "verdict", "confidence", "evidence", "notes"],
    "properties": {
        "verdict": {"enum": ["transient", "recurrent", "unknown"]},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["name", "instances_tested", "violations", "min_margin", "ok"],
    "properties": {
        "instances_tested": {"type": "integer"},
        "violations": {"type": "array"},
        "ok": {"type": "boolean"},
    },
}


ALL_SUBCOMMANDS = [
    ["cycles", "enumerate"],
    ["cycles", "fvs"],
    ["cycles", "omega"],
    ["spectral", "perron"],
    ["spectral", "charpoly"],
    ["spectral", "ladder"],
    ["classify"],
    ["construct"],
    ["verify"],
    ["sweep"],
    ["fit"],
]


@pytest.mark.parametrize("cmd", ALL_SUBCOMMANDS, ids=lambda c: "-".join(c))
def test_help_contract(cmd):
    proc = run_cli(cmd + ["--help"])
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()


class TestCyclesCommands:
    def test_enumerate_schema(self, star_json):
        proc = run_cli(["cycles", "enumerate", "--digraph", star_json, "--max-len", "2"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, CYCLES_SCHEMA)
        assert len(payload["cycles"]) == 2
        assert payload["cycles"][0]["vertices"][0] == 1  # 1-based ids

    def test_enumerate_budget_equal_to_cycle_count_is_not_truncated(self, star_json):
        proc = run_cli(["cycles", "enumerate", "--digraph", star_json, "--max-count", "2"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert len(payload["cycles"]) == 2
        assert payload["truncated"] is False

    def test_fvs(self, star_json):
        proc = run_cli(["cycles", "fvs", "--digraph", star_json])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload == {"vertices": [1], "size": 1, "optimality": "exact"}

    def test_omega_on_family(self):
        proc = run_cli(["cycles", "omega", "--family", "example1", "--n", "5"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["omega"]["value"] == pytest.approx(0.5)


class TestSpectralCommands:
    def test_perron(self, star_json):
        proc = run_cli(["spectral", "perron", "--digraph", star_json])
        payload = json.loads(proc.stdout)
        assert payload["perron_root"] == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("method", ["coates", "elimination"])
    def test_charpoly_methods_agree(self, star_json, method):
        proc = run_cli(["spectral", "charpoly", "--digraph", star_json, "--method", method])
        payload = json.loads(proc.stdout)
        assert payload["coefficients"] == ["1", "0", "-1"]
        assert payload["nonzero_eig_count"] == 2

    def test_ladder_csv(self):
        proc = run_cli(["spectral", "ladder", "--family", "example2", "--n-list", "2,4,8"])
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "n,lambda_n,gap_to_limit"
        assert len(lines) == 4


class TestLadderSupExact:
    def test_matches_the_library_in_process(self, capsys):
        assert main(["spectral", "ladder", "--family", "example2", "--n-list", "3,2",
                     "--ladder-mode", "sup_exact"]) == 0
        lines = capsys.readouterr().out.splitlines()
        spectrum = perron_ladder(family_from_config("example2"), [2, 3], mode="sup_exact")
        assert spectrum.limit_method == "closed-form"
        assert lines == ["n,lambda_n,gap_to_limit"] + [
            f"{n},{value!r},{spectrum.limit_estimate - value!r}"
            for n, value in sorted(spectrum.values.items())]
        # the supremum over every order-n subdigraph of the window reaches the leading one
        leading = perron_ladder(family_from_config("example2"), [2, 3])
        assert all(spectrum.values[n] >= leading.values[n] for n in (2, 3))


class TestClassifyCommand:
    def test_certified_recurrent_exit_zero(self):
        proc = run_cli(["classify", "--family", "example2", "--n-max", "20", "--p-max", "100"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, VERDICT_SCHEMA)
        assert payload["verdict"] == "recurrent"
        assert payload["confidence"] == "certified"

    def test_numerical_verdict_exit_two(self):
        params = '{"f": {"kind": "geometric", "ratio": "1/2"}}'
        proc = run_cli(
            ["classify", "--family", "example1", "--params", params,
             "--n-max", "40", "--p-max", "2000"]
        )
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, VERDICT_SCHEMA)
        assert proc.returncode in (2, 3)
        if proc.returncode == 2:
            assert payload["confidence"] == "numerical"



class TestConstructCommand:
    def test_emits_digraph_schema(self, star_json):
        with open(star_json) as fh:
            payload = json.load(fh)
        jsonschema.validate(payload, DIGRAPH_SCHEMA)
        assert payload["order"] == 3

    @pytest.mark.parametrize(
        "family,params",
        [
            ("prop1", '{"lengths": {"kind": "linear"}, "targets": {"kind": "constant", "value": "1/2"}}'),
            ("prop2", "{}"),
            ("corollary1", "{}"),
            ("theorem2-fast", "{}"),
            ("example1", "{}"),
        ],
    )
    def test_all_builders_emit(self, family, params):
        proc = run_cli(["construct", family, "--params", params, "--emit-truncation", "8"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, DIGRAPH_SCHEMA)
        assert payload["order"] == 8


class TestVerifyCommand:
    def test_report_schema_and_exit_zero(self):
        proc = run_cli(["verify", "zeta", "--count", "4", "--seed", "3", "--order-max", "5"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["ok"] is True

    def test_conjecture_findings_do_not_fail(self):
        proc = run_cli(
            ["verify", "conjecture", "--count", "12", "--seed", "7", "--order-max", "7"]
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True


class TestSweepAndFit:
    def test_sweep_csv_deterministic(self):
        args = ["sweep", "--family", "example2", "--n-grid", "5,10,20", "--no-fvs"]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.startswith("# substochastic-sweep-v1")

    def test_progress_on_stderr_only(self):
        proc = run_cli(["sweep", "--family", "example2", "--n-grid", "5,10", "--no-fvs"])
        assert "done" in proc.stderr
        assert "done" not in proc.stdout

    def test_fit_pipeline(self, tmp_path):
        sweep = run_cli(["sweep", "--family", "example2", "--n-grid",
                         "50,100,200,400,800", "--no-fvs"])
        fit = run_cli(["fit", "--input", "-", "--y-col", "gap_to_limit"],
                      stdin_text=sweep.stdout)
        assert fit.returncode == 0
        payload = json.loads(fit.stdout)
        assert -0.6 < payload["slope"] < -0.4

    def test_fit_reads_every_float_row(self):
        # "1e2" is a number, not a header: all four rows are fitted
        fit = run_cli(["fit", "--input", "-"],
                      stdin_text="n,gap\n10,0.1\n1e2,0.01\n1000,0.001\n10000,0.0001\n")
        assert fit.returncode == 0
        payload = json.loads(fit.stdout)
        assert payload["points"] == 4 and payload["slope"] == pytest.approx(-1)

    @pytest.mark.parametrize("option", ["--x-col", "--y-col"])
    def test_fit_rejects_a_column_the_header_lacks(self, option):
        # a misspelt name used to leave column 0 or 1 in place and fit it
        fit = run_cli(["fit", "--input", "-", option, "gap_to_limt"],
                      stdin_text="n,lambda_n,gap_to_limit\n10,1.4,0.2\n100,1.1,0.06\n")
        assert fit.returncode == 1 and fit.stdout == ""
        assert fit.stderr.strip().splitlines() == [
            "error: column 'gap_to_limt' is not in the header (n, lambda_n, gap_to_limit)"
        ]

    def test_fit_without_a_header_reads_columns_0_and_1(self):
        fit = run_cli(["fit", "--input", "-", "--x-col", "size", "--y-col", "gap"],
                      stdin_text="10,0.1\n100,0.01\n1000,0.001\n")
        assert fit.returncode == 0
        assert json.loads(fit.stdout)["slope"] == pytest.approx(-1)

    @pytest.mark.parametrize("rows", ["inf,0.5\n", "40,nan\n"], ids=["inf-n", "nan-gap"])
    def test_fit_rejects_non_finite_points(self, rows):
        text = "n,gap\n10,0.1\n20,0.05\n30,0.03\n" + rows
        fit = run_cli(["fit", "--input", "-"], stdin_text=text)
        assert fit.returncode == 1 and fit.stdout == ""
        lines = fit.stderr.strip().splitlines()
        assert lines == ["error: points must be finite in the fitted window"]

    def test_fit_reports_a_short_row(self, tmp_path):
        # the row without a gap column used to end in an IndexError traceback
        path = tmp_path / "short.csv"
        path.write_text("n,gap\n1,0.5\n2\n")
        fit = run_cli(["fit", "--input", str(path)])
        assert fit.returncode == 1 and fit.stdout == ""
        assert fit.stderr.strip().splitlines() == [
            "error: row 3 has 1 column(s), column 2 is needed: '2'"
        ]

    @pytest.mark.parametrize("text, row", [
        ("n,gap\n1,0.5\nx,0.2\n2,0.25\n4,0.125\n", "row 3 is not numeric: 'x,0.2'"),
        ("n,gap\n1,0.5\n2,x\n4,0.125\n", "row 3 is not numeric: '2,x'"),
        ("# comment\nn,gap\nsize,gap\n1,0.5\n", "row 3 is not numeric: 'size,gap'"),
        ("1,0.5\nn,gap\n2,0.25\n", "row 2 is not numeric: 'n,gap'"),
    ], ids=["mid-file-row", "non-numeric-gap", "second-header", "header-after-data"])
    def test_fit_rejects_a_non_numeric_row_after_the_first(self, text, row):
        # such a row used to be taken for a header and dropped: 3 of 4 points fitted
        fit = run_cli(["fit", "--input", "-"], stdin_text=text)
        assert fit.returncode == 1 and fit.stdout == ""
        assert fit.stderr.strip().splitlines() == [f"error: {row}"]

    @pytest.mark.parametrize("text, args, message", [
        ("n,gap\n0,0.5\n1,0.25\n2,0.125\n", [], "n must be positive in the fitted window"),
        ("n,gap\n2,0.5\n2,0.25\n2,0.125\n", [], "need 2 distinct n to fit 2 parameters"),
        ("n,gap\n2,0.5\n4,0.25\n2,0.125\n", ["--log-correction"],
         "need 3 distinct n to fit 3 parameters"),
    ], ids=["zero-n", "one-distinct-n", "two-distinct-n-log-corrected"])
    def test_fit_rejects_a_window_it_cannot_fit(self, text, args, message):
        # n = 0 used to print LAPACK lines on stdout; a repeated n fitted a slope
        fit = run_cli(["fit", "--input", "-", *args], stdin_text=text)
        assert fit.returncode == 1 and fit.stdout == ""
        assert fit.stderr.strip().splitlines() == [f"error: {message}"]

    def test_error_exit_code(self):
        proc = run_cli(["fit", "--input", "/nonexistent/file.csv"])
        assert proc.returncode == 1
        assert "error" in proc.stderr.lower()


def test_closed_stdout_is_not_an_error():
    # the reader closed its end before any output: the command still did its work
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            RUN + ["construct", "example2", "--emit-truncation", "50"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_main_callable_directly(capsys):
    code = main(["spectral", "ladder", "--family", "example2", "--n-list", "2,3"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("n,lambda_n")


class TestBoundaryErrors:
    """Bad input exits 1 with one `error:` line on stderr, never a traceback."""

    @staticmethod
    def assert_one_line_error(proc):
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize(
        "payload",
        [
            {"arcs": [[1, 1, "1/2"]]},
            {"order": 2, "arcs": [[1, 2]]},
            {"order": 2, "arcs": [[1, 2, "1/2", "1/2"]]},
        ],
        ids=["missing-order", "short-arc", "long-arc"],
    )
    def test_malformed_digraph_json(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        self.assert_one_line_error(run_cli(["spectral", "perron", "--digraph", str(path)]))

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"order": 2, "odrer": 3, "arcs": [[1, 2, "1/2"], [2, 1, "1/2"]]}, "'odrer'"),
            ({"order": 2, "arcs": [[1, 2, "1_0"], [2, 1, "1/2"]]}, "'1_0'"),
            ({"order": 2, "arcs": [[1, 2, "1/0"], [2, 1, "1/2"]]}, "'1/0'"),
        ],
        ids=["unknown-key", "digit-grouping", "zero-denominator"],
    )
    def test_digraph_json_outside_its_grammar(self, tmp_path, payload, named):
        # the first two used to run (the key ignored, "1_0" read as 10), and
        # "1/0" ended in a ZeroDivisionError traceback
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        proc = run_cli(["spectral", "charpoly", "--digraph", str(path)])
        self.assert_one_line_error(proc)
        assert proc.stdout == "" and named in proc.stderr

    @pytest.mark.parametrize(
        "weight,mode,message",
        [
            ("1e400", "float", "arc 1->2 has weight 1e400, outside the float range"),
            ("1e-400", "float", "arc 1->2 has weight 1e-400, outside the float range"),
            ("1e400", "exact", "arc 1->2 has weight 1e400, outside the float range"),
            ("1e-400", "exact", "arc 1->2 has weight 1e-400, outside the float range"),
        ],
        ids=["float-overflow", "float-underflow", "exact-overflow", "exact-underflow"],
    )
    def test_weight_outside_the_float_range(self, tmp_path, weight, mode, message):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"order": 2, "arcs": [[1, 2, weight], [2, 1, "1/2"]]}))
        proc = run_cli(["spectral", "perron", "--digraph", str(path), "--mode", mode])
        self.assert_one_line_error(proc)
        assert message in proc.stderr

    @pytest.mark.parametrize(
        "arcs, mode, message",
        [
            ([[1, 2, "-1/2"], [2, 1, "1/2"]], "exact", "arc 1->2 has nonpositive weight -1/2"),
            ([[1, 3, "1/2"], [2, 1, "1/2"]], "exact", "arc 1->3 outside vertex range [1,2]"),
            ([[1, 2, "-1e400"], [2, 1, "1/2"]], "float", "arc 1->2 has nonpositive weight -1e400"),
        ],
        ids=["nonpositive", "endpoint", "huge-nonpositive"],
    )
    def test_digraph_errors_name_the_arc_one_based(self, tmp_path, arcs, mode, message):
        # the arc 1-based as in the JSON, the weight in the weight grammar,
        # and a huge one in scientific form
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"order": 2, "arcs": arcs}))
        proc = run_cli(["spectral", "perron", "--digraph", str(path), "--mode", mode])
        self.assert_one_line_error(proc)
        assert proc.stderr == f"error: {message}\n"

    def test_power_iteration_not_converging(self, tmp_path):
        # this bracket keeps a spread of a few ulps, far above a tolerance of 1e-18
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({"order": 3, "arcs": [
            [1, 2, "1/3"], [2, 3, "1/4"], [3, 1, "1/5"], [1, 3, "1/7"], [2, 1, "2/9"]]}))
        proc = run_cli(["spectral", "perron", "--digraph", str(path), "--tol", "1e-18"])
        self.assert_one_line_error(proc)
        assert "did not reach tolerance 1e-18 in 5000 steps" in proc.stderr

    def test_non_finite_tolerance(self, star_json):
        proc = run_cli(["spectral", "perron", "--digraph", star_json, "--tol", "nan"])
        self.assert_one_line_error(proc)
        assert "tolerance must be finite, got nan" in proc.stderr

    def test_k_outside_the_sigma_k_suite(self, capsys):
        # a --k the suite never reads used to exit 0 with the plain ksv report
        assert main(["verify", "ksv", "--count", "3", "--k", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sigma_k applies to the sigma-k suite only, not 'ksv'\n"

    @pytest.mark.parametrize("op", [["cycles", "enumerate"], ["cycles", "fvs"], ["cycles", "omega"],
                                    ["spectral", "perron"], ["spectral", "charpoly"]],
                             ids=lambda op: "-".join(op))
    def test_digraph_and_family_together(self, capsys, star_json, op):
        # cycles omega read the family and the other commands the file, all with exit 0
        assert main(op + ["--digraph", star_json, "--family", "corollary1", "--n", "12"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --digraph and --family name two inputs: give one of them\n"

    def test_sweep_with_an_error_cell_exits_3(self, capsys):
        # the partial sums of f reach 1 at index 2: order 3 cannot be built
        params = '{"f": ["1/2", "1/2"]}'
        assert main(["sweep", "--family", "example1", "--params", params,
                     "--n-grid", "2,3", "--no-fvs"]) == EXIT_UNKNOWN
        rows = run_sweep(SweepSpec("example1", json.loads(params), (2, 3), compute_fvs=False))
        captured = capsys.readouterr()
        assert captured.out == sweep_csv(rows)
        assert "3,error:example1: partial sums of f reach 1 at index 2" in captured.out

    def test_improper_with_a_family(self, capsys):
        # a family's omega counts every cycle of length <= n: --improper was ignored with exit 0
        assert main(["cycles", "omega", "--family", "prop1", "--n", "3", "--improper"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --improper applies to --digraph only, not to --family\n"

    @staticmethod
    def assert_usage_error(proc, message):
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage: ")
        assert proc.stderr.endswith(f": error: argument {message}\n")

    def test_negative_vertex(self):
        proc = run_cli(["classify", "--family", "example2", "--vertex", "-1"])
        self.assert_usage_error(proc, "--vertex: must be at least 0, got -1")

    @pytest.mark.parametrize("p_max", ["0", "-5"])
    def test_p_max_below_one(self, p_max):
        proc = run_cli(["classify", "--family", "example1", "--n-max", "30", "--p-max", p_max])
        self.assert_usage_error(proc, f"--p-max: must be at least 1, got {p_max}")

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_tolerance_not_positive(self, star_json, tol):
        # either used to run the whole power budget before failing
        proc = run_cli(["spectral", "perron", "--digraph", star_json, "--tol", tol])
        self.assert_usage_error(proc, f"--tol: must be positive, got {tol}")

    def test_emit_truncation_below_one(self):
        proc = run_cli(["construct", "example2", "--emit-truncation", "0"])
        self.assert_usage_error(proc, "--emit-truncation: must be at least 1, got 0")

    def test_sampler_giving_up(self, monkeypatch, capsys):
        import substochastic.inequalities as ineq

        def give_up(*args, **kwargs):
            raise RuntimeError("failed to sample a strong digraph")

        monkeypatch.setattr(ineq, "random_strong_digraph", give_up)
        assert main(["verify", "ksv", "--count", "1"]) == 1
        assert capsys.readouterr().err == "error: failed to sample a strong digraph\n"

    def test_verify_exits_one_on_a_violation(self, monkeypatch, capsys):
        import substochastic.cli as cli
        from substochastic import InequalityReport

        def violated(*args, **kwargs):
            report = InequalityReport("ksv")
            report.record("abc", "lhs <= rhs", Fraction(3, 2), Fraction(1, 2))
            return report

        monkeypatch.setattr(cli, "run_suite", violated)
        assert main(["verify", "ksv", "--count", "1"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["min_margin"] == "-1"
        assert payload["violations"] == [{"fingerprint": "abc", "inequality": "lhs <= rhs",
                                          "lhs": "3/2", "rhs": "1/2", "margin": "-1"}]

    def test_sweep_grid_below_one(self):
        proc = run_cli(["sweep", "--family", "example2", "--n-grid", "0,5", "--no-fvs"])
        self.assert_one_line_error(proc)
        assert "n_grid orders must be at least 1" in proc.stderr

    @pytest.mark.parametrize(
        "family,params,message",
        [
            ("prop1", '{"targets": {"kind": "list"}}', "prop1 params.targets"),
            ("corollary1", '{"g": "exp2"}', "corollary1 params.g"),
            ("example1", '{"f": "geometric"}', "example1 params.f"),
            ("theorem2-fast", '{"lengths": {"kind": "constant"}}',
             "theorem2-fast params.lengths"),
            ("example1", "[1]", "example1 params must be a JSON object"),
            ("example1", '{"A": "1/3", "f": {"kind": "geometric", "ration": "1/3"}}',
             "example1 params.A: unknown key; example1 accepts a, f"),
            ("prop2", '{"epsilon": {"kind": "constant", "value": "1/8"}}',
             "prop2 params.epsilon: unknown epsilon kind 'constant'"),
            ("example2", '{"sorted": "false"}',
             "example2 params.sorted must be true or false, got 'false'"),
            ("example1", '{"f": {"kind": "geometric", "ration": "1/3"}}',
             "example1 params.f.ration: unknown key; geometric accepts ratio"),
            ("prop1", '{"targets": {"kind": "one-minus-inverse-length", '
                      '"lengths": {"kind": "linear", "strat": 2}}}',
             "prop1 params.targets.lengths.strat: unknown key; linear accepts start, step"),
            ("prop1", '{"lengths": [2, "x"]}', "prop1 params.lengths: 'x' is not a number"),
            ("example1", '{"f": ["1/2", "abc"]}', "example1 params.f: 'abc' is not a number"),
            ("example1", '{"f": ["1/2", "1/0"]}', "example1 params.f: '1/0' is not a number"),
            ("example1", '{"a": "1/0"}', "example1 params.a: '1/0' is not a number"),
            ("example1", '{"a": "x"}', "example1 params.a: 'x' is not a number"),
            ("example1", '{"f": {"kind": "geometric", "ratio": "q"}}',
             "example1 params.f.ratio: 'q' is not a number"),
            ("prop1", '{"lengths": {"kind": "linear", "start": "q"}}',
             "prop1 params.lengths.start: 'q' is not a number"),
            ("prop1", '{"targets": {"kind": "constant", "value": "1/0"}}',
             "prop1 params.targets.value: '1/0' is not a number"),
            ("corollary1", '{"g": {"kind": "power", "exponent": "5/2"}}',
             "corollary1 params.g.exponent: '5/2' is not an integer"),
            # the weight grammar of digraph files: ASCII digits, no "_" grouping
            ("example1", '{"a": "\u0663/\u0664"}',
             "example1 params.a: '\u0663/\u0664' is not a number"),
            ("example2", '{"a": {"kind": "list", "values": ["1_0/2_0"]}}',
             "example2 params.a: '1_0/2_0' is not a number"),
        ],
        ids=["list-without-values", "gap-not-object", "f-not-object",
             "constant-without-value", "params-not-object", "unknown-key",
             "epsilon-kind", "sorted-not-boolean", "nested-unknown-key",
             "two-level-unknown-key", "length-not-number", "list-entry-not-number",
             "list-entry-zero-denominator", "scalar-zero-denominator", "scalar-not-number",
             "nested-scalar-not-number", "linear-start-not-number",
             "sequence-value-zero-denominator", "exponent-not-integer",
             "non-ascii-digits", "digit-grouping"],
    )
    def test_malformed_family_params(self, family, params, message):
        proc = run_cli(["construct", family, "--params", params, "--emit-truncation", "3"])
        self.assert_one_line_error(proc)
        assert message in proc.stderr

    @pytest.mark.parametrize("family, params, message", [
        ("corollary1", '{"g": {"kind": "constant", "value": "-1"}}',
         "error: corollary1 params.g.value: '-1' is not positive"),
        ("prop1", '{"lengths": [0]}', "error: prop1 params.lengths: length 0 must be >= 1"),
        ("theorem2-fast", '{"lengths": [0]}',
         "error: theorem2-fast params.lengths: length 0 must be >= 1"),
    ], ids=["gap-constant", "prop1-lengths", "theorem2-fast-lengths"])
    def test_values_a_generator_would_reject_are_named_at_build_time(self, family, params,
                                                                    message):
        proc = run_cli(["construct", family, "--params", params, "--emit-truncation", "3"])
        self.assert_one_line_error(proc)
        assert proc.stderr.strip() == message

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_declared_lambda(self, value):
        # a declared spectral limit is a Perron radius of a family with cycles
        params = json.dumps({"declared_lambda": value})
        proc = run_cli(["classify", "--family", "prop1", "--params", params])
        self.assert_one_line_error(proc)
        assert proc.stdout == ""
        assert f"prop1 params.declared_lambda: '{value}' is not positive" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["verify"],
            ["spectral", "perron", "--bogus"],
            ["spectral", "perron", "--seed", "1"],
            ["classify", "--family", "example2", "--format", "csv"],
            ["sweep", "--family", "example2", "--seed", "1"],
            ["classify", "--family", "example2", "--n", "5"],
            ["spectral", "ladder", "--family", "example2", "--n-list", "2,3", "--n", "5"],
            ["cycles", "fvs", "--family", "corollary1", "--n", "20", "--budg", "10"],
            ["cycles", "fvs", "--family", "corollary1", "--n", "20", "--budget", "-1"],
            ["cycles", "enumerate", "--family", "corollary1", "--n", "5", "--max-count", "-1"],
            ["verify", "ksv", "--count", "-2"],
            ["verify", "ksv", "--count", "1", "--order-max", "1"],
            ["cycles", "omega", "--family", "corollary1", "--n", "-2"],
            ["spectral", "charpoly", "--family", "corollary1", "--n", "0"],
            ["verify", "ksv", "--count", "two"],
            ["cycles", "enumerate", "--family", "corollary1", "--n", "5", "--max-len", "0"],
            ["classify", "--family", "example2", "--n-max", "0", "--p-max", "50"],
            ["verify", "sigma-k", "--count", "1", "--k", "0"],
            ["sweep", "--family", "example2"],
            ["fit", "--input", "-", "--window", "1"],
            ["fit", "--input", "-", "--window", "a:b"],
            ["cycles", "omega", "--family", "example1"],
            ["spectral", "perron"],
        ],
        ids=["missing-argument", "unknown-option", "perron-seed", "classify-format",
             "sweep-seed", "classify-n", "ladder-n", "option-prefix", "negative-budget",
             "negative-max-count", "negative-count", "order-max-below-two", "negative-n",
             "zero-n", "count-not-int", "zero-max-len", "zero-n-max", "k-zero", "sweep-no-grid",
             "window-not-range", "window-not-int", "family-without-n", "no-digraph"],
    )
    def test_usage_errors_exit_one(self, args):
        proc = run_cli(args)
        assert proc.returncode == 1
        assert "usage:" in proc.stderr

    @pytest.mark.parametrize(
        "args, prog",
        [
            (["classify", "--family", "example2", "--n", "5"], "substochastic classify"),
            (["spectral", "ladder", "--family", "example2", "--n-list", "2,3", "--n", "5"],
             "substochastic spectral ladder"),
            (["cycles", "fvs", "--family", "corollary1", "--n", "20", "--budg", "10"],
             "substochastic cycles fvs"),
            (["verify", "zeta", "--count", "1", "--bogus"], "substochastic verify"),
        ],
        ids=["classify-n", "ladder-n", "option-prefix", "verify-bogus"],
    )
    def test_leftover_options_show_the_subcommand_usage(self, args, prog, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} ")
        assert f"{prog}: error: unrecognized arguments: " in err


def test_import_leaves_scipy_unloaded():
    code = "import sys, substochastic; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
