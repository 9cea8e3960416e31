import json
import subprocess
import sys
import time

import pytest

from prmw.cli import TABLE_COLUMNS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestTable:
    def test_prm_grid_all_match(self, capsys):
        code, out = run_cli(capsys, "table", "--family", "prm", "--q", "2", "--n", "2..3", "--d", "2..n")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 3  # header + (2,2), (3,2), (3,3)
        assert all("true" in ln for ln in lines[1:])

    def test_rm_w2_column(self, capsys):
        code, out = run_cli(capsys, "table", "--family", "rm", "--q", "2", "--n", "3", "--d", "1..2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["w2_formula"] for r in rows] == ["8", "4"]
        assert [r["w2_brute"] for r in rows] == [8, 4]
        assert all(r["match"] == "true" for r in rows)

    def test_gf3_prm_shows_candidates_without_asserting(self, capsys):
        code, out = run_cli(capsys, "table", "--family", "prm", "--q", "3", "--n", "2", "--d", "2..4", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert all(r["match"] == "true" for r in rows)
        assert all("{" in r["w2_formula"] for r in rows)

    def test_gf3_rm_candidate_membership_checked(self, capsys):
        code, out = run_cli(capsys, "table", "--family", "rm", "--q", "3", "--n", "2", "--d", "1..3", "--format", "json")
        assert code == 0
        assert all(r["match"] == "true" for r in json.loads(out))

    def test_match_blank_where_nothing_asserted(self, capsys):
        # RM(n, 0) and PRM(n, 1) have no closed form to agree with
        for family, d, asserted in [("rm", "0..1", [False, True]), ("prm", "1..2", [False, True])]:
            code, out = run_cli(capsys, "table", "--family", family, "--q", "2", "--n", "2", "--d", d, "--format", "json")
            assert code == 0
            assert [r["match"] for r in json.loads(out)] == ["true" if a else "" for a in asserted]

    def test_csv_columns_documented(self, capsys):
        code, out = run_cli(capsys, "table", "--family", "rm", "--q", "2", "--n", "2", "--d", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == ",".join(TABLE_COLUMNS)

    def test_budget_exceeded_noted(self, capsys):
        # RM(5,2) counts its two-point shortened primal side, 2^14 messages
        code, out = run_cli(capsys, "table", "--family", "rm", "--q", "2", "--n", "5", "--d", "2", "--budget", "2048", "--format", "json")
        assert code == 2
        row = json.loads(out)[0]
        assert row["w1_brute"] == "" and "budget" in row["note"]
        assert "16384" in row["note"]  # required budget named

    def test_gf5_rows_at_default_budget(self, capsys):
        # q^k is 5^21 and 5^25, far above the budget; the counts are not
        code, out = run_cli(capsys, "table", "--q", "5", "--n", "2", "--d", "5..6", "--format", "json")
        assert code == 0
        assert [(r["w1_brute"], r["w2_brute"]) for r in json.loads(out)] == [(5, 8), (4, 5)]

    def test_gf7_refusal_names_count(self, capsys):
        # PRM(2,4)/GF(7) would count 1 + (7^13 - 1)/6 scalar classes
        code, out = run_cli(capsys, "table", "--q", "7", "--n", "2", "--d", "4", "--format", "json")
        assert code == 2
        assert "needs budget 16148168402" in json.loads(out)[0]["note"]

    def test_json_byte_identical(self, capsys):
        args = ("table", "--family", "prm", "--q", "2", "--n", "2", "--d", "2", "--format", "json")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out = run_cli(capsys, "table", "--family", "rm", "--q", "2", "--n", "2", "--d", "1", "--format", "csv", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().splitlines()[0] == ",".join(TABLE_COLUMNS)


class TestVerify:
    def test_pass_includes_quadric(self, capsys):
        code, out = run_cli(capsys, "verify", "--q", "2", "--n", "3", "--d", "2")
        assert code == 0
        assert "witness_quadric" in out and "weight=6" in out
        assert "intersection_bounds" in out and "overall: pass" in out

    def test_json_deterministic_modulo_elapsed(self, capsys):
        args = ("verify", "--q", "2", "--n", "3", "--d", "3", "--format", "json")
        docs = []
        for _ in range(2):
            _, out = run_cli(capsys, *args)
            doc = json.loads(out)
            for c in doc["checks"]:
                c.pop("elapsed_ms")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_budget_exceeded_exit_2(self, capsys):
        code, out = run_cli(capsys, "verify", "--q", "2", "--n", "9", "--d", "3", "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "budget"
        assert "needs budget" in doc["checks"][0]["detail"]

    def test_out_of_range_d_is_configuration_error(self, capsys):
        # RM(1, d) over GF(3) needs 0 <= d <= 2: exit 2 before any instance runs
        code = main(["verify", "--family", "rm", "--q", "3", "--n", "1", "--d", "0..4", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "d=3 outside [0, 2]" in captured.err

    def test_check_failure_exit_1(self, capsys, monkeypatch):
        # sabotage the closed form so the weight match fails
        import prmw.formulas as formulas_mod

        monkeypatch.setattr(formulas_mod, "w2_prm_binary", lambda n, d: 999)
        code, out = run_cli(capsys, "verify", "--q", "2", "--n", "2", "--d", "2", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail"
        assert any(c["status"] == "fail" for c in doc["checks"])

    def test_support_collection_timed_in_intersection_bounds(self, capsys, monkeypatch):
        # the entries of an instance are timed back to back, so collecting
        # the supports is charged to the first geometry check
        import prmw.cli as cli_mod

        real = cli_mod.codeword_support
        calls = []

        def slow_first(code, message):
            if not calls:
                time.sleep(0.05)
            calls.append(message)
            return real(code, message)

        monkeypatch.setattr(cli_mod, "codeword_support", slow_first)
        code, out = run_cli(capsys, "verify", "--q", "2", "--n", "2", "--d", "2", "--format", "json")
        assert code == 0 and calls
        (bounds,) = [c for c in json.loads(out)["checks"] if c["check"] == "intersection_bounds"]
        assert bounds["elapsed_ms"] >= 50

    def test_one_support_call_per_exhaustive_instance(self, capsys, monkeypatch):
        # PRM(3,2) and PRM(3,3) over GF(2) walk all their nonzero
        # codewords; each collects them in one batched call
        import prmw.cli as cli_mod

        real = cli_mod.codeword_support
        batches = []

        def counted(code, messages):
            batches.append(len(messages))
            return real(code, messages)

        monkeypatch.setattr(cli_mod, "codeword_support", counted)
        code, out = run_cli(capsys, "verify", "--q", "2", "--n", "3", "--d", "2..3", "--format", "json")
        assert code == 0
        scopes = [c["detail"] for c in json.loads(out)["checks"] if c["check"] == "intersection_bounds"]
        assert scopes == [f"all {b} nonzero codewords, dims 1..2, 0 violations" for b in batches]
        assert batches == [2**10 - 1, 2**14 - 1]


class TestWitness:
    def test_quadric_p3(self, capsys):
        code, out = run_cli(capsys, "witness", "--q", "2", "--n", "3", "--poly", "X0*X3+X1*X2")
        assert code == 0
        assert "weight: 6" in out and "hyperplane-union=false" in out

    def test_quadric_p4(self, capsys):
        code, out = run_cli(capsys, "witness", "--q", "2", "--n", "4", "--poly", "X0*X3+X1*X2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["weight"] == 12 and not doc["hyperplane_union"]

    def test_product_p2(self, capsys):
        code, out = run_cli(capsys, "witness", "--q", "2", "--n", "2", "--poly", "X0*X1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["weight"] == 2 and doc["hyperplane_union"]
        assert doc["certificate_forms"] == [[0, 1, 0], [1, 0, 0]]

    def test_parse_failure_is_usage_error(self, capsys):
        assert main(["witness", "--q", "2", "--n", "3", "--poly", "X0**X1"]) == 2

    def test_variable_out_of_range(self, capsys):
        assert main(["witness", "--q", "2", "--n", "2", "--poly", "X0*X3"]) == 2

    def test_inhomogeneous_rejected(self, capsys):
        assert main(["witness", "--q", "2", "--n", "2", "--poly", "X0*X1+X2^2"]) == 0
        assert main(["witness", "--q", "2", "--n", "2", "--poly", "X0*X1+X2"]) == 2

    def test_no_budget_option(self, capsys):
        # witness enumerates no codewords: argparse rejects --budget
        with pytest.raises(SystemExit) as exc:
            main(["witness", "--q", "2", "--n", "3", "--poly", "X0*X3+X1*X2", "--budget", "5000"])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err

    def test_budget_environment_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("PRMW_BUDGET", "abc")
        assert main(["witness", "--q", "2", "--n", "3", "--poly", "X0*X3+X1*X2"]) == 0


class TestConfig:
    def test_bad_range(self, capsys):
        assert main(["table", "--family", "rm", "--q", "2", "--n", "x..2", "--d", "1"]) == 2

    def test_n_bound_only_for_d(self, capsys):
        assert main(["table", "--family", "rm", "--q", "2", "--n", "2..n", "--d", "1"]) == 2

    def test_budget_minimum(self, capsys):
        assert main(["table", "--family", "rm", "--q", "2", "--n", "2", "--d", "1", "--budget", "100"]) == 2

    def test_composite_q(self, capsys):
        assert main(["table", "--family", "rm", "--q", "4", "--n", "2", "--d", "1"]) == 2

    def test_empty_grid_rejected(self, capsys):
        assert main(["table", "--family", "prm", "--q", "2", "--n", "1", "--d", "2..n"]) == 2

    def test_d_range_resolves_per_row(self, capsys):
        code, out = run_cli(capsys, "table", "--family", "prm", "--q", "2", "--n", "2..3", "--d", "2..n", "--format", "json")
        assert [(r["n"], r["d"]) for r in json.loads(out)] == [(2, 2), (3, 2), (3, 3)]

    def test_entry_point_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prmw.cli", "witness", "--q", "2", "--n", "3", "--poly", "X0*X3+X1*X2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "weight: 6" in proc.stdout
