import json
import os
import subprocess
import sys

import pytest

import bsbimod
from bsbimod import cli
from bsbimod.coxeter import Reflection, ReflExpr
from bsbimod.polyring import Polynomial
from bsbimod.coxeter import Permutation
from bsbimod.locmod import indicator, res_tensor
from bsbimod.subexpr import enumerate_sub


EX2 = "(1,3)(2,4)(1,2)(3,4)(1,4)(2,3)"


def run(capsys, args):
    rc = cli.main(args)
    return rc, capsys.readouterr().out


@pytest.fixture
def fn_file(tmp_path):
    t = ReflExpr(3, (Reflection(1, 2, 3), Reflection(2, 3, 3)))
    a = [Polynomial.var(3, 1), Polynomial.var(3, 2), Polynomial.one(3)]
    g = res_tensor(t, a)
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(g.to_json()))
    return str(path)


class TestEnumerate:
    def test_identity_target(self, capsys):
        rc, out = run(capsys, ["enumerate", "--expr", "(1,2)(2,3)",
                               "--target", "id"])
        assert rc == 0 and out.strip() == "00"

    def test_all_targets(self, capsys):
        rc, out = run(capsys, ["enumerate", "--expr", "(1,2)(2,3)"])
        assert rc == 0
        assert out.split() == ["00", "01", "10", "11"]

    def test_deterministic(self, capsys):
        rc1, out1 = run(capsys, ["enumerate", "--expr", EX2,
                                 "--target", "id"])
        rc2, out2 = run(capsys, ["enumerate", "--expr", EX2,
                                 "--target", "id"])
        assert rc1 == rc2 == 0 and out1 == out2

    def test_missing_expr_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            cli.main(["enumerate"])
        assert ei.value.code == 2


class TestGraph:
    def test_json_output(self, capsys, tmp_path):
        out_path = tmp_path / "g.json"
        rc, _ = run(capsys, ["graph", "--expr", EX2, "--target", "id",
                             "--json", str(out_path)])
        assert rc == 0
        obj = json.loads(out_path.read_text())
        assert len(obj["vertices"]) == 2
        assert obj["edges"] == []


class TestMembershipExpress:
    def test_membership_Xt(self, capsys, fn_file):
        rc, out = run(capsys, ["membership", "--fn", fn_file,
                               "--variant", "X(t)"])
        assert rc == 0 and "member" in out

    def test_express(self, capsys, fn_file, tmp_path):
        out_path = tmp_path / "coeffs.json"
        rc, _ = run(capsys, ["express", "--fn", fn_file,
                             "--json", str(out_path)])
        assert rc == 0
        obj = json.loads(out_path.read_text())
        assert set(obj.keys()) == {"DD", "DN", "ND", "NN"}

    def test_express_outside_Xt_exits_1(self, capsys, tmp_path):
        # 1 at 00 only, on Sub((1,2)(2,3)): the divided difference at 0,
        # 1 / (e2 - e3), is not a polynomial
        sub = enumerate_sub(cli.parse_expr("(1,2)(2,3)"), "all")
        path = tmp_path / "g.json"
        path.write_text(json.dumps(indicator(sub, [(0, 0)]).to_json()))
        rc = cli.main(["express", "--fn", str(path)])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: the function is not in X(t): ")

    def test_phi_outside_domain_is_usage_error(self, capsys, tmp_path):
        t = cli.parse_expr("(1,2)(2,3)(1,2)(1,3)(1,2)(2,3)")
        sub = enumerate_sub(t, Permutation.identity(3))
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(indicator(sub, ()).to_json()))
        args = ["membership", "--fn", str(path), "--variant", "XwPhi"]
        rc, out = run(capsys, args + ["--phi", "000000,001010"])
        assert rc == 0 and out.startswith("member")
        rc = cli.main(args + ["--phi", "000000,101010,01x"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert "not in the domain: 101010, 01x" in err

    @pytest.mark.parametrize("variant, on_all, phi", [
        ("X(t)", False, None), ("Xw", True, None), ("X^w", True, None),
        ("XwPhi", True, "000000"), ("XwPhi", False, None)])
    def test_variant_outside_its_domain_is_usage_error(
            self, capsys, tmp_path, variant, on_all, phi):
        # X(t) needs a function on Sub(t), the other variants one on
        # Sub(t, w), and XwPhi needs --phi
        t = cli.parse_expr("(1,2)(2,3)(1,2)(1,3)(1,2)(2,3)")
        sub = enumerate_sub(t, "all" if on_all else Permutation.identity(3))
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(indicator(sub, ()).to_json()))
        args = ["membership", "--fn", str(path), "--variant", variant]
        rc = cli.main(args + (["--phi", phi] if phi else []))
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith(f"error: --variant {variant} needs ")

    @pytest.mark.parametrize("variant, on_all", [
        ("X(t)", True), ("Xw", False), ("X^w", False)])
    def test_phi_outside_XwPhi_is_usage_error(self, capsys, tmp_path,
                                              variant, on_all):
        # --phi is read by XwPhi alone; elsewhere it is refused, not dropped
        t = cli.parse_expr("(1,2)(2,3)(1,2)(1,3)(1,2)(2,3)")
        sub = enumerate_sub(t, "all" if on_all else Permutation.identity(3))
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(indicator(sub, ()).to_json()))
        rc = cli.main(["membership", "--fn", str(path), "--variant", variant,
                       "--phi", "000000"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == f"error: --phi applies to --variant XwPhi, not " \
            f"{variant}\n"

    def test_divisibility_witness(self, capsys, tmp_path):
        # 1 at 00 only, on Sub((1,2)(1,2)): Sigma_{1}^00 = 1 is not
        # divisible by the root of (1,2)
        sub = enumerate_sub(cli.parse_expr("(1,2)(1,2)"), "all")
        path = tmp_path / "g.json"
        path.write_text(json.dumps(indicator(sub, [(0, 0)]).to_json()))
        rc, out = run(capsys, ["membership", "--fn", str(path),
                               "--variant", "X(t)"])
        assert rc == 1
        assert out.splitlines() == ["not a member",
                                    "witness: eps=00 p=(1,2) X=(1,)"]

    def test_vanish_witness(self, capsys, tmp_path):
        t = cli.parse_expr("(1,2)(2,3)(1,2)(1,3)(1,2)(2,3)")
        sub = enumerate_sub(t, Permutation.identity(3))
        path = tmp_path / "g.json"
        path.write_text(json.dumps(indicator(sub, [(0, 0, 1, 0, 1, 0)])
                                   .to_json()))
        rc, out = run(capsys, ["membership", "--fn", str(path),
                               "--variant", "XwPhi", "--phi", "001010"])
        assert rc == 1
        assert out.splitlines() == ["not a member",
                                    "witness: eps=001010 p=vanish X=None"]

    @pytest.mark.parametrize("command", ["membership", "express"])
    @pytest.mark.parametrize("edit", [
        lambda v: v[0]["poly"]["terms"][0].update(exp=[-1, 1, 0]),
        lambda v: v[0].update(poly=Polynomial.var(4, 1).to_json()),
        lambda v: v[0]["poly"]["terms"][0].update(exp=[1, 0]),
        lambda v: v[0].update(poly=Polynomial.var(2, 1).to_json()),
        lambda v: v[0]["poly"]["terms"][0].update(den="0"),
        lambda v: v[0].update(bits="011"),
        lambda v: v[0].update(bits="0x"),
        lambda v: v[0].pop("poly"),
    ], ids=["negative-exponent", "rank-4-value", "short-exponent",
            "rank-2-value", "zero-denominator", "off-domain-bits",
            "non-digit-bits", "missing-poly"])
    def test_malformed_fn_exits_2(self, capsys, fn_file, command, edit):
        # t = (1,2)(2,3) in S_3; each edit spoils one value of the file
        with open(fn_file) as fh:
            obj = json.load(fh)
        edit(obj["values"])
        with open(fn_file, "w") as fh:
            json.dump(obj, fh)
        rc = cli.main([command, "--fn", fn_file])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and err.startswith("error: --fn ")

    def test_missing_file(self, capsys):
        rc, _ = run(capsys, ["membership", "--fn", "/nonexistent.json"])
        assert rc == 1


class TestBasis:
    def test_prints_all_labels(self, capsys):
        rc, out = run(capsys, ["basis", "--expr", "(1,2)(2,3)"])
        assert rc == 0
        for label in ("DD", "DN", "ND", "NN"):
            assert label in out

    def test_cap_is_one_error_line(self, capsys):
        # m = 11 passes the enumerate_sub cap but its 2^11 elements would
        # hold 4^11 values: one error line, with the exit code of the
        # enumerate_sub cap (m = 21), and nothing on stdout
        rc = cli.main(["basis", "--expr", "(1,2)" * 11])
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and "ALL_CAP = 1048576" in err
        assert rc == cli.main(["enumerate", "--expr", "(1,2)" * 21]) == 1


class TestAlgorithms:
    def test_algo1_premature_exits_1(self, capsys):
        rc, out = run(capsys, ["algo1", "--expr", EX2, "--target", "id"])
        assert rc == 1 and "premature" in out

    def test_algo2_completes(self, capsys):
        rc, out = run(capsys, ["algo2", "--expr", EX2, "--target", "id"])
        assert rc == 0 and "completed" in out and "P = 2" in out

    @pytest.mark.parametrize("which", ["algo1", "algo2"])
    def test_cap_says_so_on_stderr(self, capsys, which, tmp_path):
        # step 1 has two families, one more than the cap; stdout and the
        # JSON report are what they were without the stderr line
        path = tmp_path / "out.json"
        rc = cli.main([which, "--expr", EX2, "--target", "id",
                       "--max-family", "1", "--json", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == "outcome: cap  step: 1\n"
        assert captured.err == ("cap: step 1 has 2 families, more than "
                                "--max-family 1; growth stopped\n")
        assert json.loads(path.read_text()) == {
            "outcome": "cap", "step": 1, "families_per_step": [1, 2]}

    def test_balanced(self, capsys):
        rc, out = run(capsys, ["balanced", "--expr", "(1,2)(1,2)",
                               "--target", "id"])
        assert rc == 0 and "P = 1 + v^-2" in out

    def test_balanced_enumerates_once(self, capsys, monkeypatch):
        # balanced_order enumerates Sub(t, w) and certifies its order once
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_sub(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if (name.startswith("bsbimod")
                    and getattr(mod, "enumerate_sub", None) is enumerate_sub):
                monkeypatch.setattr(mod, "enumerate_sub", counted)
        rc, out = run(capsys, ["balanced", "--expr", "(1,2)(1,2)",
                               "--target", "id"])
        assert rc == 0 and "P = 1 + v^-2" in out
        assert len(calls) == 1

    def test_acyclic(self, capsys):
        rc, out = run(capsys, ["acyclic", "--expr", EX2, "--target", "id"])
        assert rc == 0 and "2" in out


class TestSt:
    def test_pd_from_count(self, capsys):
        rc, out = run(capsys, ["st", "pd", "--nroots", "3"])
        assert rc == 0 and "pd = 1" in out

    def test_pd_json_says_certified(self, capsys, tmp_path):
        # St's frame has no degree shared by consecutive levels
        out_path = tmp_path / "pd.json"
        rc, _ = run(capsys, ["st", "pd", "--nroots", "5",
                             "--json", str(out_path)])
        got = json.loads(out_path.read_text())
        assert rc == 0 and got["certified"] is True
        assert got["pd"] == 3 and got["degrees"][-1] == [10]

    @pytest.mark.parametrize("action", ["pd", "resolve"])
    @pytest.mark.parametrize("nroots", ["21", "1000000000"])
    def test_frame_past_the_cap_is_refused_up_front(self, action, nroots):
        # 21 roots give a frame of 2^21 - 22 generators, more than ALL_CAP:
        # one line and exit 2, before anything is resolved
        src = os.path.dirname(os.path.dirname(bsbimod.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "bsbimod", "st", action, "--nroots", nroots],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=30)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert "ALL_CAP" in proc.stderr

    def test_frame_at_the_cap_is_accepted(self, capsys, monkeypatch):
        # 20 roots give 2^20 - 21 generators, within ALL_CAP: the command
        # goes on to resolve (stubbed here, as the frame is huge)
        calls = []

        def stub(gens, order):
            calls.append(len(gens))
            return 0, [[]], True
        monkeypatch.setattr(cli.strmod, "certified_pd", stub)
        rc, out = run(capsys, ["st", "pd", "--nroots", "20"])
        assert rc == 0 and calls == [190] and "pd = 0" in out

    @pytest.mark.parametrize("args, flag", [
        (["pd", "--roots", "e1-e2,e2-e3", "--nroots", "7"], "--nroots"),
        (["pd", "--roots", "e1-e2,e2-e3", "--extra", "5"], "--extra"),
        (["pd", "--nroots", "4", "--ambient", "9"], "--ambient"),
        (["pd", "--nroots", "4", "--dual"], "--dual"),
    ])
    def test_flag_that_does_not_apply_is_refused(self, capsys, args, flag):
        # each of these used to run with the flag ignored
        rc = cli.main(["st"] + args)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err

    @pytest.mark.parametrize("args", [["--roots", ""],
                                      ["--roots", "", "--nroots", "5"]])
    def test_empty_roots_is_a_usage_error(self, capsys, args):
        # an empty --roots is given, not absent: it used to resolve the
        # default roots, or --nroots of them
        rc = cli.main(["st", "pd"] + args)
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("args", [["--nroots", "2"],
                                      ["--roots", "e1-e2,e2-e3"]])
    def test_dual_needs_three_roots(self, capsys, args):
        # a usage error up front, not the library's ValueError (exit 1)
        rc = cli.main(["st", "resolve", "--dual"] + args)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "error: --dual: 2 roots; the dual Groebner basis " \
            "needs at least 3\n"

    def test_resolve_with_roots_and_dual(self, capsys):
        rc, out = run(capsys, ["st", "resolve",
                               "--roots", "e1-e2,e2-e3,e3-e4", "--dual"])
        assert rc == 0

    def test_independence_failure(self, capsys):
        # dependent roots are bad input: a usage error
        rc, _ = run(capsys, ["st", "pd", "--roots", "e1-e2,e1-e2"])
        assert rc == 2

    def test_resolve_independence_failure_is_one_line(self, capsys):
        rc = cli.main(["st", "resolve", "--roots", "e1-e2,e2-e3,e1-e3"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "error: --roots 'e1-e2,e2-e3,e1-e3': roots are " \
            "linearly dependent\n"


class TestDseq:
    def test_report(self, capsys, tmp_path):
        out_path = tmp_path / "d.json"
        rc, out = run(capsys, ["dseq", "report", "--n", "3",
                               "--json", str(out_path)])
        assert rc == 0
        obj = json.loads(out_path.read_text())
        assert obj["structure_checks"]["ok"]
        assert obj["outcome"] == "completed"

    def test_dot_output(self, capsys, tmp_path):
        out_path = tmp_path / "d.dot"
        rc, _ = run(capsys, ["dseq", "report", "--n", "3",
                             "--dot", str(out_path)])
        assert rc == 0
        assert out_path.read_text().startswith("graph")

    def test_one_enumeration_per_table(self, capsys, monkeypatch):
        # the solution table's Sub(D(i)[k], 1) serves the solution check,
        # the structure checks, the family growth and the residual step
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_sub(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if (name.startswith("bsbimod")
                    and getattr(mod, "enumerate_sub", None) is enumerate_sub):
                monkeypatch.setattr(mod, "enumerate_sub", counted)
        rc, out = run(capsys, ["dseq", "report", "--n", "5"])
        assert rc == 0 and "pd(string module) = 2" in out
        assert len(calls) == 1


class TestSelfcheck:
    def test_two_solution(self, capsys):
        rc, out = run(capsys, ["selfcheck"])
        assert rc == 0 and "all checks passed" in out

    def test_two_solution_runs_once(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "check_two_solution",
                            lambda: calls.append("two-solution"))
        monkeypatch.setattr(cli, "check_dseq", lambda n, k: None)
        rc, out = run(capsys, ["selfcheck", "--all"])
        assert rc == 0 and calls == ["two-solution"]
        assert out.count("== two-solution instance") == 1

    def test_two_solution_enumerates_once(self, capsys, monkeypatch):
        # algorithm1 and algorithm2 run on the check's own Sub(t, w)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_sub(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if (name.startswith("bsbimod")
                    and getattr(mod, "enumerate_sub", None) is enumerate_sub):
                monkeypatch.setattr(mod, "enumerate_sub", counted)
        rc, out = run(capsys, ["selfcheck"])
        assert rc == 0 and "all checks passed" in out
        assert len(calls) == 1

    def test_no_json_option(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            cli.main(["selfcheck", "--json", str(tmp_path / "out.json")])
        assert ei.value.code == 2

    def test_no_two_solution_option(self):
        # the two-solution check always runs; there is no flag to select it
        with pytest.raises(SystemExit) as ei:
            cli.main(["selfcheck", "--two-solution"])
        assert ei.value.code == 2


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as ei:
            cli.main(["frobnicate"])
        assert ei.value.code == 2

    @pytest.mark.parametrize("args", [
        ["enumerate", "--expr", "(1,2)(2,3)", "--target", "3,3,1"],
        ["enumerate", "--expr", "(2,2)"],
        ["enumerate", "--expr", "xyz"],
        ["st", "pd", "--roots", "e1-q2"],
        ["st", "pd", "--nroots", "0"],
        ["st", "pd", "--nroots", "3", "--extra", "-1"],
        ["st", "pd", "--roots", "e1-e9", "--ambient", "3"],
        ["dseq", "report", "--n", "2"],
        ["st", "pd", "--roots", "e1-e2"],
        ["st", "pd", "--roots", "e1-e2,e2-e3", "--ambient", "0"],
        ["dseq", "report", "--n", "4", "--perm", "1,2,3"],
        ["dseq", "report", "--n", "3", "--perm", "1,2,x"],
        ["dseq", "report", "--n", "4", "--perm", "1,2,3,4,x"],
        ["dseq", "report", "--n", "4", "--perm", "1,2,,3,4"],
        ["algo1", "--expr", EX2, "--target", "1,2,3,4", "--max-family", "-1"],
        ["algo2", "--expr", EX2, "--target", "1,2,3,4", "--max-family", "-1"],
        ["enumerate", "--expr", "(1,3),(2,4"],
        ["enumerate", "--expr", "(1,3);(2,4)x"],
        ["enumerate", "--expr", "(1,2) (2,3) ,, (1,3"],
    ])
    def test_bad_input_exits_2(self, capsys, args):
        rc = cli.main(args)
        assert rc == 2 and capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text, n, pairs", [
        ("(1,2)(2,3)", 3, ((1, 2), (2, 3))),
        ("(1,3),(2,4)", 4, ((1, 3), (2, 4))),
        ("(1, 3) (2, 4)", 4, ((1, 3), (2, 4))),
        (" (1,2) ,\t(1,2), ", 2, ((1, 2), (1, 2))),
    ])
    def test_inline_pairs(self, text, n, pairs):
        t = cli.parse_expr(text)
        assert t.n == n and tuple((p.i, p.j) for p in t.entries) == pairs

    @pytest.mark.parametrize("text, left", [
        ("(1,3),(2,4", ["',(2,4'"]),
        ("(1,3);(2,4)x", ["';'", "'x'"]),
        ("(1,2)x(2,3)", ["'x'"]),
    ])
    def test_leftover_text_is_named(self, text, left):
        with pytest.raises(cli.UsageError) as ei:
            cli.parse_expr(text)
        assert str(ei.value).split("; unexpected ")[1:] == left

    def test_expression_files(self, capsys, tmp_path):
        # a file that is not an expression, and an --n other than the
        # file's, are usage errors; an --n equal to the file's is not
        good = tmp_path / "t.json"
        good.write_text(json.dumps(ReflExpr(3, (Reflection(1, 2, 3),))
                                   .to_json()))
        for body in ('{"foo": 1}', "[1,2]", "(1,2)"):
            bad = tmp_path / "bad.json"
            bad.write_text(body)
            assert cli.main(["enumerate", "--expr", str(bad)]) == 2
            assert capsys.readouterr().err.startswith(f"error: --expr {bad}")
        assert cli.main(["enumerate", "--expr", str(good), "--n", "5"]) == 2
        assert capsys.readouterr().err.startswith("error: --n 5")
        rc, out = run(capsys, ["enumerate", "--expr", str(good), "--n", "3"])
        assert rc == 0 and out.split() == ["0", "1"]

    @pytest.mark.parametrize("n", [-2, 0])
    def test_expression_file_needs_n_at_least_1(self, capsys, tmp_path, n):
        # an empty expression over S_n, n < 1, used to enumerate with exit 0
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"n": n, "entries": []}))
        assert cli.main(["enumerate", "--expr", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --expr {path}") and "n >= 1" in err

    def test_python_m(self):
        # `python -m bsbimod` runs the command line from a plain checkout
        src = os.path.dirname(os.path.dirname(bsbimod.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "bsbimod", "enumerate",
             "--expr", "(1,2)(2,3)", "--target", "id"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stdout.strip() == "00"

    @pytest.mark.parametrize("flag", ["--seed", "--workers"])
    def test_removed_options(self, flag):
        with pytest.raises(SystemExit) as ei:
            cli.main(["enumerate", "--expr", "(1,2)", flag, "1"])
        assert ei.value.code == 2
