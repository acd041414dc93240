import json
import sys

import pytest

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

    def test_missing_file(self, capsys):
        rc, _ = run(capsys, ["membership", "--fn", "/nonexistent.json"])
        assert rc == 1


class TestBasis:
    def test_prints_all_labels(self, capsys):
        rc, out = run(capsys, ["basis", "--expr", "(1,2)(2,3)"])
        assert rc == 0
        for label in ("DD", "DN", "ND", "NN"):
            assert label in out


class TestAlgorithms:
    def test_algo1_premature_exits_1(self, capsys):
        rc, out = run(capsys, ["algo1", "--expr", EX2, "--target", "id"])
        assert rc == 1 and "premature" in out

    def test_algo2_completes(self, capsys):
        rc, out = run(capsys, ["algo2", "--expr", EX2, "--target", "id"])
        assert rc == 0 and "completed" in out and "P = 2" in out

    def test_balanced(self, capsys):
        rc, out = run(capsys, ["balanced", "--expr", "(1,2)(1,2)",
                               "--target", "id"])
        assert rc == 0 and "P = 1 + v^-2" in out

    def test_acyclic(self, capsys):
        rc, out = run(capsys, ["acyclic", "--expr", EX2, "--target", "id"])
        assert rc == 0 and "2" in out


class TestSt:
    def test_pd_from_count(self, capsys):
        rc, out = run(capsys, ["st", "pd", "--nroots", "3"])
        assert rc == 0 and "pd = 1" in out

    def test_resolve_with_roots_and_dual(self, capsys):
        rc, out = run(capsys, ["st", "resolve",
                               "--roots", "e1-e2,e2-e3,e3-e4", "--dual"])
        assert rc == 0

    def test_independence_failure(self, capsys):
        rc, _ = run(capsys, ["st", "pd", "--roots", "e1-e2,e1-e2"])
        assert rc == 1


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
        # the structure checks and the residual step; only algorithm2
        # enumerates it again
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
        assert len(calls) == 2


class TestSelfcheck:
    def test_two_solution(self, capsys):
        rc, out = run(capsys, ["selfcheck", "--two-solution"])
        assert rc == 0 and "all checks passed" in out


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
    ])
    def test_bad_input_exits_2(self, capsys, args):
        rc = cli.main(args)
        assert rc == 2 and capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--seed", "--workers"])
    def test_removed_options(self, flag):
        with pytest.raises(SystemExit) as ei:
            cli.main(["enumerate", "--expr", "(1,2)", flag, "1"])
        assert ei.value.code == 2
