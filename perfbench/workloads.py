"""
The five seeded workloads of the bsbimod benchmark.

Every workload is a catalogue of instances drawn from a generator seeded by
the workload's name and kept only if it falls inside the workload's size
window (for growth and membership the window is on |Sub(t,w)|, checked with
`enumerate_sub` before any growth or membership runs).  The run seed then
picks, for every instance, three relabellings sigma of 1..n, applied to
every reflection, target and polynomial input, and the order in which the
instances run; pass k of a run uses relabelling k mod 3.  A relabelled
instance is the same combinatorial problem under new names: the program
never sees the same inputs on two seeds, yet every seed asks for nearly the
same amount of work, so runs on different seeds can be compared on a shared
two-core machine.

An instance has three parts:
  prepare  builds the relabelled inputs (set-up, not timed);
  compute  makes the calls into bsbimod (the only timed part);
  digest   maps the outputs back through sigma^-1, checks the instance's own
           invariants (raising `Broken`), and returns a canonical JSON-able
           payload.  Payloads do not depend on sigma, so one reference
           digest per instance checks every seed.

Library functions are always called through their module (`orderalg.x`,
never a `from` binding made here), so the traced mode sees every call.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from bsbimod import dseq, locmod, orderalg, polyring, strmod, subexpr
from bsbimod.coxeter import Permutation, Reflection, ReflExpr
from bsbimod.polyring import Polynomial, act

Bits = Tuple[int, ...]

# Relabellings per instance in one run.  An instance's cost under one
# relabelling can differ by 20% from another (polynomial division follows
# the variable order), so one relabelling per instance leaves the seed's
# draw visible in the medians; pass k uses relabelling k mod 3.
RELABELLINGS = 3


class Broken(Exception):
    """An instance's output violates one of its own invariants."""


def check(cond: bool, what: str):
    if not cond:
        raise Broken(what)


@dataclass
class Instance:
    id: str
    kind: str
    size: int            # the quantity the size window was applied to
    data: Dict[str, Any]  # base (unrelabelled) inputs
    inputs: Any = None   # relabelled inputs, filled by prepare
    sigma: Any = None    # the Relabel used
    variants: List[Tuple[Any, Any]] = None  # (sigma, inputs) per relabelling

    def use(self, k: int):
        """Switch to relabelling k (cyclically)."""
        self.sigma, self.inputs = self.variants[k % len(self.variants)]


# -- relabelling -------------------------------------------------------------

class Relabel:
    """A permutation sigma of 1..n acting on names: reflections (i j) ->
    (sigma(i) sigma(j)), targets w -> sigma w sigma^-1, polynomials by
    e_i -> e_sigma(i)."""

    def __init__(self, images: Tuple[int, ...]):
        self.images = tuple(images)
        inv = [0] * len(images)
        for i, v in enumerate(images):
            inv[v - 1] = i + 1
        self.inv = tuple(inv)

    @staticmethod
    def random(rng: random.Random, n: int) -> "Relabel":
        images = list(range(1, n + 1))
        rng.shuffle(images)
        return Relabel(tuple(images))

    def refl(self, r: Reflection) -> Reflection:
        a, b = self.images[r.i - 1], self.images[r.j - 1]
        return Reflection(min(a, b), max(a, b), r.n)

    def expr(self, t: ReflExpr) -> ReflExpr:
        return ReflExpr(t.n, tuple(self.refl(r) for r in t.entries))

    def perm(self, w: Permutation) -> Permutation:
        return Permutation(self.images) * w * Permutation(self.inv)

    def poly(self, f: Polynomial) -> Polynomial:
        return act(self.images, f)

    def back_poly(self, f: Polynomial) -> str:
        """sigma^-1 f, up to sign (a relabelled root is +-sigma(root)),
        printed canonically."""
        g = act(self.inv, f)
        if not g.is_zero() and g.leading()[1] < 0:
            g = -g
        return str(g)


def digest_of(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def _bits(b: Bits) -> str:
    return "".join(map(str, b))


def _random_expr(rng: random.Random, n: int, m: int) -> ReflExpr:
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return ReflExpr.from_pairs(n, [rng.choice(pairs) for _ in range(m)])


def _random_bits(rng: random.Random, m: int) -> Bits:
    return tuple(rng.randint(0, 1) for _ in range(m))


def _fill(quota: Dict[Any, int], draw, what: str, max_draws: int = 200000):
    """Draw (stratum, instance) pairs until every stratum of `quota` holds
    its count; instances outside every stratum are rejected."""
    got: Dict[Any, list] = {s: [] for s in quota}
    for _ in range(max_draws):
        if all(len(got[s]) >= c for s, c in quota.items()):
            return [x for s in quota for x in got[s]]
        stratum, item = draw()
        if stratum in got and len(got[stratum]) < quota[stratum]:
            got[stratum].append(item)
    raise RuntimeError(f"{what}: size window not filled in {max_draws} draws")


# -- workloads ---------------------------------------------------------------

class Workload:
    name = ""

    def catalogue(self) -> List[Instance]:
        raise NotImplementedError

    def prepare(self, inst: Instance, sigma: Relabel):
        raise NotImplementedError

    def compute(self, inst: Instance):
        raise NotImplementedError

    def digest(self, inst: Instance, raw) -> dict:
        raise NotImplementedError

    def rank(self, inst: Instance) -> int:
        return inst.data.get("n", 4)

    def setup(self, seed: int, smoke: bool) -> List[Instance]:
        """Generate, select and relabel the instances of one run: every
        instance gets RELABELLINGS relabellings, and pass k of the run uses
        relabelling k mod RELABELLINGS."""
        insts = self.catalogue()
        if smoke:
            insts = smoke_subset(insts)
        rng = random.Random(f"{self.name}:{seed}")
        for inst in insts:
            inst.variants = []
            for _ in range(RELABELLINGS):
                inst.sigma = Relabel.random(rng, self.rank(inst))
                self.prepare(inst, inst.sigma)
                inst.variants.append((inst.sigma, inst.inputs))
            inst.use(0)
        rng.shuffle(insts)
        return insts


def smoke_subset(insts: List[Instance]) -> List[Instance]:
    """The tiny variant: the smallest instance of every kind."""
    best: Dict[str, Instance] = {}
    for inst in insts:
        if inst.kind not in best or inst.size < best[inst.kind].size:
            best[inst.kind] = inst
    return list(best.values())


class Growth(Workload):
    """algorithm2 then algorithm1 on random S_4 expressions with reachable
    targets, |Sub(t,w)| in 5..8."""
    name = "growth"
    QUOTA = {5: 12, 6: 14, 7: 4, 8: 1}

    def catalogue(self):
        rng = random.Random("growth-catalogue")

        def draw():
            t = _random_expr(rng, 4, rng.randint(5, 8))
            w = subexpr.Subexpr(t, _random_bits(rng, len(t))).target()
            size = len(subexpr.enumerate_sub(t, w))
            return size, (t, w, size)

        chosen = _fill(self.QUOTA, draw, "growth")
        return [Instance(f"growth-{k:02d}", "growth", size,
                         {"n": 4, "t": t, "w": w})
                for k, (t, w, size) in enumerate(chosen)]

    def prepare(self, inst, sigma):
        inst.inputs = (sigma.expr(inst.data["t"]), sigma.perm(inst.data["w"]))

    def compute(self, inst):
        t, w = inst.inputs
        return orderalg.algorithm2(t, w), orderalg.algorithm1(t, w)

    def digest(self, inst, raw):
        out = {}
        for label, res in zip(("algo2", "algo1"), raw):
            check(res.outcome in ("completed", "premature"),
                  f"{label}: outcome {res.outcome}")
            levels = []
            for k, level in enumerate(res.trace):
                check(all(len(phi) == k for phi in level),
                      f"{label}: family size != step {k}")
                levels.append(sorted(
                    [sorted(map(_bits, phi)), str(P)] for phi, P in level.items()))
            incs = [sorted([sorted(map(_bits, phi)), sorted(d)]
                           for phi, d in level.items())
                    for level in res.increments]
            if res.outcome == "completed":
                check(res.step == inst.size, f"{label}: completed early")
            out[label] = {"outcome": res.outcome, "step": res.step,
                          "families": levels, "increments": incs,
                          "P": None if res.P is None else str(res.P)}
        if out["algo2"]["outcome"] == "completed":
            P = raw[0].P
            check(P.total() == inst.size, "algo2: rank total != |Sub|")
        return out


class DSeq(Workload):
    """dichotomy_report and structure_checks on D-sequences, and the
    `st pd` path (pd of the string module, dual toolkit) on 3..7 roots."""
    name = "dseq"
    REPORTS = {4: 4, 5: 3, 6: 2}   # n -> how many shifts k
    ROOTS = (3, 4, 5, 6, 7)

    def catalogue(self):
        rng = random.Random("dseq-catalogue")
        insts = []
        for n, count in self.REPORTS.items():
            ks = [0] + rng.sample(range(1, 2 * n - 1), count - 1)
            for k in ks:
                for kind in ("report", "structure"):
                    insts.append(Instance(f"{kind}-n{n}-k{k}", kind, n,
                                          {"n": n, "k": k}))
        for r in self.ROOTS:
            for kind in ("pd", "dual"):
                insts.append(Instance(f"{kind}-r{r}", kind, r, {"r": r}))
        return insts

    def rank(self, inst):
        return inst.data.get("n", 1)

    def prepare(self, inst, sigma):
        # for D-sequences the relabelling is the index sequence i of D(i)
        inst.inputs = sigma.images

    def compute(self, inst):
        d = inst.data
        if inst.kind == "report":
            return dseq.dichotomy_report(d["n"], d["k"], inst.inputs)
        if inst.kind == "structure":
            table = dseq.chord_label(dseq.e_table(d["n"], d["k"], inst.inputs))
            return dseq.structure_checks(table)
        r = d["r"]
        if inst.kind == "pd":
            gens = strmod.st_generators(r)
            _, order = strmod.st_ambient(r, extra=0)
            return strmod.pd(gens, order)
        return strmod.dual_toolkit(r)

    def digest(self, inst, raw):
        d = inst.data
        if inst.kind == "report":
            n = d["n"]
            check(raw["outcome"] == "premature" and raw["step"] == n + 1,
                  "report: growth did not stop at step n+1")
            check(raw["pd_string"] == n - 3, "report: pd != n-3")
            dual = raw["dual"]
            return {"outcome": raw["outcome"], "step": raw["step"],
                    "P": str(raw["P"]),
                    "residual_roots": [inst.sigma.back_poly(r)
                                       for r in raw["residual_roots"]],
                    "pd_string": raw["pd_string"],
                    "dual": {k: dual[k] for k in sorted(dual)}}
        if inst.kind == "structure":
            check(raw["ok"], f"structure: {sorted(k for k, v in raw.items() if not v)}")
            return {k: bool(v) for k, v in raw.items()}
        if inst.kind == "pd":
            p, degrees = raw
            check(p == d["r"] - 2, "pd(St) != r-2")
            return {"pd": p, "degrees": degrees}
        check(raw["shape_ok"] and raw["kernel_is_w"] and raw["theta_groebner"],
              "dual toolkit checks failed")
        return {k: raw[k] for k in sorted(raw)}


class Basis(Workload):
    """The criterion-6 basis/duality round trip on S_4 expressions of
    length 4-5: basis, X(t) membership of all 2^m elements, exact
    re-expression of a random combination, restriction to Sub(t,w) with Xw
    membership, and mu/inner pairings."""
    name = "basis"
    QUOTA = {4: 28, 5: 1}

    def catalogue(self):
        rng = random.Random("basis-catalogue")
        insts = []
        for m, count in self.QUOTA.items():
            for k in range(count):
                t = _random_expr(rng, 4, m)
                coeffs = [rng.randint(-3, 3) for _ in range(2 ** m)]
                w = subexpr.Subexpr(t, _random_bits(rng, m)).target()
                picks = rng.sample(range(2 ** m), 4)
                pair_seed = rng.randrange(1 << 30)
                insts.append(Instance(f"basis-m{m}-{k:02d}", "basis", m, {
                    "n": 4, "t": t, "w": w, "coeffs": coeffs, "picks": picks,
                    "pair_seed": pair_seed}))
        return insts

    def prepare(self, inst, sigma):
        d = inst.data
        inst.inputs = (sigma.expr(d["t"]), sigma.perm(d["w"]))

    def compute(self, inst):
        d = inst.data
        t, w = inst.inputs
        B = locmod.basis(t)
        keys = sorted(B)
        verdicts = [locmod.membership(B[L], "X(t)")[0] for L in keys]
        g = locmod.FnOnSub(B[keys[0]].domain, {})
        for L, c in zip(keys, d["coeffs"]):
            g = g + B[L].left_mul(Polynomial.const(t.n, c))
        coeffs = locmod.express_in_basis(g)
        subw = subexpr.enumerate_sub(t, w)
        rs = [B[keys[i]].restrict_to(subw) for i in d["picks"]]
        verdicts_w = [locmod.membership(r, "Xw")[0] for r in rs]
        members = random.Random(d["pair_seed"]).sample(
            subw.members, min(3, len(subw)))
        pairings = [(b, [locmod.inner(locmod.mu(subexpr.Subexpr(t, b)), r)
                         for r in rs]) for b in members]
        return keys, verdicts, coeffs, rs, verdicts_w, pairings

    def digest(self, inst, raw):
        keys, verdicts, coeffs, rs, verdicts_w, pairings = raw
        n = inst.inputs[0].n
        check(all(verdicts), "a basis element is not in X(t)")
        want = {L: Polynomial.const(n, c) for L, c in zip(keys, inst.data["coeffs"])}
        check(coeffs == want, "express_in_basis did not recover the coefficients")
        check(all(verdicts_w), "a restricted basis element is not in Xw")
        values = []
        for b, vals in pairings:
            row = []
            for r, val in zip(rs, vals):
                check(val.in_R(), "a pairing is not a polynomial")
                check(val.as_poly() == r(b), "<mu_b | r> != r(b)")
                row.append(inst.sigma.back_poly(val.as_poly()))
            values.append([_bits(b), row])
        return {"keys": ["".join(L) for L in keys], "verdicts": verdicts,
                "coeffs": [str(coeffs[L]) for L in keys],
                "verdicts_w": verdicts_w, "pairings": values}


class Membership(Workload):
    """One-off membership calls, each on a freshly enumerated domain, as in
    `bsbimod membership --fn`.  An instance is one res_tensor localization
    g on a random S_4 expression (m = 5 or 6) and five calls: X(t) on Sub(t)
    for g and for g perturbed at one member, then, after restriction to
    Sub(t,w) with |Sub(t,w)| in 4..12, Xw for both and X^w for g.  Grouping
    the calls keeps the kinds and the cheap rejects in every instance, so
    instance times form one cluster rather than a reject and an accept
    cluster with the median on the edge between them."""
    name = "membership"
    QUOTA = {5: 26, 6: 2}
    SUB_WINDOW = (4, 12)
    QUERIES = (("X(t)", False), ("X(t)", True), ("Xw", False), ("Xw", True),
               ("X^w", False))

    def catalogue(self):
        rng = random.Random("membership-catalogue")
        lo, hi = self.SUB_WINDOW

        def factor():
            if rng.random() < 0.2:
                return (0, 0, 1)
            a, b = rng.sample(range(1, 5), 2)
            return (a, b, rng.choice((-2, -1, 1, 2)))

        def draw():
            m = rng.choice(sorted(self.QUOTA))
            t = _random_expr(rng, 4, m)
            w = subexpr.Subexpr(t, _random_bits(rng, m)).target()
            size = len(subexpr.enumerate_sub(t, w))
            factors = [factor() for _ in range(m + 1)]
            picks = (rng.randrange(1 << 30), rng.randrange(1 << 30))
            return (m if lo <= size <= hi else None), (t, w, size, factors, picks)

        chosen = _fill(self.QUOTA, draw, "membership")
        return [Instance(f"membership-m{len(t)}-{k:02d}", "membership", size,
                         {"n": 4, "t": t, "w": w, "factors": factors,
                          "picks": picks})
                for k, (t, w, size, factors, picks) in enumerate(chosen)]

    @staticmethod
    def _linear(n: int, spec) -> Polynomial:
        """e_a + c e_b from (a, b, c); (0, 0, 1) is the constant 1."""
        a, b, c = spec
        if a == 0:
            return Polynomial.one(n)
        return Polynomial.var(n, a) + Polynomial.var(n, b).scale(c)

    def prepare(self, inst, sigma):
        d = inst.data
        n = d["n"]
        t = sigma.expr(d["t"])
        w = sigma.perm(d["w"])
        g = locmod.res_tensor(t, [sigma.poly(self._linear(n, f))
                                  for f in d["factors"]])
        queries = []
        for kind, perturb in self.QUERIES:
            target = "all" if kind == "X(t)" else w
            members = subexpr.enumerate_sub(t, target).members
            values = {b: g.values[b] for b in members}
            if perturb:
                pick = d["picks"][kind != "X(t)"]
                b = members[pick % len(members)]
                values[b] = values[b] + Polynomial.one(n)
            queries.append((kind, perturb, target, values))
        inst.inputs = (t, queries)

    def compute(self, inst):
        t, queries = inst.inputs
        return [locmod.membership(
                    locmod.FnOnSub(subexpr.enumerate_sub(t, target), values),
                    kind)
                for kind, _, target, values in queries]

    def digest(self, inst, raw):
        t, queries = inst.inputs
        out = []
        for (kind, perturb, target, values), (ok, witness) in zip(queries, raw):
            if kind != "X^w":
                # a constant added at one member breaks a singleton X(t)
                # condition; Xw has no singleton conditions
                check(ok != perturb or (kind == "Xw" and ok),
                      f"{kind}: verdict {ok} for perturbed={perturb}")
            if ok:
                out.append([kind, True, None])
                continue
            # The witness's member is the first in bit order with a failing
            # condition, which relabelling keeps; which p is reported first
            # at that member follows the (i, j) order of the relabelled
            # names, so the payload keeps the member and the check confirms
            # that the reported (p, X) condition fails.
            eps, p, X = witness
            variant = "full" if kind == "X(t)" else "even"
            k = len(X) - (1 if kind == "Xw" else 0)
            dom = subexpr.enumerate_sub(t, target)
            val = locmod.sigma(locmod.FnOnSub(dom, values), eps, X, variant)
            check(not polyring.divisible_by_power(val, p.root(), k),
                  f"{kind}: the witness condition holds")
            out.append([kind, False, _bits(eps.bits)])
        return out


class Enumerate(Workload):
    """enumerate_sub(t, w) on expressions of length 16-20 over S_4-S_6,
    with identity targets and random reachable targets."""
    name = "enumerate"
    SHAPES = {(4, 16): 4, (4, 17): 4, (4, 18): 4, (5, 18): 4, (5, 19): 4,
              (6, 19): 4, (6, 20): 4}

    def catalogue(self):
        rng = random.Random("enumerate-catalogue")
        insts = []
        for (n, m), count in self.SHAPES.items():
            for k in range(count):
                t = _random_expr(rng, n, m)
                w = (Permutation.identity(n) if k % 2 == 0 else
                     subexpr.Subexpr(t, _random_bits(rng, m)).target())
                insts.append(Instance(f"enum-n{n}-m{m}-{k}", "enumerate", m,
                                      {"n": n, "t": t, "w": w}))
        return insts

    def prepare(self, inst, sigma):
        inst.inputs = (sigma.expr(inst.data["t"]), sigma.perm(inst.data["w"]))

    def compute(self, inst):
        t, w = inst.inputs
        return subexpr.enumerate_sub(t, w)

    def digest(self, inst, raw):
        t, w = inst.inputs
        members = raw.members
        check(len(members) > 0, "empty Sub(t,w) for a reachable target")
        check(all(a < b for a, b in zip(members, members[1:])),
              "members not strictly increasing")
        for b in (members[0], members[len(members) // 2], members[-1]):
            check(subexpr.Subexpr(t, b).target() == w, "member misses the target")
        masks = hashlib.sha256(
            ",".join(map(_bits, members)).encode()).hexdigest()
        return {"count": len(members), "masks": masks}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Growth(), DSeq(), Basis(), Membership(), Enumerate())}
