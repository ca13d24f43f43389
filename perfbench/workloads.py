"""Seeded inputs and checked tasks for the four benchmark workloads.

Each workload turns a seed into a list of rounds, a round being a fixed mix
of tasks, so every run measures whole rounds and the mix does not depend on
where the clock stops.  A task calls the library through the module objects
in ``lib`` (looked up at call time, so a traced run sees its wrappers) and
checks every answer: a wrong one raises ``WrongAnswer``, an inconclusive one
(indeterminate verdict, ``IndeterminateIsomorphism``) is reported in the
task's record.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from spans import oracle_route

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

PREBUILT_ROUNDS = {"grid": 400, "large_dim": 4, "reducible": 6, "cli": 200}
TRACED_ROUNDS = {"grid": 12, "large_dim": 1, "reducible": 2, "cli": 10}


class WrongAnswer(Exception):
    """The library returned an answer the benchmark knows to be wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def record(dim: int, *, reducible: bool = False, route: str | None = None,
           conclusive: bool = True, command: str | None = None) -> dict:
    return {"dim": dim, "reducible": reducible, "route": route,
            "conclusive": conclusive, "command": command}


def _check_intertwiner(t, v, w, what: str) -> None:
    require(t * v.X == w.X * t and t * v.Y == w.Y * t, f"{what}: T does not intertwine")
    require(t.det() != 0, f"{what}: intertwiner is singular")


def _oracle_step(lib, v, expect_irreducible: bool, what: str):
    """Run the oracle and check it; returns (route, conclusive)."""
    verdict = lib["classify"].oracle_irreducible(v)
    route = oracle_route(verdict)
    if verdict.status == "indeterminate":
        return route, False
    require(verdict.is_irreducible == expect_irreducible,
            f"{what}: oracle says {verdict.status}")
    if verdict.is_reducible:
        require(lib["classify"].verify_invariant_subspace(v, verdict.witness),
                f"{what}: oracle witness is not a proper invariant subspace")
    return route, True


def _near_one(rng: random.Random, den: int) -> F:
    """+-(den +- 1)/den: seeded parameters of equal height, so that seeds do
    not change the size of the numbers the exact arithmetic works on."""
    return F(rng.choice((-1, 1)) * (den + rng.choice((-1, 1))), den)


# --- grid: the acceptance grid, sampled ------------------------------------------

GRID_VALUES = (F(0), F(1, 2), F(-1, 2), F(1), F(-1), F(3, 2), F(-3, 2), F(2))
GRID_DIMS = (("even", 1), ("even", 3), ("even", 5), ("odd", 0), ("odd", 2), ("odd", 4))
GRID_PER_DIM = 8


def grid_inputs(lib, seed: int, smoke: bool) -> list[list]:
    """Rounds of 8 points per dimension.  Within a dimension the points are
    split into strata (reducible or not; all parameters >= 0 or not, which
    decides whether ``identify`` meets its own matrices or runs a real
    isomorphism) and each stratum gets its share of the grid in every
    round, so seeds differ only in which points are drawn."""
    rng = random.Random(seed)
    pools = []
    for family, d in GRID_DIMS:
        crit = lib["classify"].criterion_even if family == "even" else lib["classify"].criterion_odd
        points = [(a, b, c) for a in GRID_VALUES for b in GRID_VALUES for c in GRID_VALUES]
        strata: dict[tuple, list] = {}
        for p in points:
            strata.setdefault((crit(d, *p), min(p) >= 0), []).append(p)
        for key in sorted(strata):
            rng.shuffle(strata[key])
        pools.append((family, d, [(strata[key], n) for key, n in
                                  _shares(strata, len(points)).items() if n]))
    rounds = []
    for r in range(1 if smoke else PREBUILT_ROUNDS["grid"]):
        rnd = []
        for family, d, parts in pools:
            for pool, n in parts:
                rnd += [(family, d) + pool[(r * n + j) % len(pool)] for j in range(n)]
        rounds.append(rnd)
    return rounds


def _shares(strata: dict, total: int) -> dict:
    """Split GRID_PER_DIM slots over the strata by largest remainder."""
    exact = {key: GRID_PER_DIM * len(pool) / total for key, pool in sorted(strata.items())}
    counts = {key: int(x) for key, x in exact.items()}
    for key in sorted(exact, key=lambda k: counts[k] - exact[k])[:GRID_PER_DIM - sum(counts.values())]:
        counts[key] += 1
    return counts


def grid_task(lib, item) -> dict:
    """Build, check_relations, criterion, oracle; then identify every twist
    (even) or the module itself (odd) of an irreducible point."""
    family, d, a, b, c = item
    bim, cls = lib["bimodule"], lib["classify"]
    even = family == "even"
    v = (bim.even_module if even else bim.odd_module)(d, a, b, c)
    require(bim.check_relations(v).ok, f"grid {item}: relations fail")
    holds = (cls.criterion_even if even else cls.criterion_odd)(d, a, b, c)
    route, conclusive = _oracle_step(lib, v, holds, f"grid {item}")
    if conclusive and holds:
        if even:
            canon = cls.orbit_canonical(a, b, c)
            for sign in bim.ALL_TWISTS:
                got = cls.identify(bim.twist(v, sign), assume_irreducible=True)
                require(got == cls.ClassCoordinates("even", d, sign, canon),
                        f"grid {item} twist {sign}: identify gave {got}")
        else:
            got = cls.identify(v, assume_irreducible=True)
            require(got == cls.ClassCoordinates("odd", d, None, (a, b, c)),
                    f"grid {item}: identify gave {got}")
    return record(d + 1, reducible=not holds, route=route, conclusive=conclusive)


# --- large_dim: a few large irreducible modules ----------------------------------

LARGE_SIZES = (16, 24, 32)
ROADMAP_TRIPLE = (F(1, 3), F(2, 7), F(5, 11))
NONTRIVIAL_TWISTS = ((1, -1), (-1, 1), (-1, -1))


def _large_params(rng: random.Random, b_sign: int) -> tuple[F, F, F]:
    """Parameters over the denominators 3, 7, 11 of the ROADMAP triple.  The
    sign of b orders the Y spectrum and moves a task's cost by a third, so
    it is given; the signs of a and c are drawn."""
    return _near_one(rng, 3), b_sign * abs(_near_one(rng, 7)), _near_one(rng, 11)


def large_inputs(lib, seed: int, smoke: bool) -> list[list]:
    """Rounds of one even (d = n-1) and one odd (d = n) module per size.  The
    even modules of the first round use the ROADMAP triple; twist signs and
    the sign of b are fixed by position, so seeds differ only in the other
    parameters."""
    rng = random.Random(seed)
    bim, cls = lib["bimodule"], lib["classify"]
    sizes = (4,) if smoke else LARGE_SIZES
    rounds = []
    for r in range(1 if smoke else PREBUILT_ROUNDS["large_dim"]):
        rnd = []
        for i, n in enumerate(sizes):
            for family, d in (("even", n - 1), ("odd", n)):
                crit = cls.criterion_even if family == "even" else cls.criterion_odd
                if family == "even" and r == 0:
                    params = ROADMAP_TRIPLE
                else:
                    b_sign = 1 if (r + i) % 2 == 0 else -1
                    params = _large_params(rng, b_sign)
                    while not crit(d, *params):
                        params = _large_params(rng, b_sign)
                rnd.append(_large_item(bim, cls, rng, family, d, params, r + i))
        rounds.append(rnd)
    return rounds


def _large_item(bim, cls, rng, family: str, d: int, params, position: int) -> dict:
    a, b, c = params
    if family == "even":
        v = bim.even_module(d, a, b, c)
        pair = (v, bim.even_module(d, -a, b, c))  # the a-flip partner
        sign = bim.ALL_TWISTS[position % 4]
        ident_in = bim.twist(bim.even_module(d, -abs(a), -abs(b), c), sign)
        expect = cls.ClassCoordinates("even", d, sign, cls.orbit_canonical(a, b, c))
    else:
        v = bim.odd_module(d, a, b, c)
        # a nontrivial twist is the module with two parameter signs flipped
        flips = dict(zip(NONTRIVIAL_TWISTS, ((a, -b, -c), (-a, b, -c), (-a, -b, c))))
        iso_sign = NONTRIVIAL_TWISTS[position % 3]
        id_sign = NONTRIVIAL_TWISTS[(position + 1) % 3]
        pair = (bim.twist(v, bim.TwistSign(*iso_sign)), bim.odd_module(d, *flips[iso_sign]))
        ident_in = bim.twist(v, bim.TwistSign(*id_sign))
        expect = cls.ClassCoordinates("odd", d, None, flips[id_sign])
    probe = tuple(F(rng.randint(-3, 3)) for _ in range(v.dim))
    return {"family": family, "d": d, "params": params, "v": v, "pair": pair,
            "ident_in": ident_in, "expect": expect, "probe": probe}


def _annihilates(p, m, v) -> bool:
    """p(m) v == 0, by Horner's rule on the vector."""
    w = tuple(p.coeffs[-1] * x for x in v)
    for coeff in reversed(p.coeffs[:-1]):
        w = tuple(x + coeff * y for x, y in zip(m.matvec(w), v))
    return not any(w)


def large_task(lib, item) -> dict:
    """check_relations, oracle, iso with the partner, identify of a twist,
    min_poly(Z), the three lowering matrices (even) and the ladder window."""
    bim, cls, uni = lib["bimodule"], lib["classify"], lib["universal"]
    v, d, (a, b, c) = item["v"], item["d"], item["params"]
    what = f"large_dim {item['family']} d={d} {item['params']}"
    n = v.dim
    require(bim.check_relations(v).ok, f"{what}: relations fail")
    route, conclusive = _oracle_step(lib, v, True, what)
    ok, t = cls.are_isomorphic(*item["pair"])
    require(ok, f"{what}: partner reported non-isomorphic")
    _check_intertwiner(t, *item["pair"], what)
    got = cls.identify(item["ident_in"], assume_irreducible=True)
    require(got == item["expect"], f"{what}: identify gave {got}")
    p = lib["exactlinalg"].min_poly(v.Z)
    require(p.coeffs[-1] == 1 and p.degree <= n and _annihilates(p, v.Z, item["probe"]),
            f"{what}: min_poly(Z) does not annihilate the probe vector")
    window = n + 4
    if item["family"] == "even":
        low = [cls.lowering_matrix(d, a, b, c, method=m)
               for m in ("closed", "recurrence", "operator")]
        require(low[0] == low[1] == low[2], f"{what}: lowering matrix methods disagree")
        require((low[0].det() != 0) == cls.criterion_even(d, a, b, c),
                f"{what}: lowering determinant disagrees with the criterion")
        require(uni.verma_quotient_check(bim.EvenParams(d, a, b, c), window).ok,
                f"{what}: Verma quotient check fails")
    tv = uni.truncated_verma(d, a, b, c, window)
    require(uni.interior_relation_check(tv).interior_ok, f"{what}: window relations fail")
    unit = tuple(F(int(k == window - 1)) for k in range(window))
    require(uni.ladder_vector(tv, 0, window - 2) == unit, f"{what}: ladder identity fails")
    return record(n, route=route, conclusive=conclusive)


# --- reducible: family points on a wall and direct sums ---------------------------

def _slow_wall_point(bim, rng: random.Random, d: int) -> tuple[F, F, F]:
    """Reducible (a, b, c): a + b + c or a + b - c on a forbidden value, so
    phi_j = 0 and span{v_j, ..., v_d} is a submodule.  Kept only when that
    submodule holds the eigenvector of the smallest Y eigenvalue (all
    distinct), whose kernel line the oracle and the fast isomorphism path
    spin first: every point then takes the slow intertwiner-space path."""
    while True:
        a, b = _near_one(rng, 3), _near_one(rng, 4)
        wall = F(d - 1, 2) - 2 * rng.randrange((d + 1) // 2)
        c = wall - a - b if rng.randrange(2) else a + b - wall
        table = bim.SequenceTable(F(d), a, b, c)
        thetas = [table.theta_star(i) for i in range(d + 1)]
        lowest = thetas.index(min(thetas))
        walls = [j for j in range(1, d + 1) if table.phi_upper(j) == 0]
        if len(set(thetas)) == d + 1 and any(j <= lowest for j in walls):
            return a, b, c


def _unimodular(mat_cls, n: int, rng: random.Random):
    """A seeded integer matrix of determinant 1 and its integer inverse."""
    low = mat_cls([[1 if i == j else (rng.randint(-1, 1) if j < i else 0)
                    for j in range(n)] for i in range(n)])
    up = mat_cls([[1 if i == j else (rng.randint(-1, 1) if j > i else 0)
                   for j in range(n)] for i in range(n)])
    p = low * up
    return p, p.inverse()


def _direct_sum(bim, mat_cls, v, w):
    n, m = v.dim, w.dim

    def block(x, y):
        return mat_cls([list(x.row(i)) + [0] * m for i in range(n)]
                       + [[0] * n + list(y.row(i)) for i in range(m)])

    if (v.kappa, v.lam, v.mu) != (w.kappa, w.lam, w.mu):
        raise ValueError("direct summands need equal central scalars")
    return bim.BIModule(block(v.X, w.X), block(v.Y, w.Y), v.kappa, v.lam, v.mu)


def reducible_inputs(lib, seed: int, smoke: bool) -> list[list]:
    """Rounds of reducible even-family points at n = 4, five at 6, and 8, and
    direct sums V + V' at n = 4, 8, where V' is V itself or a single-sign-flip
    partner (fixed by position, as it sets the size of the oracle's word
    search).  The five n = 6 points put the median task inside one group
    rather than on the edge between two, and give it enough samples.  Each module is paired with a
    conjugate P V P^-1 by a seeded unimodular integer P."""
    rng = random.Random(seed)
    bim, cls = lib["bimodule"], lib["classify"]
    mat_cls = lib["exactlinalg"].Matrix
    fam_ds, sum_ds = ((3,), (1,)) if smoke else ((3, 5, 5, 5, 5, 5, 7), (1, 3))
    rounds = []
    for r in range(1 if smoke else PREBUILT_ROUNDS["reducible"]):
        rnd = [("family", bim.even_module(d, *_slow_wall_point(bim, rng, d))) for d in fam_ds]
        for k, d in enumerate(sum_ds):
            a, b, c = _near_one(rng, 3), _near_one(rng, 4), _near_one(rng, 5)
            while not cls.criterion_even(d, a, b, c):
                a, b, c = _near_one(rng, 3), _near_one(rng, 4), _near_one(rng, 5)
            partner = ((a, b, c), (-a, b, c), (a, -b, c), (a, b, -c))[(r + k) % 4]
            rnd.append(("sum", _direct_sum(bim, mat_cls, bim.even_module(d, a, b, c),
                                           bim.even_module(d, *partner))))
        items = []
        for kind, v in rnd:
            p, p_inv = _unimodular(mat_cls, v.dim, rng)
            w = bim.BIModule(p * v.X * p_inv, p * v.Y * p_inv, v.kappa, v.lam, v.mu)
            items.append({"kind": kind, "v": v, "w": w})
        rounds.append(items)
    return rounds


def reducible_task(lib, item) -> dict:
    """check_relations; the oracle must not say irreducible and any witness
    must verify; V ~ P V P^-1 with a checked intertwiner; identify must raise
    IdentificationFailed."""
    bim, cls = lib["bimodule"], lib["classify"]
    v, w = item["v"], item["w"]
    what = f"reducible {item['kind']} n={v.dim}"
    require(bim.check_relations(v).ok, f"{what}: relations fail")
    route, conclusive = _oracle_step(lib, v, False, what)
    try:
        ok, t = cls.are_isomorphic(v, w)
    except cls.IndeterminateIsomorphism:
        conclusive = False
    else:
        require(ok, f"{what}: V and P V P^-1 reported non-isomorphic")
        _check_intertwiner(t, v, w, what)
    try:
        got = cls.identify(v)
    except cls.IdentificationFailed:
        pass
    else:
        raise WrongAnswer(f"{what}: identify returned {got} for a reducible module")
    return record(v.dim, reducible=True, route=route, conclusive=conclusive)


# --- cli: the bimod command line ---------------------------------------------------

def cli_workdir() -> Path:
    return ROOT / "perfbench" / "out" / f"cli-{os.getpid()}"


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_inputs(lib, seed: int, smoke: bool) -> list[list]:
    """Writes the module files, then repeats one fixed script per round:
    build, fixture x2, check x2, classify, identify, minpoly, iso, scan."""
    rng = random.Random(seed)
    bim, cls, cli = lib["bimodule"], lib["classify"], lib["cli"]
    halves = [F(k, 2) for k in range(-8, 9)]
    a, b, c = (rng.choice(halves) for _ in range(3))
    while not cls.criterion_even(3, a, b, c):
        a, b, c = (rng.choice(halves) for _ in range(3))
    sign = rng.choice(bim.ALL_TWISTS[1:])
    v = bim.even_module(3, a, b, c)
    flip = bim.even_module(3, -a, b, c)
    bad = bim.BIModule(v.X, v.X, v.kappa)  # Y replaced by X: relations break
    meta = {"family": "even", "d": "3", "a": str(a), "b": str(b), "c": str(c), "twist": "1,1"}
    work = cli_workdir()
    work.mkdir(parents=True, exist_ok=True)
    files = {"v": v, "t": bim.twist(v, sign), "flip": flip, "bad": bad}
    for key, mod in files.items():
        (work / f"{key}.json").write_text(cli.serialize_module(mod, meta if key == "v" else None))
    golden = {name: (GOLDEN / name).read_bytes() for name in
              ("module_exampleE.json", "module_exampleO.json", "minpoly_z_exampleE.json")}
    canon = [str(x) for x in cls.orbit_canonical(a, b, c)]
    mat_cls = lib["exactlinalg"].Matrix
    built_text = cli.serialize_module(v, meta)

    def report(code, out: bytes) -> dict:
        try:
            return json.loads(out)
        except json.JSONDecodeError:
            raise WrongAnswer(f"exit {code} without a JSON report") from None

    def built(code, out):
        require(code == 0 and (work / "built.json").read_text() == built_text,
                f"build: exit {code} or wrong module file")

    def golden_bytes(name):
        def check(code, out):
            require(code == 0 and out == golden[name], f"output differs from golden {name}")
        return check

    def checked(passed, exit_code):
        def check(code, out):
            rep = report(code, out)
            require(code == exit_code and rep["exit"] == exit_code and rep["passed"] is passed,
                    f"check: exit {code}, passed {rep.get('passed')}")
        return check

    def classified(code, out):
        rep = report(code, out)
        require(code == 0 and rep["oracle"]["status"] == "irreducible"
                and rep.get("methods_agree") is True
                and rep["class"] == {"family": "even", "d": 3, "twist": "1,1", "params": canon},
                f"classify: exit {code}, report {rep}")

    def identified(code, out):
        rep = report(code, out)
        want = {"family": "even", "d": 3, "twist": f"{sign.eps},{sign.eps_prime}", "params": canon}
        require(code == 0 and rep["class"] == want, f"identify: exit {code}, report {rep}")

    def isomorphic(code, out):
        rep = report(code, out)
        require(code == 0 and rep["isomorphic"] is True, f"iso: exit {code}")
        t = mat_cls([[F(e) for e in row] for row in rep["intertwiner"]])
        _check_intertwiner(t, v, flip, "iso")

    def scanned(code, out):
        rep = report(code, out)
        require(code == 0 and rep["grid_points"] == 27 and not rep["disagreements"]
                and not rep["indeterminate"], f"scan: exit {code}, report {rep}")

    fixture_e = golden["module_exampleE.json"]
    script = [
        ("build", ["build", "--family", "even", "--d", "3", f"--a={a}", f"--b={b}", f"--c={c}",
                   "--out", str(work / "built.json")], None, built),
        ("fixture", ["fixture", "exampleE"], None, golden_bytes("module_exampleE.json")),
        ("fixture", ["fixture", "exampleO"], None, golden_bytes("module_exampleO.json")),
        ("check", ["check", str(work / "v.json")], None, checked(True, 0)),
        ("check", ["check", str(work / "bad.json")], None, checked(False, 1)),
        ("classify", ["classify", str(work / "v.json")], None, classified),
        ("identify", ["identify", str(work / "t.json")], None, identified),
        ("minpoly", ["minpoly", "--gen", "Z"], fixture_e, golden_bytes("minpoly_z_exampleE.json")),
        ("iso", ["iso", str(work / "v.json"), str(work / "flip.json")], None, isomorphic),
        ("scan", ["scan", "--family", "even", "--d", "3", "--values=-1,0,1"], None, scanned),
    ]
    script = [(cmd, argv + ["--no-timing"], stdin, check) for cmd, argv, stdin, check in script]
    return [script] * (1 if smoke else PREBUILT_ROUNDS["cli"])


def cli_task(lib, item) -> dict:
    """One ``python -m bannai_ito`` subprocess, checked."""
    cmd, argv, stdin, check = item
    proc = subprocess.run([sys.executable, "-m", "bannai_ito"] + argv, input=stdin,
                          capture_output=True, cwd=ROOT, env=cli_env(), timeout=120)
    check(proc.returncode, proc.stdout)
    return record(4, command=cmd)


def cli_inprocess_task(lib, item) -> dict:
    """The same invocation through ``cli.main(argv)`` in this process."""
    cmd, argv, stdin, check = item
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO((stdin or b"").decode())
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = lib["cli"].main(argv)
    finally:
        sys.stdin = old_stdin
    check(code, out.getvalue().encode())
    return record(4, command=cmd)


WORKLOADS = {
    "grid": (grid_inputs, grid_task, grid_task),
    "large_dim": (large_inputs, large_task, large_task),
    "reducible": (reducible_inputs, reducible_task, reducible_task),
    "cli": (cli_inputs, cli_task, cli_inprocess_task),
}
