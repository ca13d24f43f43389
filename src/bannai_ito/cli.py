"""Command-line front-end and the exact-rational serialization format.

Module files are JSON documents with a fixed key order (dim, X, Y, kappa,
lambda, mu, meta); every scalar is a rational string in lowest terms ("p/q",
or "n" for integers), never a float.  Reports are JSON too, deterministic up
to a timing field that ``--no-timing`` suppresses, which keeps golden files
byte-stable.

Exit codes: 0 success/pass, 1 mathematical property failed, 2 malformed
input or out-of-domain module, 3 indeterminate verdict.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
import time
from fractions import Fraction

from .bimodule import BIModule, EvenParams, FamilyParams, NotAModule, OddParams, \
    TwistSign, check_relations, example_even, example_odd, twist
from .classify import IdentificationFailed, IndeterminateIrreducibility, \
    IndeterminateIsomorphism, NonSplitSpectrum, NotRationalFamily, are_isomorphic, \
    criterion, identify, invariants, oracle_irreducible
from .exactlinalg import Matrix, Roots, is_squarefree, min_poly, rational_roots

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# library exception -> exit code, the most specific class first
_EXIT_CODES = {IndeterminateIrreducibility: EXIT_INDETERMINATE, IdentificationFailed: EXIT_FAIL,
               NotAModule: EXIT_FAIL, NotRationalFamily: EXIT_INPUT, NonSplitSpectrum: EXIT_INPUT}


def _exit_code(exc: Exception) -> int:
    return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


# --- exact serialization --------------------------------------------------------

def _str_to_rat(s) -> Fraction:
    if not isinstance(s, str):
        raise CliError(EXIT_INPUT, f"rational must be a string, got {s!r}")
    try:
        q = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(EXIT_INPUT, f"bad rational {s!r}") from exc
    if str(q) != s:
        raise CliError(EXIT_INPUT, f"rational {s!r} is not in canonical lowest terms")
    return q


def _rat_str(q: Fraction) -> str:
    """How every output writes a rational (the JSON encoder's default too);
    CliError (exit 2) if it has more digits than the interpreter converts."""
    try:
        return str(q)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, "a derived rational has more than "
                       f"{sys.get_int_max_str_digits()} digits") from exc


def _matrix_from_lists(rows, what: str) -> Matrix:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise CliError(EXIT_INPUT, f"{what} must be a nonempty list of rows")
    entries = [[_str_to_rat(e) for e in row] for row in rows]
    try:
        return Matrix(entries)
    except ValueError as exc:  # ragged or empty rows
        raise CliError(EXIT_INPUT, f"{what}: {exc}") from exc


def serialize_module(mod: BIModule, meta: dict | None = None) -> str:
    doc = {"dim": mod.dim, "X": mod.X.rows, "Y": mod.Y.rows, "kappa": mod.kappa}
    if mod.lam is not None:
        doc["lambda"] = mod.lam
    if mod.mu is not None:
        doc["mu"] = mod.mu
    doc["meta"] = dict(meta) if meta else {}
    return json.dumps(doc, indent=2, default=_rat_str) + "\n"


def parse_module(text: str) -> tuple[BIModule, dict]:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
        raise CliError(EXIT_INPUT, f"module file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(EXIT_INPUT, "module file must be a JSON object")
    allowed = {"dim", "X", "Y", "kappa", "lambda", "mu", "meta"}
    unknown = set(doc) - allowed
    if unknown:
        raise CliError(EXIT_INPUT, f"unknown module-file keys: {sorted(unknown)}")
    for key in ("dim", "X", "Y", "kappa"):
        if key not in doc:
            raise CliError(EXIT_INPUT, f"module file is missing {key!r}")
    if not isinstance(doc["dim"], int) or isinstance(doc["dim"], bool):
        raise CliError(EXIT_INPUT, "dim must be an integer")
    x = _matrix_from_lists(doc["X"], "X")
    y = _matrix_from_lists(doc["Y"], "Y")
    kappa = _str_to_rat(doc["kappa"])
    lam = _str_to_rat(doc["lambda"]) if "lambda" in doc else None
    mu = _str_to_rat(doc["mu"]) if "mu" in doc else None
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise CliError(EXIT_INPUT, "meta must be an object")
    try:
        mod = BIModule(x, y, kappa, lam, mu)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from exc
    if doc["dim"] != mod.dim:
        raise CliError(EXIT_INPUT, f"declared dim {doc['dim']} != matrix size {mod.dim}")
    return mod, meta


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from exc


def _write_output(text: str, args) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(EXIT_INPUT, f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


# --- parameter plumbing -----------------------------------------------------------

def _parse_rat_arg(s: str, what: str) -> Fraction:
    # an integer, p/q or plain decimal; an exponent (1e10000000) is unbounded work
    if re.fullmatch(r"\s*[+-]?(\d+(/\d+)?|\d*\.\d+|\d+\.)\s*", s):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):  # too many digits, or a zero denominator
            pass
    raise CliError(EXIT_INPUT, f"bad rational for {what}: {s!r}")


def _parse_twist_arg(s: str) -> TwistSign:
    parts = s.split(",")
    if len(parts) != 2 or any(p not in ("1", "-1") for p in parts):
        raise CliError(EXIT_INPUT, f"twist must be a sign pair like 1,-1 with each sign 1 or -1, got {s!r}")
    return TwistSign(int(parts[0]), int(parts[1]))


_FAMILIES = {"even": EvenParams, "odd": OddParams}


def _family_point(family: str, d: int, a, b, c) -> FamilyParams:
    try:
        return _FAMILIES[family](d, a, b, c)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from exc


def _family_meta(family: str, d: int, a, b, c, sign: TwistSign) -> dict:
    return {"family": family, "d": str(d), "a": Fraction(a), "b": Fraction(b),
            "c": Fraction(c), "twist": f"{sign.eps},{sign.eps_prime}"}


def _criterion_from_meta(meta: dict, dim: int) -> bool | None:
    """Whether the criterion holds at a module file's meta coordinates, or
    None if they are absent/foreign (including a d that is not whole or has d + 1 != dim)."""
    try:
        family, d = _FAMILIES[meta["family"]], _parse_rat_arg(meta["d"], "d")
        if d.denominator != 1 or d + 1 != dim:
            return None  # not whole, or the coordinates of a module of another dimension
        return criterion(family(int(d), *(_parse_rat_arg(meta[k], k) for k in "abc")))
    except (CliError, KeyError, ValueError, TypeError, OverflowError):
        return None  # absent keys, foreign values (not a rational argument), or bad d


# --- report fragments --------------------------------------------------------------

def _relations_fragment(mod: BIModule) -> tuple[list[dict], bool]:
    rep = check_relations(mod)
    rows = [{"relation": ch.name, "passed": ch.passed,
             "scalar": ch.scalar, "expected": ch.expected}
            for ch in rep.checks]
    return rows, rep.ok


def _verdict_fragment(verdict) -> dict:
    return {"status": verdict.status, "method": "oracle", "detail": verdict.detail,
            "witness": verdict.witness}


def _invariants_fragment(mod: BIModule) -> dict:
    inv = invariants(mod)
    return {"trace_X": inv.trace_x, "trace_Y": inv.trace_y,
            "kappa": inv.kappa, "lambda": inv.lam, "mu": inv.mu}


def _coords_fragment(coords) -> dict:
    return {"family": coords.family, "d": coords.d,
            "twist": None if coords.twist is None
            else f"{coords.twist.eps},{coords.twist.eps_prime}",
            "params": coords.params}


def _factored_string(roots: Roots) -> str | None:
    if not roots.split:
        return None
    pieces = []
    for r in sorted(set(roots.roots), reverse=True):
        mult = roots.roots.count(r)
        base = "x" if r == 0 else f"(x - {_rat_str(r)})" if r > 0 else f"(x + {_rat_str(-r)})"
        pieces.append(base + (f"^{mult}" if mult > 1 else ""))
    return "".join(pieces)


# --- commands -----------------------------------------------------------------------

def cmd_build(args) -> int:
    a, b, c = (_parse_rat_arg(getattr(args, k), f"--{k}") for k in "abc")
    sign = _parse_twist_arg(args.twist)
    mod = twist(_family_point(args.family, args.d, a, b, c).module(), sign)
    _note(args, "kappa={} lambda={} mu={}".format(*map(_rat_str, (mod.kappa, mod.lam, mod.mu))))
    _write_output(serialize_module(mod, _family_meta(args.family, args.d, a, b, c, sign)), args)
    return EXIT_OK


def cmd_fixture(args) -> int:
    if args.name == "exampleE":
        mod = example_even()
        meta = _family_meta("even", 3, 1, 0, 1, TwistSign(1, 1))
    else:
        mod = example_odd()
        meta = _family_meta("odd", 4, Fraction(3, 2), Fraction(1, 2),
                            Fraction(-1, 2), TwistSign(1, 1))
    _write_output(serialize_module(mod, meta), args)
    return EXIT_OK


def cmd_check(args, report: dict, source) -> int:
    report["relations"], report["passed"] = _relations_fragment(source[0])
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_classify(args, report: dict, source) -> int:
    mod, meta = source
    verdict = oracle_irreducible(mod)
    report["oracle"] = _verdict_fragment(verdict)
    holds = _criterion_from_meta(meta, mod.dim)
    if holds is not None:
        report["criterion"] = {"status": "irreducible" if holds else "reducible",
                               "method": "criterion"}
        if verdict.status != "indeterminate":
            report["methods_agree"] = holds == verdict.is_irreducible
    report["invariants"] = _invariants_fragment(mod)
    code = EXIT_INDETERMINATE if verdict.status == "indeterminate" else EXIT_OK
    if verdict.is_irreducible:
        try:
            report["class"] = _coords_fragment(identify(mod, assume_irreducible=True))
        except (NotRationalFamily, IdentificationFailed) as exc:
            report["class"], report["identify_error"] = None, str(exc)
            code = _exit_code(exc)
    return code


def cmd_identify(args, report: dict, source) -> int:
    try:
        coords = identify(source[0])
    except (NotRationalFamily, IdentificationFailed) as exc:
        report["error"] = str(exc)
        return _exit_code(exc)
    report["class"] = _coords_fragment(coords)
    report["invariants"] = _invariants_fragment(source[0])
    return EXIT_OK


def cmd_iso(args, report: dict, first, second) -> int:
    try:
        ok, t = are_isomorphic(first[0], second[0])
    except IndeterminateIsomorphism as exc:
        report.update(isomorphic="indeterminate", detail=str(exc))
        return EXIT_INDETERMINATE
    report["isomorphic"] = ok
    report["intertwiner"] = t.rows if ok else None
    return EXIT_OK if ok else EXIT_FAIL


def cmd_minpoly(args, report: dict, source) -> int:
    report["gen"] = args.gen
    report["results"] = []
    for name in ("X", "Y", "Z") if args.gen == "all" else (args.gen,):
        p = min_poly(source[0].generator(name))
        roots = rational_roots(p)
        squarefree = is_squarefree(p)
        report["results"].append({
            "generator": name,
            "min_poly_coeffs": p.coeffs,
            "factored": _factored_string(roots),
            "squarefree": squarefree,
            "split": roots.split,
            "diagonalizable": squarefree and roots.split,
        })
    return EXIT_OK


def cmd_scan(args, report: dict) -> int:
    values = [_parse_rat_arg(tok, "--values") for tok in args.values.split(",") if tok]
    if not values:
        raise CliError(EXIT_INPUT, "--values must list at least one rational")
    disagreements, indeterminate = [], []
    for a, b, c in itertools.product(values, repeat=3):
        point = _family_point(args.family, args.d, a, b, c)
        verdict = oracle_irreducible(point.module())
        if verdict.status == "indeterminate":
            indeterminate.append((a, b, c))
        elif verdict.is_irreducible != criterion(point):
            disagreements.append((a, b, c))
    report.update(family=args.family, d=args.d, grid_points=len(values) ** 3,
                  disagreements=disagreements, indeterminate=indeterminate)
    if disagreements:
        return EXIT_FAIL
    return EXIT_INDETERMINATE if indeterminate else EXIT_OK


def _report(args) -> int:
    """Run a report command: read its module files in argument order, gate on
    the relations, let ``handler(args, report, *(module, meta) pairs)`` fill
    in the command's fields and return the exit code, then add timing and exit."""
    started = time.monotonic()
    handler, _, names, gated = _COMMANDS[args.cmd]
    paths = [getattr(args, name) for name in names]
    inputs = [parse_module(_read_input(path)) for path in paths]
    report: dict = {"command": args.cmd}
    if len(paths) == 1:
        report["input"] = paths[0]
    elif paths:
        report["inputs"] = paths
    frags = [_relations_fragment(mod) for mod, _ in inputs] if gated else []
    if all(ok for _, ok in frags):
        code = handler(args, report, *inputs)
    else:
        report["relations"] = frags[0][0] if len(frags) == 1 else [rows for rows, _ in frags]
        report["error"] = "defining relations fail; not a module"
        code = EXIT_FAIL
    if not args.no_timing:
        report["timing_s"] = f"{time.monotonic() - started:.3f}"
    report["exit"] = code
    _write_output(json.dumps(report, indent=2, default=_rat_str) + "\n", args)
    return code


# --- argument parsing -----------------------------------------------------------------

# command -> (handler, help, its module-file arguments or None if it writes no
# report, whether it assumes a module and so gates on the defining relations)
_COMMANDS = {
    "build": (cmd_build, "construct a family module and write its module file", None, False),
    "fixture": (cmd_fixture, "emit one of the two pinned reference modules", None, False),
    "check": (cmd_check, "verify the defining relations of a module file", ("path",), False),
    "classify": (cmd_classify, "irreducibility verdict, invariants and class coordinates",
                 ("path",), True),
    "identify": (cmd_identify, "recover family coordinates of an irreducible module",
                 ("path",), True),
    "iso": (cmd_iso, "decide isomorphism of two module files", ("path1", "path2"), True),
    "minpoly": (cmd_minpoly, "minimal polynomial of a generator, factored when split",
                ("path",), False),
    "scan": (cmd_scan, "compare criterion and oracle over a parameter cube", (), False),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--quiet", action="store_true", help="suppress stderr notes")
    common.add_argument("--no-timing", action="store_true",
                        help="omit the timing field for byte-stable output")

    parser = argparse.ArgumentParser(
        prog="bimod",
        description="Construct, verify and classify exact rational modules "
                    "of the universal Bannai-Ito algebra.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    cmds = {}
    for name, (_, help_text, paths, _) in _COMMANDS.items():
        cmds[name] = sub.add_parser(name, parents=[common], help=help_text)
        for path in paths or ():  # a lone module file may come on stdin
            cmds[name].add_argument(path, **({"nargs": "?", "default": "-"}
                                             if paths == ("path",) else {}))
    for name in ("build", "scan"):
        cmds[name].add_argument("--family", choices=("even", "odd"), required=True)
        cmds[name].add_argument("--d", type=int, required=True)
    p = cmds["build"]
    p.add_argument("--a", required=True, help="rational, e.g. 1 or -3/2 (use --a=-3/2)")
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--twist", default="1,1", help="sign pair like 1,-1 (default 1,1)")
    cmds["fixture"].add_argument("name", choices=("exampleE", "exampleO"))
    cmds["minpoly"].add_argument("--gen", choices=("X", "Y", "Z", "all"), default="all")
    cmds["scan"].add_argument("--values", required=True,
                              help="comma-separated rationals for each of a, b, c "
                                   "(use --values=-1,0,1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, paths, _ = _COMMANDS[args.cmd]
    try:
        return handler(args) if paths is None else _report(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except BrokenPipeError:
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
