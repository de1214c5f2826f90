"""Command line front end producing exact, reproducible JSON reports.

Every command reads a fan document, runs the requested computation, and
prints a report to standard output.  All numbers in a report are exact:
integers stay integers and every other rational is a "p/q" string.
Randomized choices are driven by an explicit seed, so re-running a
command reproduces its report byte for byte.  The exit code is 0 when
every check in the report passed, 1 when some check failed, and 2 when
the input could not be processed at all.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
from fractions import Fraction

from .errors import (
    FanDocumentError,
    MultiFanError,
    NotTCartier,
    RayNotInterior,
)
from .facering import SupportClass, face_class
from .fanio import format_rational, load_document, parse_rational
from .fans import fan_degree, is_complete, precompleteness
from .lattices import dot, dual_basis
from .polytopes import (
    MultiPolytope,
    count_bruteforce,
    count_face,
    count_formula,
    volume,
)
from .todd import (
    check_subdivision_cover,
    cohomology_decomposition_residual,
    ehrhart_coefficients,
    face_decomposition_residual,
    morelli_coefficient,
    sample_generic_plane,
    spanning_classes,
    subdivision_residual,
    todd_genus,
)

# ---------------------------------------------------------------------------
# shared plumbing


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _parse_indices(text: str, n_rays: int, flag: str):
    """Comma-separated 1-based ray indices to a sorted 0-based tuple."""
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            k = int(token)
        except ValueError:
            raise FanDocumentError(f"{flag}: malformed ray index {token!r}") from None
        if not 1 <= k <= n_rays:
            raise FanDocumentError(f"{flag}: ray index {k} out of range 1..{n_rays}")
        out.append(k - 1)
    if len(set(out)) != len(out):
        raise FanDocumentError(f"{flag}: repeated ray index")
    return tuple(sorted(out))


def _resolve_support(doc, token: str):
    """A support is either a name from the document or an inline list."""
    if token in doc.supports:
        return doc.supports[token]
    if "," in token or (len(doc.rays) == 1 and token.lstrip("-").isdigit()):
        values = tuple(
            parse_rational(t.strip(), "inline support") for t in token.split(",")
        )
        if len(values) != len(doc.rays):
            raise FanDocumentError(
                f"inline support has {len(values)} entries, fan has {len(doc.rays)} rays"
            )
        return values
    return doc.support(token)


def _face_label(J) -> str:
    return "{" + ",".join(str(i + 1) for i in J) + "}"


def _class_label(cls) -> str:
    """Deterministic text form of an equivariant class."""
    parts = []
    for expo in sorted(cls.terms):
        c = cls.terms[expo]
        if c == 0:
            continue
        factors = []
        for i, p in enumerate(expo):
            if p == 1:
                factors.append(f"x{i + 1}")
            elif p > 1:
                factors.append(f"x{i + 1}^{p}")
        mono = "*".join(factors) or "1"
        if c == 1 and factors:
            parts.append(mono)
        elif c == -1 and factors:
            parts.append(f"-{mono}")
        elif not factors:
            parts.append(str(format_rational(c)))
        else:
            parts.append(f"{format_rational(c)}*{mono}")
    if not parts:
        return "0"
    label = parts[0]
    for p in parts[1:]:
        label += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return label


def _report(command: str, args_echo: dict, results: dict, checks: list, **extra) -> dict:
    report = {
        "command": command,
        "arguments": args_echo,
        "results": results,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
    report.update(extra)
    return report


def _load(args):
    doc = load_document(args.file)
    return doc, doc.fan(), _sha256(args.file)


def _require(flag: str, value: int, low: int) -> None:
    """Refuse a numeric flag below the lowest value it has a meaning for."""
    if value < low:
        raise FanDocumentError(f"{flag} must be at least {low}, got {value}")


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> dict:
    doc, fan, digest = _load(args)
    pre_ok, pre_deg, method = precompleteness(fan)
    complete = is_complete(fan)
    results = {
        "rank": fan.rank,
        "rays": fan.n_rays,
        "top_cones": len(fan.cones),
        "faces_per_cardinality": {
            str(k): len(fan.faces_of_card(k)) for k in range(1, fan.rank + 1)
        },
        "pre_complete": pre_ok,
        "pre_completeness_method": method,
        "complete": complete,
        "degree": pre_deg if pre_ok else None,
        "supports": sorted(doc.supports),
    }
    checks = [{"name": "document-parses", "ok": True}]
    return _report("validate", {"file": args.file}, results, checks, input_sha256=digest)


def cmd_ehrhart(args) -> dict:
    _require("--nu-check", args.nu_check, 0)
    doc, fan, digest = _load(args)
    xi = _resolve_support(doc, args.support)
    n = fan.rank
    echo = {"file": args.file, "support": args.support, "nu_check": args.nu_check}
    checks = []
    try:
        coeffs = ehrhart_coefficients(fan, xi)
    except NotTCartier:
        dilations = []
        # --nu-check 0 reports the first three dilations without the brute force
        for nu in range(1, (args.nu_check or 3) + 1):
            scaled = [x * nu for x in xi]
            formula = count_formula(MultiPolytope(fan, scaled))
            dilations.append({"nu": nu, "count": formula})
            if not args.nu_check:
                continue
            brute = count_bruteforce(MultiPolytope(fan, scaled))
            checks.append(
                {
                    "name": f"dilation-{nu}-formula-equals-bruteforce",
                    "ok": formula == brute,
                    "formula": formula,
                    "bruteforce": brute,
                }
            )
        results = {
            "mode": "per-dilation-counts",
            "warning": (
                "support is not integral on every cone, so the lattice count "
                "is only dilation-periodic; reporting exact counts per dilation"
            ),
            "dilations": dilations,
        }
        return _report("ehrhart", echo, results, checks, input_sha256=digest)
    results = {
        "mode": "polynomial",
        "coefficients": [format_rational(a) for a in coeffs],
    }
    for nu in range(1, args.nu_check + 1):
        predicted = sum(coeffs[k] * Fraction(nu) ** (n - k) for k in range(n + 1))
        counted = count_bruteforce(MultiPolytope(fan, [x * nu for x in xi]))
        checks.append(
            {
                "name": f"dilation-{nu}-polynomial-equals-count",
                "ok": predicted == counted,
                "predicted": format_rational(predicted),
                "counted": counted,
            }
        )
    return _report("ehrhart", echo, results, checks, input_sha256=digest)


def cmd_count(args) -> dict:
    doc, fan, digest = _load(args)
    xi = _resolve_support(doc, args.support)
    face = _parse_indices(args.face, fan.n_rays, "--face") if args.face else ()
    echo = {"file": args.file, "support": args.support, "face": args.face or ""}
    if face:
        formula = count_face(MultiPolytope(fan, xi), face)
    else:
        formula = count_formula(MultiPolytope(fan, xi))
    brute = count_bruteforce(MultiPolytope(fan, xi, face))
    results = {
        "face": [i + 1 for i in face],
        "formula": formula,
        "bruteforce": brute,
        "t_cartier": SupportClass(xi).is_T_Cartier(fan),
    }
    checks = [
        {
            "name": "formula-equals-bruteforce",
            "ok": formula == brute,
            "formula": formula,
            "bruteforce": brute,
        }
    ]
    return _report("count", echo, results, checks, input_sha256=digest)


def cmd_volume(args) -> dict:
    doc, fan, digest = _load(args)
    xi = _resolve_support(doc, args.support)
    face = _parse_indices(args.face, fan.n_rays, "--face") if args.face else ()
    echo = {"file": args.file, "support": args.support, "face": args.face or ""}
    value = volume(MultiPolytope(fan, xi), face)
    results = {
        "face": [i + 1 for i in face],
        "volume": format_rational(value),
        "group_order": fan.group_of(face).order,
    }
    return _report("volume", echo, results, [], input_sha256=digest)


def cmd_todd(args) -> dict:
    doc, fan, digest = _load(args)
    rng = random.Random(args.seed)
    genus = todd_genus(fan, rng)
    degree = fan_degree(fan)
    n = fan.rank
    results = {
        "genus": format_rational(genus),
        "degree": degree,
        "rigidity": f"push-forward constant in t on orders -{n}..{n}",
    }
    checks = [
        {"name": "rigidity-window", "ok": True},
        {"name": "genus-equals-degree", "ok": genus == degree},
    ]
    return _report(
        "todd", {"file": args.file, "seed": args.seed}, results, checks,
        input_sha256=digest, seed=args.seed,
    )


def cmd_morelli(args) -> dict:
    _require("--planes", args.planes, 1)
    doc, fan, digest = _load(args)
    k = args.k
    rng = random.Random(args.seed)
    if args.xs == "faces":
        classes = [face_class(fan, J) for J in fan.faces_of_card(k)]
    else:
        classes = spanning_classes(fan, k)
    labels = [_class_label(cls) for cls in classes]
    xi = SupportClass(_resolve_support(doc, args.xi) if args.xi else [1] * fan.n_rays)
    faces = fan.faces_of_card(k)
    echo = {
        "file": args.file,
        "k": k,
        "planes": args.planes,
        "xs": args.xs,
        "xi": args.xi or "",
        "cohomology": args.cohomology,
        "seed": args.seed,
    }
    plane_reports = []
    checks = []
    for p in range(args.planes):
        plane = sample_generic_plane(fan, k, rng)
        tables = {}
        residuals = {}
        all_zero = True
        for label, cls in zip(labels, classes):
            mu = {J: morelli_coefficient(fan, cls, J, plane) for J in faces}
            tables[label] = {_face_label(J): format_rational(m) for J, m in mu.items()}
            if args.cohomology:
                res = cohomology_decomposition_residual(fan, cls, mu)
                residuals[label] = [format_rational(x) for x in res]
                all_zero = all_zero and all(x == 0 for x in res)
            else:
                res = face_decomposition_residual(fan, cls, xi, mu)
                residuals[label] = format_rational(res)
                all_zero = all_zero and res == 0
        plane_reports.append(
            {
                "basis": [list(b) for b in plane.basis],
                "rejected_candidates": plane.rejected,
                "certificates": list(plane.certificates),
                "mu": tables,
                "residuals": residuals,
            }
        )
        checks.append({"name": f"plane-{p}-residuals-zero", "ok": all_zero})
    results = {"classes": labels, "faces": [_face_label(J) for J in faces],
               "planes": plane_reports}
    return _report("morelli", echo, results, checks, input_sha256=digest, seed=args.seed)


def cmd_subdivide_check(args) -> dict:
    _require("--samples", args.samples, 1)
    echo = {
        "target": args.target,
        "ray": args.ray or "",
        "orders": args.orders,
        "samples": args.samples,
        "seed": args.seed,
    }
    extra = {"seed": args.seed}
    if os.path.exists(args.target):
        doc = load_document(args.target)
        fan = doc.fan()
        extra["input_sha256"] = _sha256(args.target)
        if args.ray:
            ray = tuple(int(t) for t in args.ray.split(","))
            if len(ray) != fan.rank:
                raise FanDocumentError(f"--ray: expected {fan.rank} coordinates")
            home = None
            for I in fan.cones:
                if all(dot(u, ray) > 0 for u in fan.dual_basis_of(I)):
                    home = I
                    break
            if home is None:
                raise RayNotInterior(f"{ray} is not strictly inside any top cone")
            parent = [fan.edge(i) for i in home]
            children = [
                [fan.edge(j) for j in home if j != i] + [ray] for i in home
            ]
        else:
            home = fan.cones[0]
            parent = [fan.edge(i) for i in home]
            children = [parent]
    else:
        parent = [
            tuple(int(t) for t in chunk.split(","))
            for chunk in args.target.split(";")
        ]
        if not parent or len({len(r) for r in parent}) != 1 or len(parent[0]) != len(parent):
            raise FanDocumentError(
                "inline cone must list n rays of n coordinates, 'x,y;x,y' style"
            )
        if args.ray:
            ray = tuple(int(t) for t in args.ray.split(","))
            if len(ray) != len(parent):
                raise FanDocumentError(f"--ray: expected {len(parent)} coordinates")
            if any(dot(u, ray) <= 0 for u in dual_basis(parent)):
                raise RayNotInterior(f"{ray} is not strictly inside the cone")
            children = [
                [r for j, r in enumerate(parent) if j != i] + [ray]
                for i in range(len(parent))
            ]
        else:
            children = [parent]
    check_subdivision_cover(parent, children)
    n = len(parent)
    high = args.orders if args.orders is not None else n
    _require("--orders", high, -n)
    rng = random.Random(args.seed)
    checks = []
    samples = []
    for s in range(args.samples):
        while True:
            v = tuple(rng.randint(-30, 30) for _ in range(n))
            try:
                res = subdivision_residual(parent, children, v, high)
            except MultiFanError:
                continue
            break
        coeffs = {
            str(m): format_rational(res.coefficient(m)) for m in range(-n, high + 1)
        }
        samples.append({"v": list(v), "residual": coeffs})
        checks.append(
            {"name": f"residual-zero-sample-{s}", "ok": res.is_zero_on(-n, high)}
        )
    results = {
        "parent": [list(r) for r in parent],
        "children": [[list(r) for r in child] for child in children],
        "orders": [-n, high],
        "samples": samples,
    }
    return _report("subdivide-check", echo, results, checks, **extra)


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="multifan",
        description="Exact computations on simplicial multi-fans and multi-polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a fan document and report its structure")
    p.add_argument("file")

    p = sub.add_parser("ehrhart", help="lattice-count coefficients of a support class")
    p.add_argument("file")
    p.add_argument("support", help="support name from the document, or inline d1,d2,...")
    p.add_argument("--nu-check", type=int, default=0, metavar="N",
                   help="cross-check counts for dilations 1..N by brute force (0: none)")

    p = sub.add_parser("count", help="count lattice points, formula against brute force")
    p.add_argument("file")
    p.add_argument("support")
    p.add_argument("--face", default="", help="1-based ray indices, comma separated")

    p = sub.add_parser("volume", help="volume of a multi-polytope or one of its faces")
    p.add_argument("file")
    p.add_argument("support")
    p.add_argument("--face", default="")

    p = sub.add_parser("todd", help="Todd genus with the rigidity verdict")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("morelli", help="decomposition coefficients and residual checks")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True, help="codimension of the faces")
    p.add_argument("--planes", type=int, default=1)
    p.add_argument("--xs", choices=("spanning", "faces"), default="spanning",
                   help="test classes: a spanning family or the face classes")
    p.add_argument("--xi", default="", help="support name for the evaluation side")
    p.add_argument("--cohomology", action="store_true",
                   help="check the decomposition on ordinary cohomology instead")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("subdivide-check",
                       help="additivity of the cone Todd series under star subdivision")
    p.add_argument("target", help="fan document path, or inline cone 'x,y;x,y'")
    p.add_argument("--ray", default="", help="subdivision ray, comma separated")
    p.add_argument("--orders", type=int, default=None, metavar="M",
                   help="check residual orders up to t^M (default: the rank)")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up by name on every call, so a replaced cmd_* function is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        report = handler(args)
    except (FanDocumentError, MultiFanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
