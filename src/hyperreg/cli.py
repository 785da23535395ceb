"""Command-line entry points.

Exit codes: 0 = pass, 1 = check failed or construction failed (with a
report on stdout), 2 = bad input (parse errors name line numbers).  Every
randomized command requires an explicit --seed; there is no ambient
entropy anywhere.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .addresses import AddressVector, in_address_space
from .counting import ic, ic_family
from .errors import CapabilityError, ConstructionError, InputError
from .hypergraph import (
    all_iso_classes,
    count_induced,
    induce,
    kgraph_from_text,
    kgraph_to_text,
)
from .partitions import family_from_text, family_to_text
from .regularity import (
    DensityFunction,
    RegularityInstance,
    check_instance_witness,
    instance_from_text,
    instance_to_text,
)
from .sampling import (
    check_transfer_args,
    induce_family,
    run_transfer_experiment,
    sample_vertices,
    stats_to_csv,
)
from .transforms import (
    PlantSpec,
    equalize,
    plant,
    reconstruct,
    refine_family,
)
from .transforms import slice as slice_edges


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}") from exc


def _int_vector(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad integer vector {text!r}") from exc


# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.density_file:
        R = instance_from_text(_read(args.density_file))
        if args.a and tuple(R.a) != _int_vector(args.a):
            raise InputError("--a disagrees with the density file")
    else:
        if not (args.a and args.density):
            raise InputError("need either --density-file or --a with --density")
        a = _int_vector(args.a)
        d = DensityFunction.constant(a, _fraction(args.density))
        R = RegularityInstance(_fraction(args.epsilon), a, d)
    if args.k and R.k != args.k:
        raise InputError(f"--k {args.k} disagrees with k={R.k} of the instance")
    H, F, eps_hat = plant(
        PlantSpec(R, args.n, args.seed, measure_epsilon=args.measure)
    )
    _write(args.out + ".hg", kgraph_to_text(H))
    _write(args.out + ".pf", family_to_text(F))
    _write(args.out + ".ri", instance_to_text(R))
    if args.measure:
        print(f"achieved_epsilon {eps_hat}")
    return 0


def cmd_check(args) -> int:
    H = kgraph_from_text(_read(args.hypergraph))
    R = instance_from_text(_read(args.instance))
    F = family_from_text(_read(args.family))
    report = check_instance_witness(H, R, F, trials=args.trials, seed=args.seed)
    for f in report.failures:
        print(f)
    print(f"witness {'pass' if report.ok else 'fail'} "
          f"worst_deviation {report.worst_deviation}")
    return 0 if report.ok else 1


def cmd_count(args) -> int:
    if args.ic:
        if not args.instance:
            raise InputError("count --ic needs --instance")
        if not args.pattern and args.all_classes is None:
            raise InputError("count --ic needs --pattern or --all-classes")
        if args.all_classes is not None and args.all_classes < 1:
            raise InputError(f"--all-classes {args.all_classes} must be >= 1")
        R = instance_from_text(_read(args.instance))
        if args.all_classes is not None:
            if args.all_classes > R.a[0]:
                raise InputError(f"--all-classes {args.all_classes} exceeds a1={R.a[0]}")
            fam = all_iso_classes(args.all_classes, R.k)
            print(f"ic_family {ic_family(fam, R.d)}")
        else:
            F = kgraph_from_text(_read(args.pattern))
            print(f"ic {ic(F, R.d).total}")
        return 0
    for flag in ("pattern", "hypergraph"):
        if not getattr(args, flag):
            raise InputError(f"count needs --{flag}")
    F = kgraph_from_text(_read(args.pattern))
    H = kgraph_from_text(_read(args.hypergraph))
    print(f"pr {count_induced(F, H)}")
    return 0


def cmd_slice(args) -> int:
    H = kgraph_from_text(_read(args.hypergraph))
    F = family_from_text(_read(args.family))
    x = AddressVector.decode(args.address)
    if not in_address_space(x, F.k, F.k - 1, F.a):
        raise InputError(f"address {args.address} names no top-level polyad")
    probs = [_fraction(p) for p in args.probs.split(",")]
    try:
        classes = slice_edges(
            H, F.polyad(x), _fraction(args.d), _fraction(args.epsilon),
            probs, args.seed, recheck=not args.no_recheck, trials=args.trials,
        )
    except ConstructionError as exc:
        print(f"slice fail {exc}")
        return 1
    for i, cl in enumerate(classes):
        _write(f"{args.out}.{i}.hg", kgraph_to_text(cl))
    return 0


def cmd_refine(args) -> int:
    F = family_from_text(_read(args.family))
    out = refine_family(F, _int_vector(args.b), args.seed)
    _write(args.out, family_to_text(out))
    return 0


def cmd_equalize(args) -> int:
    F = family_from_text(_read(args.family))
    try:
        out = equalize(F)
    except ConstructionError as exc:
        print(f"equalize fail {exc}")
        return 1
    _write(args.out, family_to_text(out))
    return 0


def cmd_reconstruct(args) -> int:
    O = family_from_text(_read(args.family))
    P = family_from_text(_read(args.refined))
    out = reconstruct(O, P, _fraction(args.nu))
    _write(args.out, family_to_text(out))
    return 0


def cmd_sample(args) -> int:
    H = kgraph_from_text(_read(args.hypergraph))
    F = family_from_text(_read(args.family)) if args.family else None
    if F is not None and F.n != H.n:
        raise InputError(f"family n={F.n} differs from hypergraph n={H.n}")
    Q = sample_vertices(H.n, args.q, args.seed)
    _write(args.out + ".hg", kgraph_to_text(induce(H, Q)))
    if F is not None:
        _write(args.out + ".pf", family_to_text(induce_family(F, Q)))
    return 0


def cmd_experiment(args) -> int:
    R = instance_from_text(_read(args.instance))
    qs, delta = _int_vector(args.q), _fraction(args.delta)
    # every q and the output directory are checked before the first trial runs
    if len(set(qs)) != len(qs):
        raise InputError(f"--q {args.q} repeats a sample size")
    for q in qs:
        check_transfer_args(R, args.n, q, delta, args.trials)
    folder = os.path.dirname(args.out) or "."
    if not os.path.isdir(folder):
        raise InputError(f"output directory {folder} does not exist")
    print("q,q1_rate,q2_rate")
    for q in qs:
        # one seed for every q: each q sees the same plantings
        stats = run_transfer_experiment(R, args.n, q, delta, args.trials, args.seed)
        _write(f"{args.out}.q{q}.csv", stats_to_csv(stats))
        print(f"{q},{stats.q1_rate()},{stats.q2_rate()}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hyperreg",
        description="Hypergraph regularity structures: generate, check, "
        "count, transform, and run sampling experiments.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def seeded(p):
        p.add_argument("--seed", type=int, required=True,
                       help="64-bit master seed (required; no ambient entropy)")

    p = sub.add_parser("gen", help="plant a hypergraph + witness family")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", help="comma-separated shape, e.g. 4,2")
    p.add_argument("--density-file", help="instance (.ri) file with densities")
    p.add_argument("--density", help="constant density as p/q")
    p.add_argument("--epsilon", default="1/10")
    p.add_argument("--measure", action="store_true")
    p.add_argument("--out", required=True, help="output path prefix")
    seeded(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="verify a witness family for an instance")
    p.add_argument("--hypergraph", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--trials", type=int, default=40)
    seeded(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("count", help="induced-copy shares and predictions")
    p.add_argument("--pattern")
    p.add_argument("--hypergraph")
    p.add_argument("--ic", action="store_true")
    p.add_argument("--instance")
    p.add_argument("--all-classes", type=int,
                   help="sum the prediction over all classes on this many vertices")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("slice", help="randomly slice edges at a polyad")
    p.add_argument("--hypergraph", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--address", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--probs", required=True)
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--no-recheck", action="store_true")
    p.add_argument("--out", required=True)
    seeded(p)
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("refine", help="refine a family to a finer shape")
    p.add_argument("--family", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    seeded(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("equalize", help="rebalance vertex classes")
    p.add_argument("--family", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_equalize)

    p = sub.add_parser("reconstruct", help="exact refinement from a nu-refinement")
    p.add_argument("--family", required=True, help="the coarse family O")
    p.add_argument("--refined", required=True, help="the nu-refining family P")
    p.add_argument("--nu", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("sample", help="uniform vertex sample, induced objects")
    p.add_argument("--hypergraph", required=True)
    p.add_argument("--family")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", required=True)
    seeded(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("experiment", help="transfer experiment over sample sizes")
    p.add_argument("--instance", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True, help="comma-separated sample sizes, e.g. 50,100")
    p.add_argument("--delta", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--out", required=True, help="output path prefix: {out}.q{q}.csv")
    seeded(p)
    p.set_defaults(func=cmd_experiment)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, CapabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"fail: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
