"""Command-line front end: evaluate elements, run suites, export graphs.

All numeric output is exact.  Reports print as canonical JSON on stdout;
progress lines go to stderr so redirected output stays byte-stable.  The
GERMLAB_BUDGET environment variable caps every enumeration that can blow
up, and a command that passes it exits 2.
"""

import json
import random
import sys
from fractions import Fraction

from .cantorv import V_GROUP, Cylinders, EventuallyPeriodic, compress_v
from .chabauty import BudgetError, SubgroupSpec, first_disagreements
from .cosets import neumann_sweep
from .fullgroups import quasi_isometry_check, schreier_patch
from .plcircle import F_GROUP, T_GROUP, ArcSet, compress, in_derived_F
from .projline import interval_compression_witness
from .scalars import Dyadic, _json_int
from .suites import (
    _TREE_RAY,
    available_suites,
    canonical_json,
    check_outcome,
    make_cocycle_check,
    make_elliptic_check,
    make_level_check,
    replay,
    run_suite,
)
from .treesgff import PermGroupPair, alternating_perms, cyclic_perms

_GROUPS = {"F": F_GROUP, "T": T_GROUP, "V": V_GROUP}


def _print_json(data, out=None):
    text = canonical_json(data)
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")


def _parse_arc_list(text):
    arcs = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        if not _:
            raise ValueError(f"arc {part!r} must look like lo:hi")
        arcs.append((Dyadic.parse(lo), Dyadic.parse(hi)))
    return ArcSet.of(*arcs)


def _parse_fraction_pair(text):
    lo, _, hi = text.partition(",")
    if not _:
        raise ValueError(f"interval {text!r} must look like lo,hi")
    try:
        return Fraction(lo), Fraction(hi)
    except ZeroDivisionError:
        raise ValueError(f"interval {text!r} has a zero denominator") from None


def _spell_word(group_name, word):
    group = _GROUPS[group_name]
    bad = set(word) - set(group.gens)
    if bad:
        raise ValueError(
            "letters %s not in group %s" % ("".join(sorted(bad)), group_name)
        )
    return group.spell(word)


def _parse_spec(text, group_name):
    """Subgroup spec grammar: whole | trivial | support:REGION |
    germ:POINT[;POINT..] | conj:WORD:SPEC (the inner spec pushed forward
    along the word, i.e. its conjugate by the word)."""
    if text == "whole":
        return SubgroupSpec.whole_group()
    if text == "trivial":
        return SubgroupSpec.trivial()
    if text.startswith("conj:"):
        word, _, rest = text[len("conj:"):].partition(":")
        if not _:
            raise ValueError(f"conjugate spec {text!r} must look like conj:WORD:SPEC")
        return SubgroupSpec.conjugate(
            _parse_spec(rest, group_name), _spell_word(group_name, word)
        )
    if text.startswith("support:"):
        body = text[len("support:"):]
        if group_name == "V":
            return SubgroupSpec.support_inside(Cylinders.of(*body.split("|")))
        return SubgroupSpec.support_inside(_parse_arc_list(body))
    if text.startswith("germ:"):
        body = text[len("germ:"):]
        points = []
        for item in body.split(";"):
            if group_name == "V":
                points.append(EventuallyPeriodic.parse(item))
            else:
                points.append(Dyadic.parse(item))
        return SubgroupSpec.identity_germ_at(*points)
    raise ValueError(
        "cannot parse subgroup spec %r; expected whole, trivial, "
        "support:..., germ:..., or conj:word:..." % text
    )


def _read_config_file(path):
    """Simple key-value lines: 'depth = 4' or 'depth 4'; '#' comments."""
    config = {}
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, value = line.partition("=")
            else:
                key, _, value = line.partition(" ")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            config[key] = int(value)
    return config


# -- subcommand bodies -------------------------------------------------------

def _cmd_eval(args):
    g = _spell_word(args.group, args.word)
    if args.group in ("F", "T"):
        if args.at is None:
            raise ValueError("--at is required for groups F and T")
        print(str(g(Dyadic.parse(args.at))))
        return 0
    if args.cylinder is None:
        raise ValueError("--cylinder is required for group V")
    image = Cylinders.of(args.cylinder).image(g)
    print(",".join(image.words))
    return 0


def _cmd_compress(args):
    if args.cylinder is not None:
        if args.target is None:
            raise ValueError("--target is required with --cylinder")
        g = compress_v(args.cylinder, args.target)
        complement = Cylinders.of(args.cylinder).complement()
        _print_json({
            "rules": [list(rule) for rule in g.rules],
            "image": list(complement.image(g).words),
        })
        return 0
    if args.arcs is None or args.beta is None or args.alpha is None:
        raise ValueError("need --arcs, --beta and --alpha (or --cylinder/--target)")
    region = _parse_arc_list(args.arcs)
    g = compress(region, Dyadic.parse(args.beta), Dyadic.parse(args.alpha))
    _print_json({
        "map": g.to_json(),
        "pieces": len(g.pieces),
        "in_derived": in_derived_F(g),
        "image": [[str(lo), str(hi)] for lo, hi in region.image(g).arcs],
    })
    return 0


def _cmd_compress_proj(args):
    word = interval_compression_witness(
        _parse_fraction_pair(args.i1), _parse_fraction_pair(args.i2), args.max_len
    )
    _print_json({"word": word})
    return 0 if word is not None else 1


def _cmd_chabauty(args):
    group = _GROUPS[args.group]
    h_spec = _parse_spec(args.h, args.group)
    k_spec = _parse_spec(args.k, args.group)
    words = list(first_disagreements(h_spec, k_spec, group, args.radius))
    agree = len(words[0]) - 1 if words else args.radius
    _print_json({"agree_radius": agree, "witness_elements": sorted(words)})
    return 0


def _cmd_neumann(args):
    _print_json(neumann_sweep(args.n, args.r))
    return 0


def _cmd_schreier(args):
    u = Cylinders.of(args.u)
    x = EventuallyPeriodic.parse(args.x)
    patch = schreier_patch(u, args.s_bound, x, args.radius)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(patch.to_dot())
    _print_json(quasi_isometry_check(patch))
    return 0


def _cmd_tree_verify(args):
    if args.f != "cycle" or args.fprime != "alt":
        raise ValueError("supported point groups: --f cycle --fprime alt")
    # the d! gate of the large group runs before the cyclic group's d^2 entries
    large = alternating_perms(args.omega)
    pair = PermGroupPair(args.omega, cyclic_perms(args.omega), large)
    if args.suite == "cocycle":
        fn = make_cocycle_check(pair, args.count, args.depth)
    elif args.suite == "germ":
        fn = make_elliptic_check(pair, _TREE_RAY, args.count)
    else:
        fn = make_level_check(pair, _TREE_RAY, args.depth, 4)
    status, witness = check_outcome(fn, random.Random(args.seed))
    _print_json({"suite": args.suite, "status": status, "witness": witness})
    return 0 if status == "pass" else 1


def _cmd_verify(args):
    config = {}
    if args.config:
        config.update(_read_config_file(args.config))
    for item in args.set or []:
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"--set needs key=value, got {item!r}")
        config[key.strip()] = int(value)
    report = run_suite(args.suite, config, args.seed)
    for record in report.checks:
        line = "[%s] %s (%.1f ms)" % (
            record["status"], record["id"], report.elapsed_ms[record["id"]]
        )
        print(line, file=sys.stderr)
    _print_json(report.to_json(), args.out)
    return 0 if report.all_pass() else 1


def _cmd_replay(args):
    with open(args.report, encoding="ascii") as fh:
        # integers of any length, as verify writes them
        report = json.load(fh, parse_int=lambda text: _json_int(text, "report"))
    record = replay(report, args.check_id)
    _print_json(record)
    return 0 if record["status"] == "pass" else 1


def build_parser():
    # imported here, so that importing the module does not load argparse
    import argparse

    parser = argparse.ArgumentParser(
        prog="germlab",
        description="Exact-arithmetic checks for groups acting on the circle, "
        "the Cantor set, the line and trees.",
        epilog="GERMLAB_BUDGET caps every enumeration that can blow up (default 200000).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a generator word at a point")
    p.add_argument("--group", required=True, choices=_GROUPS)
    p.add_argument("--word", required=True,
                   help="generator letters, capitals for inverses")
    p.add_argument("--at", help="dyadic point for F and T, e.g. 3/8")
    p.add_argument("--cylinder", help="binary word for V, e.g. 01")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("compress", help="squeeze a region into a small target")
    p.add_argument("--arcs", help="circle arcs lo:hi[,lo:hi...], dyadic endpoints")
    p.add_argument("--beta", help="target arc start (through 0)")
    p.add_argument("--alpha", help="target arc end")
    p.add_argument("--cylinder", help="binary word: compress its complement")
    p.add_argument("--target", help="binary word the complement lands in")
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("compress-proj",
                       help="shortest word moving interval I1 inside I2")
    p.add_argument("--i1", required=True, help="source interval a,b (rationals)")
    p.add_argument("--i2", required=True, help="target interval c,d (rationals)")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(fn=_cmd_compress_proj)

    p = sub.add_parser("chabauty",
                       help="agreement radius of two subgroup truncations")
    p.add_argument("--group", required=True, choices=_GROUPS)
    p.add_argument("--h", required=True, help="subgroup spec (see below)")
    p.add_argument("--k", required=True, help="subgroup spec: whole | trivial | "
                   "support:REGION | germ:POINT[;POINT] | conj:WORD:SPEC "
                   "(SPEC pushed forward along WORD)")
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(fn=_cmd_chabauty)

    p = sub.add_parser("neumann", help="exhaustive coset-cover index sweep")
    p.add_argument("--n", type=int, required=True, help="largest cyclic order")
    p.add_argument("--r", type=int, required=True, help="largest cover size")
    p.set_defaults(fn=_cmd_neumann)

    p = sub.add_parser("schreier", help="orbit patch of a clopen set, as DOT")
    p.add_argument("--u", default="", help="binary cylinder word, empty for all")
    p.add_argument("--x", required=True,
                   help="base point as preperiod,period or preperiod(period) "
                        "digits, lowest first, e.g. 01,0 or 01(0)")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--s-bound", type=int, default=1, dest="s_bound",
                   help="generating radius of the acting shifts")
    p.add_argument("--out", required=True, help="DOT file to write")
    p.set_defaults(fn=_cmd_schreier)

    p = sub.add_parser("tree-verify", help="tree automorphism check batteries")
    p.add_argument("--omega", type=int, default=5, help="vertex degree")
    p.add_argument("--f", default="cycle", help="small point group (cycle)")
    p.add_argument("--fprime", default="alt", help="large point group (alt)")
    p.add_argument("--suite", required=True, choices=["cocycle", "germ", "levels"])
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_tree_verify)

    p = sub.add_parser("verify", help="run a named suite, print its report")
    p.add_argument("suite", help="one of: %s" % ", ".join(available_suites()))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="key-value text file of integer overrides")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="single config override, repeatable")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("replay", help="re-run one check from a saved report")
    p.add_argument("report", help="path to a report JSON file")
    p.add_argument("check_id", help="check id from the report")
    p.set_defaults(fn=_cmd_replay)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, BudgetError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
