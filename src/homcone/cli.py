"""Command-line front end.

Subcommands mirror the library workflow: inspect a graph's symmetries,
enumerate subgroups, run Bayesian model selection over the distinct
symmetry models, print fitted concentration tables, evaluate the cone
functionals at a point, and run the built-in verification suites.

Exit codes: 0 success, 2 input error, 3 model-precondition error,
4 capability error (no block realization could be derived for a model),
5 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import cone
from .butterfly import butterfly_graph
from .errors import (
    CapabilityError,
    DualMembershipError,
    HomconeError,
    HomogeneityError,
    IntegrabilityError,
)
from .graphs import (
    automorphism_group,
    automorphisms,
    check_subgroup_order,
    enumerate_subgroups,
    group_of_elements,
    is_homogeneous_graph,
    load_graph,
)
from .selection import (
    Hyperparams,
    build_butterfly_models,
    build_models,
    exam_marks_summary,
    fit_concentration,
    fit_concentration_mle,
    load_scatter_json,
    posterior,
    score_terms,
    summarize_data,
)
from .verify import run_verification

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_CAPABILITY = 4
EXIT_VERIFY = 5


def _is_number(tok) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _load_rows_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        records = [record for record in csv.reader(fh) if record]
    if records and not any(_is_number(tok) for tok in records[0]):
        del records[0]  # header line: no cell is a number
    if not records:
        raise ValueError(f"no numeric rows in {path}")
    return np.array([[float(tok) for tok in record] for record in records])


def _resolve_graph(args):
    if args.graph:
        return load_graph(args.graph)
    return butterfly_graph()


def _resolve_data(args, p):
    if sum(map(bool, (args.data, args.scatter, args.fixture))) != 1:
        raise ValueError("provide exactly one of --data, --scatter, --fixture")
    if args.no_center and not args.data:
        raise ValueError("--no-center applies to --data only")
    if args.fixture:
        if args.fixture != "exam-marks":
            raise ValueError(f"unknown fixture {args.fixture!r} (available: exam-marks)")
        return exam_marks_summary()
    if args.scatter:
        return load_scatter_json(args.scatter)
    rows = _load_rows_csv(args.data)
    if rows.shape[1] != p:
        raise ValueError(f"data has {rows.shape[1]} columns, graph has {p} vertices")
    return summarize_data(rows, center=not args.no_center)


def _resolve_scale(args, p):
    if args.scale_file:
        with open(args.scale_file, "r", encoding="utf-8") as fh:
            try:
                return np.asarray(json.load(fh), dtype=float)
            except TypeError:  # an object, or an array holding one
                raise ValueError("--D must hold a JSON array of numbers") from None
    return np.diag(np.full(p, args.d_scale))  # not d * eye: inf * 0 is NaN


def _automorphism_group(graph):
    """Aut(graph), refused past the subgroup enumeration limit before its
    |Aut|^2 multiplication table is built."""
    elements = automorphisms(graph)
    check_subgroup_order(len(elements))
    return group_of_elements(graph.vertex_count, elements)


def _resolve_models(args):
    """The built-in G1..G7 models, or with --graph one model per distinct
    space of the subgroups of Aut(graph), labelled H1..Hn in
    enumerate_subgroups order."""
    graph = _resolve_graph(args)
    if not is_homogeneous_graph(graph):
        raise HomogeneityError(
            "model selection needs a homogeneous graph "
            "(chordal with no induced 4-vertex path)"
        )
    if not args.graph:
        return graph, build_butterfly_models()
    subgroups = enumerate_subgroups(_automorphism_group(graph))
    return graph, build_models(graph, {f"H{i}": h for i, h in enumerate(subgroups, start=1)})


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def cmd_aut(args) -> int:
    graph = _resolve_graph(args)
    group = automorphism_group(graph)
    gens = ", ".join(g.cycle_string() for g in group.generators) or "e"
    print(f"order {group.order}; generators {gens}")
    return EXIT_OK


def cmd_subgroups(args) -> int:
    group = _automorphism_group(_resolve_graph(args))
    subs = enumerate_subgroups(group)
    print(f"{len(subs)} subgroups of the automorphism group (order {group.order})")
    for i, h in enumerate(subs, start=1):
        gens = ", ".join(g.cycle_string() for g in h.generators) or "e"
        print(f"#{i}: order {h.order}; generators {gens}")
    return EXIT_OK


def cmd_select(args) -> int:
    graph, models = _resolve_models(args)
    data = _resolve_data(args, graph.vertex_count)
    hyper = Hyperparams(delta=args.delta, scale=_resolve_scale(args, graph.vertex_count))
    report = posterior(models, data, hyper)
    if args.output == "json":
        print(_dump_json(report.to_json_dict()))
    else:
        print(report.render_table())
    return EXIT_OK


def _format_fit_table(k, labels) -> str:
    width = max(8, *(len(s) + 2 for s in labels))  # room for -123.45 under short labels
    header = " " * width + "".join(f"{s:>{width}}" for s in labels)
    lines = [header]
    for i, row_label in enumerate(labels):
        cells = []
        for j in range(len(labels)):
            v = k[i, j] * 1e3
            cells.append(f"{'0':>{width}}" if v == 0.0 else f"{v:>{width}.2f}")
        lines.append(f"{row_label:<{width}}" + "".join(cells))
    return "\n".join(lines)


def cmd_fit(args) -> int:
    graph, models = _resolve_models(args)
    by_label = {m.label: m for m in models}
    if args.model not in by_label:
        raise ValueError(f"unknown model {args.model!r}; available: {sorted(by_label)}")
    data = _resolve_data(args, graph.vertex_count)
    fit = fit_concentration_mle if args.mle else fit_concentration
    k = fit(by_label[args.model], data)
    if args.output == "json":
        print(_dump_json({"model_id": args.model, "concentration": k.tolist()}))
    else:
        print(f"fitted concentrations x 10^3, model {args.model}")
        print(_format_fit_table(k, list(graph.labels)))
    return EXIT_OK


def cmd_constants(args) -> int:
    graph, models = _resolve_models(args)
    hyper = Hyperparams(delta=args.delta, scale=_resolve_scale(args, graph.vertex_count))
    wanted = args.model.split(",") if args.model is not None else [m.label for m in models]
    known = {m.label for m in models}
    unknown = [w for w in wanted if w not in known]
    if unknown:
        raise ValueError(f"unknown models {unknown}; available: {sorted(known)}")
    chosen = [m for m in models if m.label in wanted]
    rows = [
        {"model_id": m.label, "dim": m.space.dim, **terms._asdict(), "log_I": terms.log_I}
        for m, (terms,) in zip(chosen, score_terms(chosen, [hyper]))
    ]
    if args.output == "json":
        print(_dump_json({"models": rows}))
    else:
        print(f"{'model':<8}{'dim':>4}{'log_gamma':>14}{'log_delta':>14}"
              f"{'log_phi':>14}{'log_I':>14}")
        for r in rows:
            print(f"{r['model_id']:<8}{r['dim']:>4}{r['log_gamma']:>14.6f}"
                  f"{r['log_delta']:>14.6f}{r['log_phi']:>14.6f}{r['log_I']:>14.6f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_verification(args.level, samples=args.samples, seed=args.seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        mark = "ok" if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", help="graph JSON file (default: built-in benchmark)")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", help="CSV of observations, one row each")
    data.add_argument("--scatter", help="JSON scatter object")
    data.add_argument("--fixture", help="named built-in data set (exam-marks)")
    data.add_argument("--no-center", action="store_true",
                      help="do not center the --data observations")
    prior = argparse.ArgumentParser(add_help=False)
    prior.add_argument("--delta", type=float, default=3.0,
                       help="prior shape parameter (> 2, default 3)")
    scale = prior.add_mutually_exclusive_group()
    scale.add_argument("--d-scale", type=float, default=1.0,
                       help="prior scale is this multiple of the identity (default 1)")
    scale.add_argument("--D", dest="scale_file",
                       help="prior scale matrix as a JSON file (not with --d-scale)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", choices=("table", "json"), default="table")

    parser = argparse.ArgumentParser(
        prog="homcone",
        description="Bayesian selection of permutation-invariant Gaussian "
        "graphical models on homogeneous graphs",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="dump solver iteration records to stderr as JSON lines "
                             "(verify only)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    add("aut", cmd_aut, "automorphism group of a graph", graph)
    add("subgroups", cmd_subgroups, "all subgroups of the automorphism group", graph)
    add("select", cmd_select, "posterior probabilities over symmetry models",
        graph, data, prior, output)

    p_fit = add("fit", cmd_fit, "fitted concentration table for one model",
                graph, data, output)
    p_fit.add_argument("--model", required=True, help="model id, e.g. G3")
    p_fit.add_argument("--mle", action="store_true",
                       help="use the restricted-likelihood maximizer instead of the "
                            "symmetry-projected estimate")

    p_const = add("constants", cmd_constants,
                  "log gamma / delta / phi / I at the prior point", graph, prior, output)
    p_const.add_argument("--model", help="comma-separated model ids (default: all)")

    p_ver = add("verify", cmd_verify, "run the self-check suites")
    p_ver.add_argument("--level", choices=("fast", "mc"), default="fast")
    p_ver.add_argument("--samples", type=int,
                       help="Monte Carlo sample count (--level mc only)")
    p_ver.add_argument("--seed", type=int, help="Monte Carlo seed (--level mc only)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verbose:
            if args.command != "verify":
                raise ValueError("-v applies to verify only")
            cone.set_newton_trace(
                lambda record: print(json.dumps(record, sort_keys=True), file=sys.stderr)
            )
        return args.func(args)
    except (HomogeneityError, IntegrabilityError, DualMembershipError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (HomconeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        cone.set_newton_trace(None)


if __name__ == "__main__":
    sys.exit(main())
