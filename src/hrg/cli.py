"""Command-line interface.

Subcommands: ``generate`` (coordinates + edges for one seed), ``analyze``
(JSON report from files), ``sweep`` (CSV table from a JSON config), and
``verify`` (self-check suite). Exit codes: 0 success, 1 check failures,
2 usage errors, 3 I/O failures, 4 inconsistent data files. An output path
that names another of the command's files is a usage error.

``generate`` writes the coordinate file in one forked child while the
parent builds the graph and writes the edge file, so it needs POSIX
``os.fork``. On exit 3 either file may be incomplete, and a failed
coordinate write no longer keeps the edge file from being written.

``analyze`` has two shapes. When the coordinate header fixes the point
count (fixed mode, a file that can be read ahead and holds enough bytes
for that many rows), one forked child reads the coordinate file while
the parent reads the edge file, builds the graph and finds its
components and their diameters; only the points come back, and the
core's record, the bands, the degrees and the report follow the join.
Otherwise (a Poisson header, a pipe, a header claiming more rows than
the file holds) it reads the coordinate file, then the edge file, in one
process. Either way the errors keep the order of a serial read: the
coordinate file's, then ``alpha >= 1`` (exit 2), then the edge file's.

``verify`` also forks one child, for the checks that take only the seed
(underpass and core, file round-trip, the sampler tests), while the
parent runs the checks that share one generator, in draw order, the lens
measure and the ``--coords``/``--edges`` checks. The lines print in one
order whichever process ran them.

A forked child's exception comes out of the parent as itself, and
``main`` alone maps ``UsageError``, ``OSError`` and ``DataFormatError``
to exit codes 2, 3 and 4; any other exception propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

EXIT_OK = 0
EXIT_CHECKS = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4


class UsageError(Exception):
    """A flag or an input model the command cannot run with (exit 2). It
    carries only its message, so that it pickles across a fork."""


def _one_file(first: str, second: str) -> bool:
    """Whether two paths name one regular file, hard links included, or one
    path that does not exist yet; a device such as /dev/null may be named
    twice."""
    if os.path.isfile(first):
        return os.path.exists(second) and os.path.samefile(first, second)
    return not os.path.exists(first) and os.path.realpath(first) == os.path.realpath(second)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrg",
        description="Hyperbolic random graphs: generation, analysis, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample one graph and write its files")
    gen.add_argument("--n", type=int, required=True, help="target node count")
    gen.add_argument("--alpha", type=float, default=0.75, help="radial density exponent")
    gen.add_argument("--c-param", type=float, default=0.0, help="disc radius offset C")
    gen.add_argument("--seed", type=int, default=0, help="random seed")
    gen.add_argument(
        "--poisson", action="store_true", help="draw the point count from Poisson(n)"
    )
    gen.add_argument("--out-coords", required=True, help="coordinate TSV output path")
    gen.add_argument("--out-edges", required=True, help="edge TSV output path")

    ana = sub.add_parser("analyze", help="analyze coordinate + edge files")
    ana.add_argument("--coords", required=True, help="coordinate TSV input path")
    ana.add_argument("--edges", required=True, help="edge TSV input path")
    ana.add_argument("--report", help="JSON report output path (default stdout)")
    ana.add_argument("--inner-c", type=float, default=1.0, help="inner band constant c")

    swp = sub.add_parser("sweep", help="run a sweep from a JSON config")
    swp.add_argument("--config", required=True, help="JSON sweep config path")
    swp.add_argument("--jobs", type=int, help="parallel cells (overrides the config's jobs)")
    swp.add_argument("--out", help="CSV output path (default stdout)")

    ver = sub.add_parser("verify", help="run the self-check suite")
    ver.add_argument("--quick", action="store_true", help="reduced sample sizes")
    ver.add_argument("--seed", type=int, help="seed for the randomized checks")
    ver.add_argument("--coords", help="also validate this coordinate file")
    ver.add_argument("--edges", help="edge file that must match --coords")
    return parser


def _cmd_generate(args) -> int:
    from ._fork import fork_call
    from .files import write_coords, write_edges
    from .geometry import ModelParams
    from .graphgen import build_banded
    from .sampling import sample_fixed, sample_poisson

    if args.seed < 0:
        raise UsageError(f"seed must be non-negative, got {args.seed}")
    try:
        params = ModelParams(args.n, args.alpha, args.c_param)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if _one_file(args.out_coords, args.out_edges):
        raise UsageError("--out-coords and --out-edges name the same file")
    sampler = sample_poisson if args.poisson else sample_fixed
    try:
        ps = sampler(params, args.seed)
    except ValueError as exc:  # a Poisson count above the node limit
        raise UsageError(str(exc)) from exc
    # The coordinate file depends only on the sample: one forked child writes
    # it while this process builds the graph and writes the edge file.
    with open(args.out_coords, "w", encoding="utf-8") as coords_fh:

        def write_coordinate_file():
            write_coords(coords_fh, ps)
            coords_fh.close()

        def build_and_write_edges():
            g = build_banded(ps)
            with open(args.out_edges, "w", encoding="utf-8") as fh:
                write_edges(fh, g)
            return g

        g, _ = fork_call(write_coordinate_file, build_and_write_edges, "coordinate writer")
    print(f"wrote {len(ps)} points and {g.m} edges (mode={ps.mode}, R={params.R:.6g})")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from ._fork import fork_call
    from .analysis import component_structure, inner_band_radius
    from .files import build_report, dump_report, fixed_point_count, read_coords, read_edges
    from .graphgen import Graph

    if not math.isfinite(args.inner_c):
        raise UsageError(f"--inner-c must be finite, got {args.inner_c!r}")
    if args.report and (_one_file(args.report, args.coords) or _one_file(args.report, args.edges)):
        raise UsageError("--report names the same file as --coords or --edges")
    with open(args.coords, "r", encoding="utf-8") as coords_fh:
        count = fixed_point_count(coords_fh)

        def read_points():
            ps = read_coords(coords_fh)
            try:
                inner_band_radius(ps.params)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            return ps

        def build_graph():
            with open(args.edges, "r", encoding="utf-8") as fh:
                g = Graph.from_edge_array(count, *read_edges(fh, count))
            return g, component_structure(g)

        if count is None:  # a Poisson header, a pipe or a count the file cannot hold
            ps = read_points()
            with open(args.edges, "r", encoding="utf-8") as fh:
                g, structure = Graph.from_edge_array(ps, *read_edges(fh, len(ps))), None
        else:
            # the child reads the points while this process builds the graph;
            # the child's error is raised first, as in the serial read
            (g, structure), ps = fork_call(read_points, build_graph, "coordinate reader")
            g = g.with_points(ps)
    report = build_report(g, inner_c=args.inner_c, structure=structure)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            dump_report(report, fh)
    else:
        dump_report(report, sys.stdout)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    import dataclasses

    from .experiments import SweepConfig, run_sweep, write_sweep_csv

    if args.out and _one_file(args.out, args.config):
        raise UsageError("--out names the same file as --config")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = SweepConfig.from_json(fh)
        if args.jobs is not None:
            config = dataclasses.replace(config, jobs=args.jobs)
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError(f"bad config: {exc}") from exc
    # opened before the cells run, so that a path it cannot write fails first
    out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    with out as fh:
        records = run_sweep(config)
        write_sweep_csv(records, fh)
    failures = [rec for rec in records if rec.failed]
    for rec in failures:
        print(f"cell n={rec.n} seed={rec.seed} failed: {rec.error}", file=sys.stderr)
    return EXIT_CHECKS if failures else EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_verify

    if bool(args.coords) != bool(args.edges):
        raise UsageError("--coords and --edges must be given together")
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"seed must be non-negative, got {args.seed}")
    results, code = run_verify(
        quick=args.quick, seed=args.seed, coords=args.coords, edges=args.edges
    )
    for result in results:
        print(result.line())
    total = len(results)
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{total} checks passed")
    return code


def main(argv=None) -> int:
    from .files import DataFormatError

    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "analyze": _cmd_analyze,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"hrg {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"hrg {args.command}: inconsistent data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"hrg {args.command}: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
