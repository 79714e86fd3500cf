"""Batch command-line interface.

Subcommands: networks, features, rank, classify, synth, class-table.  Exit codes:
0 success, 1 input error (an InputError or an OSError), 2 any other failure, a bug.
Each command derives a RunManifest from its semantic inputs; --manifest prints it
and exits without writing anything.
"""

from __future__ import annotations

import argparse
import os
import sys
import unicodedata

from . import __version__
from .census import get_class_table
from .ingest import parse_window_bound, read_corpus, read_terms_file
from .manifest import InputError, RunManifest, file_sha256, json_text
from .pipeline import (
    SUMMARY_NAME,
    classify_datasets,
    compute_features,
    read_features_csv,
    read_summary,
    write_features_csv,
    write_networks,
)
from .ranking import (
    CONTROVERSIAL,
    DEFAULT_THRESHOLD,
    aggregate_ratings,
    partition_terms,
    read_ratings_csv,
    write_labels_csv,
    read_labels_csv,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; usage errors are input errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="termnet", description="Term interaction networks, subgraph census, classification.")
    parser.add_argument("--version", action="version", version=f"termnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_net = sub.add_parser("networks", parents=[], help="build per-term interaction networks from records")
    p_net.add_argument("records", help="interaction records file, JSONL (.gz accepted; not a pipe)")
    p_net.add_argument("terms", help="terms file, one per line ('#' = hashtag, '//' = comment)")
    p_net.add_argument("--from", dest="window_from", default=None, metavar="ISO", help="keep records at/after this UTC instant (bare date = start of day)")
    p_net.add_argument("--to", dest="window_to", default=None, metavar="ISO", help="keep records at/before this UTC instant (bare date = end of day)")
    p_net.add_argument("-o", "--outdir", required=True)
    p_net.add_argument("--manifest", action="store_true", help="print the run manifest and exit")

    p_feat = sub.add_parser("features", help="global metrics and subgraph census per network")
    p_feat.add_argument("networks_dir")
    p_feat.add_argument("-o", "--out", required=True)
    p_feat.add_argument("--workers", type=int, default=1, help="ignored: the process count is the number of usable cores (must be >= 1)")
    p_feat.add_argument("--manifest", action="store_true", help="print the run manifest and exit")

    p_rank = sub.add_parser("rank", help="aggregate ratings and label terms")
    p_rank.add_argument("ratings")
    p_rank.add_argument("-o", "--out", required=True)
    p_rank.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p_rank.add_argument("--manifest", action="store_true", help="print the run manifest and exit")

    p_cls = sub.add_parser("classify", help="cross-validated classifier grid plus PCA exports")
    p_cls.add_argument("features")
    p_cls.add_argument("labels")
    p_cls.add_argument("-o", "--outdir", required=True)
    p_cls.add_argument("--seed", type=int, default=0)
    p_cls.add_argument("--folds", type=int, default=10)
    p_cls.add_argument("--manifest", action="store_true", help="print the run manifest and exit")

    p_syn = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p_syn.add_argument("-o", "--outdir", required=True)
    p_syn.add_argument("--terms", type=int, default=60)
    p_syn.add_argument("--records", type=int, default=150)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--signal", type=float, default=1.0)
    p_syn.add_argument("--manifest", action="store_true", help="print the run manifest and exit")

    p_tab = sub.add_parser("class-table", help="export the 212-class canonical table")
    p_tab.add_argument("-o", "--out", required=True)
    p_tab.add_argument("--manifest", action="store_true", help="print the run manifest and exit")
    return parser


def _emit_manifest(manifest: RunManifest) -> int:
    sys.stdout.write(json_text(manifest.stamped()))
    return 0


def _cmd_networks(args) -> int:
    window_from = parse_window_bound(args.window_from, end_of_day=False) if args.window_from else None
    window_to = parse_window_bound(args.window_to, end_of_day=True) if args.window_to else None
    if window_from and window_to and window_from > window_to:
        raise InputError(f"--from {args.window_from} is later than --to {args.window_to}")
    manifest = RunManifest(
        command="networks",
        tool_version=__version__,
        parameters={
            "window_from": window_from.isoformat() if window_from else None,
            "window_to": window_to.isoformat() if window_to else None,
            # term matching (re.IGNORECASE, \w) follows the interpreter's Unicode database
            "unidata_version": unicodedata.unidata_version,
        },
        input_hashes={"records": file_sha256(args.records), "terms": file_sha256(args.terms)},
    )
    if args.manifest:
        return _emit_manifest(manifest)
    # the 10 % verdict comes at the end of the records, before anything in -o is touched
    corpus, failures, malformed = read_corpus(args.records, read_terms_file(args.terms), window_from, window_to)
    for lineno, reason in failures:
        print(f"warning: {args.records}:{lineno}: {reason}", file=sys.stderr)
    if malformed:
        print(f"warning: {args.records}: {malformed} malformed lines skipped", file=sys.stderr)
    rows = write_networks(corpus, args.outdir, manifest.sha256)
    manifest.write(os.path.join(args.outdir, "manifest.json"))
    print(f"wrote {len(rows)} networks for {len(corpus)} terms to {args.outdir}")
    return 0


def _networks_input_hashes(networks_dir: str, summary: list[list]) -> dict[str, str]:
    """Hashes of summary.csv and of the network files its rows `summary` list."""
    names = sorted([SUMMARY_NAME] + [row[-1] for row in summary])
    return {name: file_sha256(os.path.join(networks_dir, name)) for name in names}


def _cmd_features(args) -> int:
    if args.workers < 1:
        raise InputError("--workers must be >= 1")
    summary = read_summary(args.networks_dir)
    manifest = RunManifest(
        command="features",
        tool_version=__version__,
        input_hashes=_networks_input_hashes(args.networks_dir, summary),
        class_table_hash=get_class_table().content_hash,
    )
    if args.manifest:
        return _emit_manifest(manifest)
    lines = compute_features(args.networks_dir, summary)
    write_features_csv(lines, args.out, manifest.sha256)
    manifest.write(args.out + ".manifest.json")
    print(f"wrote {len(lines)} feature rows to {args.out}")
    return 0


def _cmd_rank(args) -> int:
    partition_terms([], args.threshold)  # rejects a bad threshold before anything is read or printed
    manifest = RunManifest(
        command="rank",
        tool_version=__version__,
        parameters={"threshold": args.threshold},
        input_hashes={"ratings": file_sha256(args.ratings)},
    )
    if args.manifest:
        return _emit_manifest(manifest)
    rows = partition_terms(aggregate_ratings(read_ratings_csv(args.ratings)), args.threshold)
    write_labels_csv(args.out, rows, manifest.sha256)
    manifest.write(args.out + ".manifest.json")
    n_pos = sum(1 for row in rows if row[-1] == CONTROVERSIAL)
    print(f"labeled {len(rows)} terms: {n_pos} controversial, {len(rows) - n_pos} non-controversial")
    return 0


def _cmd_classify(args) -> int:
    if args.folds < 2:
        raise InputError("--folds must be >= 2")
    if args.seed < 0:
        raise InputError("--seed must be >= 0")
    manifest = RunManifest(
        command="classify",
        tool_version=__version__,
        parameters={"seed": args.seed, "folds": args.folds},
        input_hashes={"features": file_sha256(args.features), "labels": file_sha256(args.labels)},
    )
    if args.manifest:
        return _emit_manifest(manifest)
    global_vecs, local_vecs = read_features_csv(args.features)
    labels = read_labels_csv(args.labels)
    report = classify_datasets(
        global_vecs, local_vecs, labels, args.outdir, manifest.sha256, seed=args.seed, folds=args.folds
    )
    manifest.write(os.path.join(args.outdir, "manifest.json"))
    print(f"wrote report.json with {len(report['entries'])} entries to {args.outdir}")
    return 0


def _cmd_synth(args) -> int:
    from .synth import SynthSpec, write_corpus  # here, not at the top: only classify and synth load numpy

    spec = SynthSpec(n_terms=args.terms, records_per_term=args.records, seed=args.seed, signal=args.signal)
    manifest = RunManifest(
        command="synth",
        tool_version=__version__,
        parameters={
            "n_terms": spec.n_terms,
            "records_per_term": spec.records_per_term,
            "seed": spec.seed,
            "signal": spec.signal,
        },
    )
    if args.manifest:
        return _emit_manifest(manifest)
    write_corpus(spec, args.outdir)
    manifest.write(os.path.join(args.outdir, "manifest.json"))
    print(f"wrote synthetic corpus ({spec.n_terms} terms) to {args.outdir}")
    return 0


def _cmd_class_table(args) -> int:
    table = get_class_table()
    manifest = RunManifest(
        command="class-table",
        tool_version=__version__,
        class_table_hash=table.content_hash,
    )
    if args.manifest:
        return _emit_manifest(manifest)
    table.write_csv(args.out, manifest.sha256)
    manifest.write(args.out + ".manifest.json")
    print(f"wrote {table.class_count_3 + table.class_count_4} classes to {args.out}")
    return 0


_COMMANDS = {
    "networks": _cmd_networks,
    "features": _cmd_features,
    "rank": _cmd_rank,
    "classify": _cmd_classify,
    "synth": _cmd_synth,
    "class-table": _cmd_class_table,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # any other failure is a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
