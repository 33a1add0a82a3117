"""Command-line interface.

Commands: synth, extract, train, eval, cam, report. Configuration comes
from defaults, an optional preset (--preset desk), an optional JSON
config file, dotted-path --set overrides, and the ICL_SEED environment
variable, in that order. Every command writes the fully resolved config
next to its outputs. Any IclError or OSError exits with status 1 and a
single `error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .config import resolve_config
from .errors import IclError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output directory for all artifacts")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--preset", default=None, help="named preset (e.g. desk)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY.PATH=VALUE", help="override a config leaf")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icl",
        description="Dual-feature contrastive recognition pipeline for ship-noise audio")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("synth", "generate the synthetic dataset (WAVs + manifest)"),
        ("extract", "segment tracks and cache spectrogram features"),
        ("train", "train a contrastive or single-feature run"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "train":
            p.add_argument("--run-name", default=None, help="run directory name")

    p = sub.add_parser("eval", help="evaluate a trained run on the test split")
    p.add_argument("--out", required=True)
    p.add_argument("--run", required=True, help="run name under out/runs/")

    p = sub.add_parser("cam", help="export class activation maps for a segment")
    p.add_argument("--out", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--segment-id", default=None)
    p.add_argument("--class-index", type=int, default=None)

    p = sub.add_parser("report", help="aggregate evaluated runs into results tables")
    p.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("synth", "extract", "train"):
            cfg = resolve_config(args.config, args.preset, args.overrides)
        if args.command == "synth":
            manifest = pipeline.cmd_synth(cfg, args.out)
            print(f"wrote {manifest}")
        elif args.command == "extract":
            index = pipeline.cmd_extract(cfg, args.out)
            print(f"cached {len(index['segments'])} segments x {len(index['kinds'])} kinds "
                  f"({index['skipped_tracks']} tracks skipped)")
        elif args.command == "train":
            run_dir = pipeline.cmd_train(cfg, args.out, run_name=args.run_name)
            print(f"trained {run_dir}")
        elif args.command == "eval":
            doc = pipeline.cmd_eval(args.out, args.run)
            print(f"test accuracy {doc['accuracy']:.4f} over {doc['n_test']} segments")
        elif args.command == "cam":
            written = pipeline.cmd_cam(args.out, args.run, split=args.split, index=args.index,
                                       class_index=args.class_index, segment_id=args.segment_id)
            print("\n".join(str(p) for p in written))
        elif args.command == "report":
            doc = pipeline.cmd_report(args.out)
            for row in doc["summary"]:
                print(f"{row['method']:12s} {row['features']:8s} alpha={row['alpha']:g} "
                      f"mean_acc={row['mean_accuracy']:.4f} over seeds {row['seeds']}")
    except (IclError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
