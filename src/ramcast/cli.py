"""Command-line front end: sweeps, simulations, verification, figures.

Each command computes and returns the files it wrote; ``main`` loads
the channel, times the run and writes a JSON manifest alongside the
files recording the parsed arguments, the resolved channel, tool
version, seed and output list, so any artifact can be reproduced from
its manifest alone.  CSV files use UTF-8, LF line endings and a header
row.  A cell of a float64 array column is its shortest round-trip
``repr``, rendered by ``floatfmt``; a bytes array column is written as
it is and any other cell as its ``str``, which for a Python float is
``repr`` again.  So re-reading a CSV recovers the exact values and
identical invocations produce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import capacity_sweep
from .channel import (
    AccessProbabilities,
    ArrivalRates,
    load_channel,
    PRESETS,
)
from .gf2 import _check_generation_size, rank_cdf, rank_pmf
from .regions import service_rates, stable_equals_throughput_frontier
from .sim import SimConfig, run as sim_run

DEFAULTS = {"grid_step": 0.01, "slots": 1_000_000, "seed": 42}
OUT_DIR_ENV = "RAMCAST_OUT_DIR"


def _resolve_out(path: str | Path) -> Path:
    p = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _text_words(column, separator: bytes) -> np.ndarray:
    """The cells of a column that is not float64 as (m, w) little-endian
    uint64 words: each cell's text, NUL-padded, then ``separator`` in the
    last byte.  A bytes array gives its bytes, any other column the
    UTF-8 of ``str`` of each cell."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "S":
        cells = column
    else:
        cells = np.array([str(cell).encode("utf-8") for cell in column], dtype="S")
    words = cells.itemsize // 8 + 1
    padded = np.zeros((len(cells), 8 * words), dtype=np.uint8)
    padded[:, : cells.itemsize] = cells.view(np.uint8).reshape(len(cells), cells.itemsize)
    padded[:, -1] = ord(separator)
    return padded.view("<u8")


def _csv_bytes(header: list[str], blocks):
    """Yield the CSV text of ``header`` and ``blocks`` in pieces of bytes.

    Each block is a sequence of equal-length columns, one per field.  A
    float64 array column is rendered by ``floatfmt``; any other column
    goes through ``_text_words``.  Every cell becomes a run of NUL-padded
    words ending in its separator.  floatfmt.CHUNK rows at a time, the
    runs are laid side by side as fixed-width byte rows and one pass
    drops the NULs, so a NUL in a cell's text is dropped too.
    """
    # Imported here: a command that writes no CSV does not compile it.
    from . import floatfmt

    yield (",".join(header) + "\n").encode("utf-8")
    for block in blocks:
        separators = [b","] * (len(block) - 1) + [b"\n"]
        columns = [
            c if isinstance(c, np.ndarray) and c.dtype == np.float64 else _text_words(c, sep)
            for c, sep in zip(block, separators)
        ]
        widths = [floatfmt.WORDS if c.ndim == 1 else c.shape[1] for c in columns]
        ends = np.cumsum(widths)
        rows = len(columns[0])
        for start in range(0, rows, floatfmt.CHUNK):
            stop = min(start + floatfmt.CHUNK, rows)
            words = np.empty((ends[-1], stop - start), dtype="<u8")
            for column, end, width, sep in zip(columns, ends, widths, separators):
                cell = words[end - width : end]
                if column.ndim == 1:
                    floatfmt.render(column[start:stop], out=cell)
                    cell[-1] |= np.uint64(ord(sep) << 56)
                else:
                    cell[:] = column[start:stop].T
            yield words.T.tobytes().translate(None, b"\0")


def write_csv(path: Path, header: list[str], blocks) -> None:
    """Write ``blocks`` (any iterable, consumed once) after the header."""
    with open(path, "wb") as fh:
        for piece in _csv_bytes(header, blocks):
            fh.write(piece)


# Parsed arguments that are bookkeeping, not parameters of the run.
_NOT_PARAMS = ("command", "func", "out", "seed")


def _write_manifest(args, channel, out_files: list[Path], started: float) -> None:
    """Record the run next to its outputs.

    The parameters are the parsed arguments plus the resolved channel.
    The manifest is ``manifest.json`` inside an ``--out`` directory
    (``figure``) and ``<stem>.manifest.json`` beside an ``--out`` file.
    """
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
    if channel is not None:
        params.update(channel.as_dict())
    manifest = {
        "command": args.command,
        "tool": "ramcast",
        "version": __version__,
        "params": params,
        "seed": getattr(args, "seed", None),
        "outputs": [p.name for p in out_files],
        "defaults": DEFAULTS,
        "duration_s": round(time.perf_counter() - started, 3),
    }
    out = _resolve_out(args.out)
    path = out / "manifest.json" if out.is_dir() else out.with_name(out.stem + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _emit_table(args, header: list[str], rows: list[list]) -> list[Path]:
    """Print a CSV table to stdout and, with ``--out``, write the same lines there."""
    block = list(zip(*rows))
    sys.stdout.write(b"".join(_csv_bytes(header, [block])).decode("utf-8"))
    if not args.out:
        return []
    out = _resolve_out(args.out)
    write_csv(out, header, [block])
    return [out]


def cmd_capacity(args, channel) -> list[Path]:
    from . import floatfmt

    grid, _, r1, r2, frontier = capacity_sweep(channel, args.step)
    on = np.full(r1.shape, b"0")
    on.flat[frontier.index] = b"1"
    out = _resolve_out(args.out)
    # Each grid value is spelled once.  A block of a few p1 rows fits in
    # one floatfmt chunk, so memory stays flat.  Its p1 column is as wide
    # as its own values' texts, often one word where the grid needs three.
    spelled = [str(p).encode() for p in grid.tolist()]
    text = np.array(spelled)
    n = grid.size
    step = max(1, floatfmt.CHUNK // n)
    blocks = (
        (np.repeat(np.array(spelled[i : i + step]), n), np.tile(text, min(step, n - i)),
         *(table[i : i + step].ravel() for table in (r1, r2, on)))
        for i in range(0, n, step)
    )
    write_csv(out, ["p1", "p2", "r1", "r2", "on_frontier"], blocks)
    print(f"wrote {out} ({r1.size} grid points, {frontier.index.size} on frontier)")
    return [out]


def cmd_rates(args, channel) -> list[Path]:
    access = AccessProbabilities(args.p1, args.p2)
    rates = service_rates(args.policy, channel, access, args.K, args.variant)
    header = ["policy", "K", "p1", "p2", "mu_1b", "mu_1e", "mu_2b", "mu_2e"]
    row = [
        args.policy,
        rates.generation_size,
        args.p1,
        args.p2,
        rates.backlogged[0],
        rates.empty[0],
        rates.backlogged[1],
        rates.empty[1],
    ]
    return _emit_table(args, header, [row])


def _write_frontier(path: Path, frontier) -> None:
    K = frontier.K if frontier.K is not None else ""
    n = frontier.x.size
    block = ([frontier.kind] * n, [K] * n, frontier.p1, frontier.p2, frontier.x, frontier.y)
    write_csv(path, ["kind", "K", "p1", "p2", "x", "y"], [block])


def _compute_frontier(kind: str, channel, step: float, K: int, variant: str):
    if kind == "capacity":
        return capacity_sweep(channel, step)[-1]
    return stable_equals_throughput_frontier(kind, channel, step, K, variant)


def cmd_region(args, channel) -> list[Path]:
    frontier = _compute_frontier(args.kind, channel, args.step, args.K, args.variant)
    out = _resolve_out(args.out)
    _write_frontier(out, frontier)
    print(f"wrote {out} ({frontier.index.size} frontier points)")
    return [out]


def cmd_rankdist(args, channel) -> list[Path]:
    if args.max_j < 0:
        raise ValueError(f"--max-j must be >= 0, got {args.max_j}")
    js = range(args.max_j + 1)
    columns = (js, [rank_cdf(args.K, j) for j in js], [rank_pmf(args.K, j) for j in js])
    out = _resolve_out(args.out)
    write_csv(out, ["j", "cdf", "pmf"], [columns])
    print(f"wrote {out}")
    return [out]


def cmd_sim(args, channel) -> list[Path]:
    config = SimConfig(
        channel=channel,
        access=AccessProbabilities(args.p1, args.p2),
        arrivals=ArrivalRates(args.lambda1, args.lambda2),
        policy=args.policy,
        K=args.K,
        slots=args.slots,
        seed=args.seed,
        mode=args.mode,
    )
    result = sim_run(config)
    K = args.K if args.policy == "rlc" else 1  # retransmission is a K = 1 generation
    header = [
        "source",
        "policy",
        "K",
        "mode",
        "slots",
        "seed",
        "departure_rate",
        "stderr",
        "mean_queue",
        "max_queue",
        "mean_service_time",
        "services",
        "mean_decode_d1",
        "mean_decode_d2",
    ]
    rows = []
    for n, src in enumerate(result.sources, start=1):
        d1, d2 = src.mean_decode_count if src.mean_decode_count else ("", "")
        rows.append(
            [
                n,
                args.policy,
                K,
                args.mode,
                args.slots,
                args.seed,
                src.departure_rate,
                src.stderr,
                src.mean_queue,
                src.max_queue,
                src.mean_service_time,
                src.services,
                d1,
                d2,
            ]
        )
    return _emit_table(args, header, rows)


def cmd_verify_chain(args, channel) -> list[Path]:
    from .checks import chain_vs_sim

    header = [
        "metric",
        "variant",
        "K",
        "p1",
        "p2",
        "source",
        "value",
        "reference",
        "stderr",
        "rel_delta",
    ]
    rows = []
    worst, silent = 0.0, 0
    access = AccessProbabilities(args.p1, args.p2)
    for r in chain_vs_sim(channel, access, args.K, args.slots, args.seed):
        point = [r["variant"], args.K, args.p1, args.p2, r["source"]]
        rows.append(["row_sum_residual", *point, r["resid"], 0.0, "", ""])
        rows.append(["mu_b", *point, r["mu"], r["sim"], r["stderr"], r["rel"]])
        if r["sim"]:
            worst = max(worst, abs(r["rel"]))
        elif r["mu"] > 0:  # a source with p = 0 has both rates 0 and is left out
            silent += 1
    out = _resolve_out(args.out)
    write_csv(out, header, [list(zip(*rows))])
    summary = f"nan, {silent} rates > 0 with no simulated departure" if silent else f"{worst:.4%}"
    print(f"wrote {out} (worst |rel delta| vs simulation: {summary})")
    return [out]


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot the region CSVs emitted next to this script (capacity, retrans,
rlc for each K) in the layout of the throughput-region figures.\"\"\"
import csv
import glob
import os

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))


def load(name):
    with open(os.path.join(here, name), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    xs = [float(r["x"]) for r in rows]
    ys = [float(r["y"]) for r in rows]
    return xs, ys


fig, ax = plt.subplots(figsize=(6, 5))
xs, ys = load("capacity.csv")
ax.plot(xs, ys, "k-", lw=2, label="Shannon capacity")
xs, ys = load("retrans.csv")
ax.plot(xs, ys, "b--", lw=1.5, label="retransmissions")
for path in sorted(glob.glob(os.path.join(here, "rlc_K*.csv")),
                   key=lambda p: int(os.path.basename(p)[5:-4])):
    k = int(os.path.basename(path)[5:-4])
    xs, ys = load(os.path.basename(path))
    ax.plot(xs, ys, lw=1, label=f"RLC, K={k}")
ax.set_xlabel("rate of source 1 (packets/slot)")
ax.set_ylabel("rate of source 2 (packets/slot)")
ax.legend(fontsize=8)
ax.grid(True, alpha=0.3)
fig.tight_layout()
fig.savefig(os.path.join(here, "figure.png"), dpi=150)
print("wrote", os.path.join(here, "figure.png"))
"""


def cmd_figure(args, channel) -> list[Path]:
    runs = [("capacity", None, "capacity.csv"), ("retrans", None, "retrans.csv")]
    runs += [("rlc", k, f"rlc_K{k}.csv") for k in args.K_list]
    # Every frontier is computed before the directory is made, so a run
    # that fails leaves nothing behind.
    frontiers = [
        (name, _compute_frontier(kind, channel, args.step, k, args.variant))
        for kind, k, name in runs
    ]
    out_dir = _resolve_out(Path(args.out) / "x").parent
    outputs = []
    for name, frontier in frontiers:
        path = out_dir / name
        _write_frontier(path, frontier)
        outputs.append(path)

    script = out_dir / "plot_figure.py"
    script.write_text(_PLOT_SCRIPT, encoding="utf-8")
    outputs.append(script)
    print(f"wrote {len(outputs)} files to {out_dir}")
    return outputs


def cmd_check(args) -> int:
    from .checks import run_checks

    results = run_checks(quick=args.quick)
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        if res.xfail_reason:
            status = "XPASS" if res.passed else "XFAIL"
            print(f"ramcast: {res.name} is expected to fail: {res.xfail_reason}", file=sys.stderr)
        print(f"{status} {res.name}: {res.detail}")
        # Like a strict xfail, an expected failure that passes fails the run.
        ok = ok and res.passed != bool(res.xfail_reason)
    return 0 if ok else 1


def int_list(text: str) -> list[int]:
    """Comma-separated generation sizes, each passing gf2's check; empty
    entries and repeats are skipped, and at least one K is required."""
    values = list(dict.fromkeys(int(k) for k in text.split(",") if k))
    if not values:
        raise ValueError(text)
    for k in values:
        try:
            _check_generation_size(k)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramcast",
        description=(
            "Capacity and stable-throughput analysis of two-source random-access "
            "multicast with retransmission and random-linear-coding policies."
        ),
        epilog=(
            f"Channel presets: {', '.join(sorted(PRESETS))}. Relative output paths "
            f"are resolved under ${OUT_DIR_ENV} when it is set."
        ),
    )
    parser.add_argument("--version", action="version", version=f"ramcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_channel(p):
        p.add_argument(
            "--channel",
            required=True,
            help="channel preset name or config file (JSON / key=value)",
        )

    p = sub.add_parser("capacity", help="sweep the capacity region and emit CSV")
    add_channel(p)
    p.add_argument("--step", type=float, default=DEFAULTS["grid_step"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("rates", help="service rates for one (p1, p2) point")
    add_channel(p)
    p.add_argument("--policy", choices=("retrans", "rlc"), required=True)
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--variant", choices=("paper", "exact"), default="paper")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("region", help="Pareto frontier of a region, as CSV")
    add_channel(p)
    p.add_argument("--kind", choices=("capacity", "retrans", "rlc"), required=True)
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--step", type=float, default=DEFAULTS["grid_step"])
    p.add_argument("--variant", choices=("paper", "exact"), default="paper")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("rankdist", help="decode-count distribution F_K, f_K")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--max-j", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rankdist)

    p = sub.add_parser("sim", help="slot-level Monte Carlo run")
    add_channel(p)
    p.add_argument("--policy", choices=("retrans", "rlc"), default="retrans")
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--lambda1", type=float, default=0.0)
    p.add_argument("--lambda2", type=float, default=0.0)
    p.add_argument("--slots", type=int, default=DEFAULTS["slots"])
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p.add_argument("--mode", choices=("saturated", "arrivals"), default="saturated")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser(
        "verify-chain",
        help="row-sum residuals and sim-vs-analytic deltas for both chain variants",
    )
    add_channel(p)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--p1", type=float, default=0.5)
    p.add_argument("--p2", type=float, default=0.5)
    p.add_argument("--slots", type=int, default=DEFAULTS["slots"])
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify_chain)

    p = sub.add_parser("figure", help="emit all region CSVs plus a plot script")
    add_channel(p)
    p.add_argument("--K-list", dest="K_list", type=int_list, default="1,2,5,10,50")
    p.add_argument("--step", type=float, default=DEFAULTS["grid_step"])
    p.add_argument("--variant", choices=("paper", "exact"), default="paper")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("check", help="run the cross-validation suite")
    p.add_argument("--quick", action="store_true", help="reduced sizes, skips slow probes")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: load its channel, time it and write its manifest.

    A command returns the files it wrote; ``check`` writes none and
    returns its exit code instead.
    """
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "check":
            return cmd_check(args)
        channel = load_channel(args.channel) if "channel" in vars(args) else None
        outputs = args.func(args, channel)
        if outputs:
            _write_manifest(args, channel, outputs, started)
    except (ValueError, OSError, MemoryError) as exc:  # ChannelError included
        print(f"ramcast: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
