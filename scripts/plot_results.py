#!/usr/bin/env python3
"""Plot the CSV exports of the figure benches.

Usage:
    ./build/bench/fig6_synthetic --trials 10 --cycles 100000 --csv fig6.csv
    ./build/bench/fig7_case_study --trials 8 --cycles 60000 --csv fig7.csv
    python3 scripts/plot_results.py fig6.csv fig6.png
    python3 scripts/plot_results.py fig7.csv fig7.png

The file kind is auto-detected from the CSV header. Requires matplotlib.
"""
import csv
import sys
from collections import defaultdict


def load(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        sys.exit(f"{path}: empty CSV")
    return rows


def plot_fig6(rows, out, plt):
    scales = sorted({int(r["clients"]) for r in rows})
    fig, axes = plt.subplots(1, 2 * len(scales), figsize=(6 * len(scales), 4))
    for i, n in enumerate(scales):
        sub = [r for r in rows if int(r["clients"]) == n]
        designs = [r["design"] for r in sub]
        ax = axes[2 * i]
        ax.bar(designs, [float(r["blocking_us"]) for r in sub],
               yerr=[float(r["blocking_sd"]) for r in sub])
        ax.set_title(f"blocking latency (us), {n} clients")
        ax.tick_params(axis="x", rotation=45)
        ax = axes[2 * i + 1]
        ax.bar(designs, [100 * float(r["miss_ratio"]) for r in sub],
               yerr=[100 * float(r["miss_sd"]) for r in sub])
        ax.set_title(f"deadline miss ratio (%), {n} clients")
        ax.tick_params(axis="x", rotation=45)
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def plot_fig7(rows, out, plt):
    scales = sorted({int(r["processors"]) for r in rows})
    fig, axes = plt.subplots(1, len(scales), figsize=(6 * len(scales), 4))
    if len(scales) == 1:
        axes = [axes]
    for ax, n in zip(axes, scales):
        series = defaultdict(list)
        for r in rows:
            if int(r["processors"]) == n:
                series[r["design"]].append(
                    (float(r["target_utilization"]),
                     float(r["success_ratio"])))
        for design, points in series.items():
            points.sort()
            ax.plot([p[0] for p in points], [p[1] for p in points],
                    marker="o", label=design)
        ax.set_title(f"{n}-core system")
        ax.set_xlabel("target utilization")
        ax.set_ylabel("success ratio")
        ax.set_ylim(-0.05, 1.05)
        ax.legend(fontsize=7)
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib is required: pip install matplotlib")

    rows = load(sys.argv[1])
    if "blocking_us" in rows[0]:
        plot_fig6(rows, sys.argv[2], plt)
    elif "success_ratio" in rows[0]:
        plot_fig7(rows, sys.argv[2], plt)
    else:
        sys.exit("unrecognized CSV header")


if __name__ == "__main__":
    main()
