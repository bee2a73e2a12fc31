"""Render benchmark JSON reports as a GitHub step summary.

Reads every ``reports/bench_*.json`` report
(:func:`benchmarks._report.write_report` schema), prints one verdict
line per report and appends the same markdown to
``$GITHUB_STEP_SUMMARY`` when set.  Both the CI ``bench`` job and the
nightly full-suite workflow call this, so the two summaries cannot
drift.

Usage::

    python scripts/bench_summary.py [--title TITLE] [reports-glob]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def render(title: str, pattern: str) -> list[str]:
    lines = [f"### {title}", ""]
    reports = sorted(glob.glob(pattern))
    if not reports:
        lines.append("_no benchmark reports produced_")
    for path in reports:
        with open(path) as handle:
            report = json.load(handle)
        status = "✅" if report.get("passed") else "❌"
        lines.append(
            f"- {status} `{report['benchmark']}`: "
            f"{report['speedup']:.2f}x "
            f"(floor {report['floor']:.1f}x; legacy "
            f"{report['legacy_seconds']:.2f}s → engine "
            f"{report['engine_seconds']:.2f}s)"
        )
        if "reduction" in report:
            lines.append(
                f"  - candidate reduction "
                f"{report['reduction']:.1f}x (floor "
                f"{report['reduction_floor']:.0f}x) at recall "
                f"{report['recall']:.4f} (floor "
                f"{report['recall_floor']})"
            )
        if "serial_p50_ms" in report:
            lines.append(
                f"  - latency p50 {report['serial_p50_ms']:.1f}ms "
                f"→ {report['coalesced_p50_ms']:.1f}ms, p99 "
                f"{report['serial_p99_ms']:.1f}ms → "
                f"{report['coalesced_p99_ms']:.1f}ms "
                f"(mean batch {report['mean_batch_size']:.1f}, "
                f"{report['clients']} concurrent clients)"
            )
        if "budget_bytes" in report:
            mb = 1 << 20
            rss = "✅" if report.get("rss_ok") else "❌"
            lines.append(
                f"  - {rss} memory budget "
                f"{report['budget_bytes'] / mb:.0f}MB: sharded "
                f"peak RSS {report['sharded_rss_bytes'] / mb:.0f}MB "
                f"(dense {report['dense_rss_bytes'] / mb:.0f}MB, "
                f"{report['n_shards']} shards)"
            )
        if "small_shard_ratio" in report:
            ceiling = report["wall_ceiling"]
            ok = (
                report["string_legs_identical"]
                and report["small_shard_ratio"] <= ceiling
                and report["blocked_shard_ratio"] <= ceiling
            )
            lines.append(
                f"  - {'✅' if ok else '❌'} string shards: 4 in one grid "
                f"cell {report['small_shard_ratio']:.2f}x one shard, "
                f"blocked {report['blocked_shard_ratio']:.2f}x unsharded "
                f"(ceiling {ceiling:.2f}x)"
            )
        if "datasets" in report:
            for row in report["datasets"]:
                graph = "✅" if row.get("graph_identical") else "❌"
                lines.append(
                    f"  - {graph} `{row['dataset']}`: "
                    f"{row['n_records']} records → {row['n_edges']} "
                    f"edges, amortized "
                    f"{row['amortized_seconds'] * 1e6:.1f}us/record "
                    f"vs rebuild {row['rebuild_seconds']:.3f}s "
                    f"({row['speedup']:.0f}x)"
                )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "pattern", nargs="?", default="reports/bench_*.json",
        help="glob of report files (default: reports/bench_*.json)",
    )
    parser.add_argument(
        "--title", default="Engine smoke benchmarks",
        help="summary section heading",
    )
    args = parser.parse_args(argv)
    lines = render(args.title, args.pattern)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as handle:
            handle.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
