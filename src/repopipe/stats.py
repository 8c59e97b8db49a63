"""Corpus summary: per-language size/file/proportion rows plus the
per-stage drop counters, rendered as a text table and as JSON.
"""

from __future__ import annotations

from typing import Mapping

GB = 1_000_000_000


def _apportion_hundredths(lang_bytes: Mapping[str, int], total: int) -> dict[str, int]:
    """Two-decimal percentages that sum to exactly 100.00, via the
    largest-remainder method in integer hundredths.
    """
    floors: dict[str, int] = {}
    remainders: dict[str, int] = {}
    for lang in sorted(lang_bytes):
        floors[lang] = lang_bytes[lang] * 10_000 // total
        remainders[lang] = lang_bytes[lang] * 10_000 % total
    deficit = 10_000 - sum(floors.values())
    for lang in sorted(floors, key=lambda l: (-remainders[l], l))[:deficit]:
        floors[lang] += 1
    return floors


def compute_corpus_stats(
    lang_bytes: Mapping[str, int],
    lang_files: Mapping[str, int],
    drop_counters: Mapping[str, Mapping[str, int]] | None = None,
) -> dict:
    """The stats.json object: one row per language, sorted, with its
    proportion in percent of the total bytes (2 decimals); the totals;
    and the drop counters sorted by stage and reason.
    """
    total_bytes = sum(lang_bytes.values())
    hundredths = _apportion_hundredths(lang_bytes, total_bytes) if total_bytes else {}
    languages = [
        {
            "language": lang,
            "size_bytes": lang_bytes[lang],
            "size_gb": lang_bytes[lang] / GB,
            "files": lang_files.get(lang, 0),
            "files_k": lang_files.get(lang, 0) / 1000,
            "proportion": hundredths.get(lang, 0) / 100,
        }
        for lang in sorted(lang_bytes)
    ]
    return {
        "languages": languages,
        "total": {
            "size_bytes": total_bytes,
            "size_gb": total_bytes / GB,
            "files": sum(lang_files.values()),
            "proportion": round(sum(row["proportion"] for row in languages), 2),
        },
        "drop_counters": {
            stage: dict(sorted(inner.items()))
            for stage, inner in sorted((drop_counters or {}).items())
        },
    }


def render_stats_table(stats: dict) -> str:
    """Fixed-width table of a `compute_corpus_stats` object, with Size
    (GB) / Files (k) / Prop. (%) columns and a Total row equal to the
    column sums.
    """
    header = ("Language", "Size (GB)", "Files (k)", "Prop. (%)")
    body = [
        (row["language"], f"{row['size_gb']:.6f}", f"{row['files_k']:.3f}", f"{row['proportion']:.2f}")
        for row in stats["languages"]
    ]
    totals = stats["total"]
    total = (
        "Total",
        f"{totals['size_gb']:.6f}",
        f"{totals['files'] / 1000:.3f}",
        f"{totals['proportion']:.2f}",
    )
    widths = [max(len(header[i]), len(total[i]), *(len(r[i]) for r in body)) for i in range(4)]

    def fmt(cells: tuple[str, str, str, str]) -> str:
        left = cells[0].ljust(widths[0])
        rest = "  ".join(cells[i].rjust(widths[i]) for i in range(1, 4))
        return f"{left}  {rest}"

    lines = [fmt(header), "-" * (sum(widths) + 6)]
    lines += [fmt(r) for r in body]
    lines.append(fmt(total))
    if stats["drop_counters"]:
        lines.append("")
        lines.append("Drop counters")
        for stage, inner in stats["drop_counters"].items():
            for reason, count in inner.items():
                lines.append(f"  {stage}/{reason}: {count}")
    return "\n".join(lines) + "\n"
