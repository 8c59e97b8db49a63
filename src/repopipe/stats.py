"""Corpus summary: per-language size/file/proportion rows plus the
per-stage drop counters, rendered as a text table and as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

GB = 1_000_000_000


@dataclass(frozen=True)
class LanguageRow:
    language: str
    size_bytes: int
    file_count: int
    proportion: float  # percent of total bytes, 2 decimals


@dataclass
class CorpusStats:
    rows: list[LanguageRow] = field(default_factory=list)
    total_bytes: int = 0
    total_files: int = 0
    drop_counters: dict[str, dict[str, int]] = field(default_factory=dict)


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
) -> CorpusStats:
    total_bytes = sum(lang_bytes.values())
    total_files = sum(lang_files.values())
    hundredths = _apportion_hundredths(lang_bytes, total_bytes) if total_bytes else {}
    rows = []
    for lang in sorted(lang_bytes):
        rows.append(
            LanguageRow(
                language=lang,
                size_bytes=lang_bytes[lang],
                file_count=lang_files.get(lang, 0),
                proportion=hundredths.get(lang, 0) / 100,
            )
        )
    counters = {
        stage: dict(sorted(inner.items()))
        for stage, inner in sorted((drop_counters or {}).items())
    }
    return CorpusStats(
        rows=rows,
        total_bytes=total_bytes,
        total_files=total_files,
        drop_counters=counters,
    )


def render_stats_table(stats: CorpusStats) -> str:
    """Fixed-width table with Size (GB) / Files (k) / Prop. (%) columns
    and a Total row equal to the column sums.
    """
    header = ("Language", "Size (GB)", "Files (k)", "Prop. (%)")
    body = [
        (row.language, f"{row.size_bytes / GB:.6f}", f"{row.file_count / 1000:.3f}", f"{row.proportion:.2f}")
        for row in stats.rows
    ]
    total_prop = round(sum(row.proportion for row in stats.rows), 2)
    total = (
        "Total",
        f"{stats.total_bytes / GB:.6f}",
        f"{stats.total_files / 1000:.3f}",
        f"{total_prop:.2f}",
    )
    widths = [max(len(header[i]), len(total[i]), *(len(r[i]) for r in body)) for i in range(4)]

    def fmt(cells: tuple[str, str, str, str]) -> str:
        left = cells[0].ljust(widths[0])
        rest = "  ".join(cells[i].rjust(widths[i]) for i in range(1, 4))
        return f"{left}  {rest}"

    lines = [fmt(header), "-" * (sum(widths) + 6)]
    lines += [fmt(r) for r in body]
    lines.append(fmt(total))
    if stats.drop_counters:
        lines.append("")
        lines.append("Drop counters")
        for stage, inner in stats.drop_counters.items():
            for reason, count in inner.items():
                lines.append(f"  {stage}/{reason}: {count}")
    return "\n".join(lines) + "\n"


def stats_to_dict(stats: CorpusStats) -> dict:
    return {
        "languages": [
            {
                "language": row.language,
                "size_bytes": row.size_bytes,
                "size_gb": row.size_bytes / GB,
                "files": row.file_count,
                "files_k": row.file_count / 1000,
                "proportion": row.proportion,
            }
            for row in stats.rows
        ],
        "total": {
            "size_bytes": stats.total_bytes,
            "size_gb": stats.total_bytes / GB,
            "files": stats.total_files,
            "proportion": round(sum(r.proportion for r in stats.rows), 2),
        },
        "drop_counters": stats.drop_counters,
    }
