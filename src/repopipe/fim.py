"""Document-level fill-in-the-middle transformation.

With probability fim_rate a document is split at two uniformly chosen
character positions into prefix / middle / suffix and re-emitted with
sentinel tokens so the middle trails its surrounding context; otherwise
the document passes through with only the end-of-sequence sentinel
appended. Applied before packing, one derived RNG stream per document,
so results are independent of scheduling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PSM = "psm"
SPM = "spm"

# The fim_* sentinels use the fullwidth vertical bar (U+FF5C); the eos
# sentinel uses the ASCII bar. Both forms are intentional.
FIM_START = "<｜fim_start｜>"
FIM_HOLE = "<｜fim_hole｜>"
FIM_END = "<｜fim_end｜>"
EOS = "<|eos_token|>"


@dataclass(frozen=True)
class SentinelSet:
    """The four reserved literals. They must be pairwise distinct and
    must never occur in document content (checked per document).
    """

    fim_start: str = FIM_START
    fim_hole: str = FIM_HOLE
    fim_end: str = FIM_END
    eos: str = EOS

    def __post_init__(self) -> None:
        four = (self.fim_start, self.fim_hole, self.fim_end, self.eos)
        if len(set(four)) != 4 or not all(four):
            raise ValueError("sentinels must be four distinct non-empty strings")

    def as_tuple(self) -> tuple[str, str, str, str]:
        return (self.fim_start, self.fim_hole, self.fim_end, self.eos)

    def collides_with(self, doc: str) -> bool:
        return any(s in doc for s in self.as_tuple())


DEFAULT_SENTINELS = SentinelSet()


@dataclass(frozen=True)
class FimConfig:
    fim_rate: float = 0.5
    mode: str = PSM
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fim_rate <= 1.0:
            raise ValueError(f"fim_rate must be in [0, 1], got {self.fim_rate}")
        if self.mode not in (PSM, SPM):
            raise ValueError(f"mode must be {PSM!r} or {SPM!r}, got {self.mode!r}")


def fim_split(
    doc: str,
    i: int,
    j: int,
    sentinels: SentinelSet = DEFAULT_SENTINELS,
    mode: str = PSM,
) -> str:
    """Lay out the three segments for fixed cut points 0 <= i <= j <= len.

    psm: fim_start + prefix + fim_hole + suffix + fim_end + middle + eos
    spm: fim_start + suffix + fim_hole + prefix + fim_end + middle + eos
    """
    if not 0 <= i <= j <= len(doc):
        raise ValueError(f"cut points out of range: i={i}, j={j}, len={len(doc)}")
    pre, middle, suf = doc[:i], doc[i:j], doc[j:]
    first, second = (pre, suf) if mode == PSM else (suf, pre)
    s = sentinels
    return "".join((s.fim_start, first, s.fim_hole, second, s.fim_end, middle, s.eos))


def fim_transform(
    doc: str,
    doc_index: int,
    cfg: FimConfig,
    sentinels: SentinelSet = DEFAULT_SENTINELS,
) -> str | None:
    """Transform one document; None means a sentinel literal occurred in
    the content and the document must be dropped (callers count these).
    """
    if not doc:
        raise ValueError("document must be non-empty")
    if sentinels.collides_with(doc):
        return None
    rng = random.Random(cfg.seed + doc_index)
    if rng.random() >= cfg.fim_rate:
        return doc + sentinels.eos
    a = rng.randint(0, len(doc))
    b = rng.randint(0, len(doc))
    i, j = min(a, b), max(a, b)
    return fim_split(doc, i, j, sentinels, cfg.mode)
