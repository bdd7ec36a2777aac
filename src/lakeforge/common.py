"""Shared plumbing: error types, stable hashing, canonical JSON, string metrics."""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from json.encoder import encode_basestring  # the C encoder when available

# Reserved null token: an empty cell is a null.
NULL = ""


class LakeforgeError(Exception):
    """Base class for all errors raised by this package; exit_code is the
    CLI's exit status for it (2: an input error)."""

    exit_code = 2


class OntologyError(LakeforgeError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CorpusError(LakeforgeError):
    pass


class GatewayError(LakeforgeError):
    exit_code = 3


class CacheMiss(GatewayError):
    def __init__(self, digest: str):
        self.digest = digest
        super().__init__(f"replay cache miss for request digest {digest}")


class GenerationError(LakeforgeError):
    exit_code = 3


class PerturbationError(LakeforgeError):
    exit_code = 4

    def __init__(self, message: str, step_index: int | None = None):
        self.step_index = step_index
        if step_index is not None:
            message = f"step {step_index}: {message}"
        super().__init__(message)


class EvaluationError(LakeforgeError):
    exit_code = 5


def stable_hash(*parts: object) -> int:
    """Deterministic 64-bit hash of the parts (process-independent, unlike hash())."""
    joined = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(joined.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def seeded_rng(*parts: object) -> random.Random:
    return random.Random(stable_hash(*parts))


def canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# exact type -> encoder of a JSON scalar
_SCALAR_JSON = {
    str: encode_basestring,
    int: int.__repr__,
    float: _float_json,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _write_json(obj: object, nl: str, emit) -> None:
    """Emit, in pieces, `json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False)` byte for byte, as if `obj` sat at the depth where
    a newline is followed by `nl`'s indent ("\\n" at the top level). `obj` is
    a tree of dicts with str keys, lists, tuples and scalars of exact type
    str, int, float, bool and None.

    An indent makes the stdlib fall back to its pure-Python encoder, one
    generator frame per value. This writer dispatches on exact type and
    writes a container's scalar members inline, in about half the stdlib's
    time."""
    encode = _SCALAR_JSON.get(type(obj))
    if encode is not None:
        emit(encode(obj))
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            value = obj[key]
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            name = encode_basestring(key)
            encode = _SCALAR_JSON.get(type(value))
            if encode is not None:
                emit(f"{sep}{name}: {encode(value)}")
            else:
                emit(f"{sep}{name}: ")
                _write_json(value, inner, emit)
            sep = "," + inner
        emit(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for value in obj:
            encode = _SCALAR_JSON.get(type(value))
            if encode is not None:
                emit(sep + encode(value))
            else:
                emit(sep)
                _write_json(value, inner, emit)
            sep = "," + inner
        emit(nl + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def slugify(name: str) -> str:
    """Filesystem-safe slug for a table name."""
    s = re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")
    return s or "t"


def unique_name(name: str, taken: set[str]) -> str:
    """The first of name, name_2, name_3, ... that is not in `taken`."""
    candidate, k = name, 2
    while candidate in taken:
        candidate = f"{name}_{k}"
        k += 1
    return candidate


def norm_header(header: str) -> str:
    """Header normalization used for easy/difficult labeling: case fold, collapse whitespace."""
    return " ".join(header.split()).casefold()


def split_words(name: str) -> list[str]:
    """Split an identifier into words: whitespace, underscores and camelCase humps."""
    parts = re.split(r"[\s_]+", name.strip())
    words: list[str] = []
    for part in parts:
        if not part:
            continue
        words.extend(re.findall(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+", part))
    return words


PACK_BITS = 2048  # widest pattern pack of levenshtein_rows: big-int steps stay cheap


def _myers(text: str, peq: dict[str, int], mask: int, lows: int) -> tuple[int, int]:
    """Myers' bit-vector algorithm (JACM 1999) in Hyyrö's global-distance
    form (2003), for one or more patterns packed into bit fields.

    Each pattern owns the bits of `mask` from its field's bottom bit (set in
    `lows`) up, followed by a zero guard bit; peq maps a character to its
    positions in every pattern. Over the DP table D of a pattern against
    text, bit i of pv (mv) says D[i + 1][j] - D[i][j] is +1 (-1) in column j.
    One big-int step per character of text updates every pattern's column:
    an addition's carry stops in a field's guard bit, and ph is masked before
    its shift, so no carry or complemented bit enters the next field. Row 0
    grows by one per column. Returns the last column's (pv, mv): a pattern's
    distance is len(text) plus its field's pv bits minus its mv bits."""
    pv, mv = mask, 0
    for ch in text:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = ((mv | ~(xh | pv)) & mask) << 1 | lows
        pv = ((pv & xh) << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return pv, mv


def levenshtein_rows(texts: list[str], patterns: list[str]) -> list[list[int]]:
    """The edit distance (unit-cost insert, delete, substitute) of every
    text t to every pattern p, one row per text. The patterns are packed into bit fields of at most PACK_BITS bits
    (a longer pattern is a pack of its own), so each text runs _myers once
    per pack (Hyyrö, Fredriksson and Navarro, JEA 2005)."""
    rows = [[0] * len(patterns) for _ in texts]
    packs: list[list[int]] = []
    width = 0
    for j, p in enumerate(patterns):
        if not packs or width + len(p) + 1 > PACK_BITS:
            packs.append([])
            width = 0
        packs[-1].append(j)
        width += len(p) + 1
    for pack in packs:
        peq: dict[str, int] = {}
        mask = lows = offset = 0
        fields = []  # (pattern index, field mask)
        for j in pack:
            p = patterns[j]
            for i, ch in enumerate(p, offset):
                peq[ch] = peq.get(ch, 0) | (1 << i)
            field = ((1 << len(p)) - 1) << offset
            if p:
                mask |= field
                lows |= 1 << offset
            fields.append((j, field))
            offset += len(p) + 1
        for row, t in zip(rows, texts):
            pv, mv = _myers(t, peq, mask, lows)
            n = len(t)
            for j, field in fields:
                row[j] = n + (pv & field).bit_count() - (mv & field).bit_count()
    return rows


def word_set(name: str) -> frozenset[str]:
    """The case-folded words of a name (split_words), as token_jaccard takes them."""
    return frozenset(w.casefold() for w in split_words(name))


def token_jaccard(ta: frozenset[str], tb: frozenset[str]) -> float:
    """Jaccard similarity of two names' word sets; 1.0 when both are empty."""
    if not ta and not tb:
        return 1.0
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / len(ta | tb)


def round_half_up(x: float) -> int:
    """Round halves away from zero (0.5 -> 1), unlike banker's rounding."""
    return int(math.floor(x + 0.5))
