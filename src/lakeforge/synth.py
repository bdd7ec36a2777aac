"""Deterministic offline value synthesizer and built-in perturbation tables.

The synthesizer stands in for the LLM backend so generation and tests run
hermetically. Value spaces are disjoint across semantic tags by construction:
text tags draw from curated dictionaries that share no values (and stay more
than two edits apart, so single-edit typo noise cannot jump tags), while
numeric, date and digit-string tags draw from per-tag reserved windows. That
disjointness keeps offline join pairs between columns of the same tag; the
ground truth itself reads only values (see ground_truth).
"""

from __future__ import annotations

from datetime import date, timedelta

from .common import NULL, norm_header, seeded_rng, stable_hash
from .model import Column

# --------------------------------------------------------------------------
# curated text dictionaries (one per tag; pairwise disjoint across tags)
# --------------------------------------------------------------------------

TEXT_DICTIONARIES: dict[str, list[str]] = {
    "currency": [
        "USD", "EUR", "GBP", "JPY", "CHF", "CAD", "AUD", "NZD", "CNY", "HKD",
        "SGD", "SEK", "NOK", "DKK", "PLN", "MXN", "BRL", "ZAR", "INR", "KRW",
    ],
    "ticker symbol": [
        "$AAPL", "$MSFT", "$GOOGL", "$AMZN", "$NVDA", "$TSLA", "$ORCL", "$ADBE",
        "$CSCO", "$INTC", "$QCOM", "$TXNS", "$CRMX", "$NFLX", "$PYPL", "$SHOP",
        "$UBER", "$LYFT", "$SNOW", "$PLTR",
    ],
    "legal name": [
        "Apple Inc.", "Microsoft Inc.", "Amazon Inc.", "Alphabet Inc.", "Facebook Inc.",
        "Nvidia Inc.", "Oracle Inc.", "Adobe Inc.", "Cisco Inc.", "Intel Inc.",
        "Qualcomm Inc.", "Netflix Inc.", "Paypal Inc.", "Shopify Inc.", "Uber Inc.",
        "Salesforce Inc.", "Snowflake Inc.", "Palantir Inc.", "Airbnb Inc.", "Stripe Inc.",
        "Datadog Inc.", "Cloudera Inc.", "Fortinet Inc.", "Zscaler Inc.",
    ],
    "city": [
        "Chicago", "Boston", "Denver", "Seattle", "Portland", "Houston", "Phoenix",
        "Dallas", "Atlanta", "Miami", "Detroit", "Memphis", "Tucson", "Fresno",
        "Oakland", "Omaha",
    ],
    "state": [
        "California", "Texas", "Florida", "Ohio", "Nevada", "Oregon", "Utah",
        "Kansas", "Iowa", "Maine", "Idaho", "Montana", "Vermont", "Wyoming",
        "Alaska", "Hawaii",
    ],
    "country": [
        "Canada", "France", "Japan", "Brazil", "Germany", "Spain", "Italy",
        "Norway", "Morocco", "Chile", "Peru", "Egypt", "Kenya", "Nepal",
        "Portugal", "Austria",
    ],
    "person name": [
        "Alice Johnson", "Bruno Keller", "Carla Mendes", "Derek Olsen", "Elena Petrova",
        "Farid Qureshi", "Greta Lindqvist", "Hiro Tanaka", "Ines Duarte", "Jonas Weber",
        "Katya Smirnova", "Liam Gallagher", "Mona Haddad", "Nils Bergman", "Opal Nakamura",
        "Pavel Horak",
    ],
    "street address": [
        "482 Maple Street", "17 Birch Avenue", "903 Cedar Street", "224 Walnut Avenue",
        "655 Spruce Street", "78 Juniper Avenue", "341 Hickory Street", "510 Aspen Avenue",
        "129 Sycamore Street", "86 Magnolia Avenue", "475 Chestnut Street", "232 Poplar Avenue",
        "918 Willow Street", "64 Dogwood Avenue", "157 Linden Street", "390 Hawthorn Avenue",
    ],
    "zipcode": [
        "60614", "02108", "80205", "98109", "97209", "77005", "85004", "75201",
        "30305", "33131", "48226", "38103", "85701", "93721", "94607", "68102",
    ],
    "email": [
        "alice.j@mailhub.example", "bruno.k@mailhub.example", "carla.m@mailhub.example",
        "derek.o@mailhub.example", "elena.p@mailhub.example", "farid.q@mailhub.example",
        "greta.l@mailhub.example", "hiro.t@mailhub.example", "ines.d@mailhub.example",
        "jonas.w@mailhub.example", "katya.s@mailhub.example", "liam.g@mailhub.example",
    ],
    "phone number": [
        "555-0101", "555-0102", "555-0103", "555-0104", "555-0105", "555-0106",
        "555-0107", "555-0108", "555-0109", "555-0110", "555-0111", "555-0112",
    ],
    "transaction type": [
        "Buy Order", "Sell Order", "Transfer Order", "Cash Deposit",
        "Cash Withdrawal", "Dividend Payout",
    ],
    "account type": ["Checking", "Savings", "Brokerage", "Retirement", "Escrow", "Custodial"],
    "sector": [
        "Technology", "Energy", "Healthcare", "Utilities", "Financials",
        "Industrials", "Materials", "Telecom",
    ],
    "rating": ["Grade AAA", "Grade AA", "Grade A", "Grade BBB", "Grade BB", "Grade B", "Grade CCC"],
    "exchange": [
        "NYSE Arca", "NASDAQ Global", "London Bourse", "Tokyo Bourse",
        "Toronto Venture", "Frankfurt Borse", "Zurich Bourse", "Madrid Bourse",
    ],
}

# Text-typed tags whose values are digit strings; they share the reserved
# numeric windows so they cannot collide with curated text dictionaries.
DIGIT_TEXT_TAGS = {"account number", "routing number", "order number", "policy number"}

# --------------------------------------------------------------------------
# semantic variants (offline stand-in for LLM value perturbation)
# --------------------------------------------------------------------------

SEMANTIC_VARIANTS: dict[str, dict[str, str]] = {
    "currency": {
        "USD": "US Dollar", "EUR": "Euro Unit", "GBP": "Pound Sterling", "JPY": "Japanese Yen",
        "CHF": "Swiss Franc", "CAD": "Canadian Dollar", "AUD": "Australian Dollar",
        "NZD": "Zealand Dollar", "CNY": "Chinese Yuan", "HKD": "Hongkong Dollar",
        "SGD": "Singapore Dollar", "SEK": "Swedish Krona", "NOK": "Norwegian Krone",
        "DKK": "Danish Krone", "PLN": "Polish Zloty", "MXN": "Mexican Peso",
        "BRL": "Brazilian Real", "ZAR": "African Rand", "INR": "Indian Rupee",
        "KRW": "Korean Won",
    },
    "state": {
        name: f"State of {name}"
        for name in (
            "California", "Texas", "Florida", "Ohio", "Nevada", "Oregon", "Utah",
            "Kansas", "Iowa", "Maine", "Idaho", "Montana", "Vermont", "Wyoming",
            "Alaska", "Hawaii",
        )
    },
    "transaction type": {
        "Buy Order": "Purchase", "Sell Order": "Disposal",
        "Transfer Order": "Reallocation", "Cash Deposit": "Pay-in",
        "Cash Withdrawal": "Pay-out", "Dividend Payout": "Distribution",
    },
}

# word-level substitution tables for text/format noise
SYNONYM_WORDS = {
    "Street": "Lane",
    "Avenue": "Boulevard",
    "Inc.": "Corp.",
    "Grade": "Tier",
    "Global": "Worldwide",
}
ABBREVIATION_WORDS = {
    "Street": "St.",
    "Avenue": "Ave.",
    "Boulevard": "Blvd.",
    "Incorporated": "Inc.",
    "National": "Natl.",
}


# --------------------------------------------------------------------------
# reserved value windows for numeric / date / digit-string tags
# --------------------------------------------------------------------------

INT_SPAN = 100_000
DECIMAL_SPAN = 10_000
DATE_SPAN_DAYS = 2_000
_DATE_EPOCH = date(1960, 1, 1)


def needs_value_window(column: Column) -> bool:
    if column.datatype in ("integer", "decimal", "date"):
        return True
    return norm_header(column.semantic_type) in DIGIT_TEXT_TAGS


def fallback_space_index(tag: str) -> int:
    # Standalone calls without a corpus-level registry: hash into a wide range.
    return 1_000 + stable_hash("space", norm_header(tag)) % 900_000


def _int_base(idx: int) -> int:
    return (idx + 1) * 1_000_000


def _decimal_base(idx: int) -> int:
    return (idx + 1) * 100_000


def _date_start(idx: int) -> date:
    return _DATE_EPOCH + timedelta(days=DATE_SPAN_DAYS * idx)


def synthesize_offline(
    column: Column,
    n: int,
    seed: int,
    space_index: int | None = None,
    unique: bool = False,
) -> list[str]:
    """Type-plausible deterministic values for a column.

    Known tags draw from the built-in dictionaries or reserved windows;
    unknown text tags fall back to "<tag>_<k>" tokens. With unique=True the
    values are pairwise distinct (used for primary keys). Same inputs always
    produce the same values.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    tag = column.semantic_type
    key = norm_header(tag)
    rng = seeded_rng("synth", seed, key, column.name)

    if needs_value_window(column):
        idx = space_index if space_index is not None else fallback_space_index(tag)
        if column.datatype == "decimal":
            base = _decimal_base(idx)
            if unique:
                return [f"{base + i}.{i % 100:02d}" for i in range(n)]
            return [
                f"{base + rng.randrange(DECIMAL_SPAN)}.{rng.randrange(100):02d}"
                for _ in range(n)
            ]
        if column.datatype == "date":
            start = _date_start(idx)
            if unique:
                return [(start + timedelta(days=i)).isoformat() for i in range(n)]
            return [
                (start + timedelta(days=rng.randrange(DATE_SPAN_DAYS))).isoformat()
                for _ in range(n)
            ]
        base = _int_base(idx)
        if unique:
            return [str(base + i) for i in range(n)]
        return [str(base + rng.randrange(INT_SPAN)) for _ in range(n)]

    vocab = TEXT_DICTIONARIES.get(key)
    if vocab is None:
        return [f"{tag}_{k}" for k in range(n)]
    if unique:
        picked = rng.sample(vocab, min(n, len(vocab)))
        picked += [f"{tag}_{k}" for k in range(n - len(picked))]
        return picked
    return [rng.choice(vocab) for _ in range(n)]


# --------------------------------------------------------------------------
# offline semantic variants
# --------------------------------------------------------------------------


def _generic_variant(value: str, taken: set[str]) -> str:
    cand = value.upper()
    if cand == value or cand in taken:
        cand = f"{value} (alt)"
    while cand in taken:
        cand += "+"
    return cand


def semantic_variant_map(values: list[str], column: Column) -> dict[str, str]:
    """Total injective mapping old -> new over the distinct non-null values.

    Every value changes; variant strings never collide with the built-in base
    dictionaries, so the derived column stays disjoint from unrelated tags.
    """
    key = norm_header(column.semantic_type)
    table = SEMANTIC_VARIANTS.get(key, {})
    mapping: dict[str, str] = {}
    taken: set[str] = set()
    for v in sorted({v for v in values if v != NULL}):
        new = table.get(v)
        if new is None:
            if column.datatype == "integer" or (key in DIGIT_TEXT_TAGS and v.isdigit()):
                new = v + ".0"
            elif column.datatype == "decimal":
                new = v + "0" if "." in v else v + ".0"
            elif column.datatype == "date" and len(v) == 10 and v[4] == "-" and v[7] == "-":
                y, m, d = v.split("-")
                new = f"{m}/{d}/{y}"
            else:
                new = _generic_variant(v, taken)
        while new in taken or new == v:
            new += "+"
        mapping[v] = new
        taken.add(new)
    return mapping


# --------------------------------------------------------------------------
# noise primitives
# --------------------------------------------------------------------------

_TYPO_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def typo_variant(value: str, rng) -> str:
    """One random adjacent-character swap, insert, or delete (edit distance 1)."""
    if not value:
        return rng.choice(_TYPO_ALPHABET)
    ops = ["swap", "insert", "delete"] if len(value) >= 2 else ["insert"]
    op = rng.choice(ops)
    if op == "swap":
        i = rng.randrange(len(value) - 1)
        return value[:i] + value[i + 1] + value[i] + value[i + 2 :]
    if op == "insert":
        i = rng.randrange(len(value) + 1)
        return value[:i] + rng.choice(_TYPO_ALPHABET) + value[i:]
    i = rng.randrange(len(value))
    return value[:i] + value[i + 1 :]


def substitute_words(value: str, table: dict[str, str]) -> str:
    return " ".join(table.get(w, w) for w in value.split(" "))


def remove_word(value: str, rng) -> str:
    words = value.split(" ")
    if len(words) < 2:
        return value
    i = rng.randrange(len(words))
    return " ".join(words[:i] + words[i + 1 :])


def reformat_date(value: str) -> str:
    if len(value) == 10 and value[4] == "-" and value[7] == "-":
        y, m, d = value.split("-")
        return f"{d}.{m}.{y}"
    return value


def reformat_address(value: str) -> str:
    return substitute_words(value, ABBREVIATION_WORDS)


def reformat_name(value: str) -> str:
    words = value.split(" ")
    if len(words) == 2:
        return f"{words[1]}, {words[0]}"
    return value
