"""Benchmark-owned inputs: the finance ontology, the perturbation plans and a
deterministic completion transport used to record the replay cache.

Nothing here imports from the repository's tests, so the benchmark's inputs
stay fixed while the tests evolve.
"""

from __future__ import annotations

import hashlib
import re

# (concept, property lines) in the order the finance-N prefixes take them.
FINANCE_CONCEPTS = [
    ("Organization", [
        "key id: integer [Organization ID]",
        "prop Legal Name: text [Legal Name]",
        "prop Industry: categorical [Sector]",
        "prop Home City: text [City]",
    ]),
    ("Currency Name", [
        "key Currency: text [Currency]",
        "prop Issuing Country: text [Country]",
        "prop Display Rank: integer [Display Rank]",
    ]),
    ("Monetary Amount", [
        "key Amount: decimal [Amount]",
        "prop Valuation Date: date [Valuation Date]",
        "prop Amount Scale: integer [Amount Scale]",
    ]),
    ("Postal Address", [
        "prop Address Line 1: text [Street Address]",
        "prop City: text [City]",
        "prop State: text [State]",
        "prop Zipcode: text [Zipcode]",
    ]),
    ("Listed Security", [
        "prop Ticker Symbol: text [Ticker Symbol]",
        "prop Legal Name: text [Legal Name]",
        "prop Listing Date: date [Listing Date]",
    ]),
    ("Financial Service Account", [
        "key Account Number: text [Account Number]",
        "prop Account Type: categorical [Account Type]",
        "prop Opened Date: date [Account Open Date]",
    ]),
    ("Securities Transaction", [
        "prop Type: categorical [Transaction Type]",
        "prop Count: integer [Share Count]",
        "prop Settlement Date: date [Settlement Date]",
    ]),
    ("Stock Exchange", [
        "prop Exchange Name: text [Exchange]",
        "prop Exchange City: text [City]",
        "prop Founded Date: date [Exchange Founding Date]",
    ]),
    ("Customer", [
        "key id: integer [Customer ID]",
        "prop Full Name: text [Person Name]",
        "prop Email Address: text [Email]",
        "prop Home State: text [State]",
    ]),
    ("Branch", [
        "key Branch Code: integer [Branch Code]",
        "prop Branch City: text [City]",
        "prop Phone: text [Phone Number]",
    ]),
    ("Loan", [
        "prop Principal: decimal [Loan Principal]",
        "prop Origination Date: date [Loan Origination Date]",
        "prop Status: categorical [Loan Status]",
    ]),
    ("Credit Card Account", [
        "key Card Number: text [Card Number]",
        "prop Credit Limit: decimal [Credit Limit]",
        "prop Issue Date: date [Card Issue Date]",
    ]),
    ("Insurance Policy", [
        "key Policy Number: text [Policy Number]",
        "prop Premium: decimal [Premium Amount]",
        "prop Effective Date: date [Policy Effective Date]",
    ]),
    ("Dividend Payment", [
        "prop Amount Per Share: decimal [Dividend Per Share]",
        "prop Payment Date: date [Dividend Payment Date]",
    ]),
    ("Earnings Report", [
        "prop Fiscal Year: integer [Fiscal Year]",
        "prop Revenue: decimal [Revenue]",
        "prop Report Date: date [Earnings Report Date]",
    ]),
    ("Market Index", [
        "prop Index Name: text [Index Name]",
        "prop Base Value: decimal [Index Base Value]",
        "prop Launch Date: date [Index Launch Date]",
    ]),
    ("Index Membership", [
        "prop Weight: decimal [Index Weight]",
        "prop Added Date: date [Index Addition Date]",
    ]),
    ("Regulatory Filing", [
        "prop Filing Type: categorical [Filing Type]",
        "prop Filing Date: date [Filing Date]",
        "prop Page Count: integer [Page Count]",
    ]),
    ("Portfolio", [
        "key Portfolio Code: integer [Portfolio Code]",
        "prop Inception Date: date [Portfolio Inception Date]",
        "prop Strategy: categorical [Strategy]",
    ]),
    ("Portfolio Holding", [
        "prop Quantity: integer [Holding Quantity]",
        "prop Acquired Date: date [Acquisition Date]",
    ]),
]

FINANCE_RELATIONS = [
    ("locatedAt", "Organization", "Postal Address"),
    ("lists", "Organization", "Listed Security"),
    ("quotedCurrency", "Currency Name", "Listed Security"),
    ("lastTradedAmount", "Monetary Amount", "Listed Security"),
    ("heldAt", "Organization", "Financial Service Account"),
    ("facilitatedByAccount", "Financial Service Account", "Securities Transaction"),
    ("priceAmount", "Monetary Amount", "Securities Transaction"),
    ("refersToListedSecurity", "Listed Security", "Securities Transaction"),
    ("listingVenue", "Stock Exchange", "Listed Security"),
    ("operatedBy", "Organization", "Branch"),
    ("loanCustomer", "Customer", "Loan"),
    ("loanBranch", "Branch", "Loan"),
    ("cardHolder", "Customer", "Credit Card Account"),
    ("insuredParty", "Customer", "Insurance Policy"),
    ("declaredFor", "Listed Security", "Dividend Payment"),
    ("paymentCurrency", "Currency Name", "Dividend Payment"),
    ("reportedBy", "Organization", "Earnings Report"),
    ("memberIndex", "Market Index", "Index Membership"),
    ("memberSecurity", "Listed Security", "Index Membership"),
    ("filedBy", "Organization", "Regulatory Filing"),
    ("managedFor", "Customer", "Portfolio"),
    ("holdingPortfolio", "Portfolio", "Portfolio Holding"),
    ("holdingSecurity", "Listed Security", "Portfolio Holding"),
]


def finance_ontology(n_concepts: int) -> str:
    """Native-format ontology: the first n finance concepts and every relation
    whose endpoints are both among them."""
    chosen = FINANCE_CONCEPTS[:n_concepts]
    names = {name for name, _props in chosen}
    lines = []
    for name, props in chosen:
        lines.append(f"concept {name}")
        lines.extend(f"  {p}" for p in props)
        lines.append("")
    for rel, domain, rng in FINANCE_RELATIONS:
        if domain in names and rng in names:
            lines.append(f"relation {rel}: {domain} -> {rng}")
    return "\n".join(lines) + "\n"


# The plan behind the "semantic joins are not easier" trend check.
TREND_PLAN = (
    "step * vertical_split overlap_ratio=0.2\n"
    "step * cryptify_headers+text_noise typo_rate=0.3\n"
    "step * semantic_value_perturb backend=offline\n"
)

# The CLI's default plan (used when perturb gets no --plan), spelled out so a
# target line can be added to it.
DEFAULT_PLAN = (
    "step * vertical_split overlap_ratio=0.2 unique_key=false\n"
    "step * vertical_split overlap_ratio=0.2 unique_key=true\n"
    "step * cryptify_headers+text_noise typo_rate=0.3\n"
    "step * semantic_value_perturb backend=offline\n"
)


# --------------------------------------------------------------------------
# deterministic completion transport
# --------------------------------------------------------------------------

_TABLE_COLUMNS = re.compile(r"the table named (.+?) has the following columns: \[(.*?)\]")
_DEP_VALUES = re.compile(r"Given the entries of column '(.*?)' are \[(.*?)\]")
_QUOTED = re.compile(r"'((?:[^'\\]|\\.)*)'")
_ROWS_PER_PROMPT = 5


def _digest_int(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def record_transport(request) -> str:
    """Answer a generation prompt deterministically from its text alone.

    Each prompt gets five "Example k: ..." rows; dependency columns reuse the
    listed values. By prompt hash, one prompt in five puts one value out of
    set (so FK repair runs) and one in seven adds a stray line (counted as
    skipped)."""
    prompt = request.prompt
    header = _TABLE_COLUMNS.search(prompt)
    columns = _QUOTED.findall(header.group(2))
    deps = {col: _QUOTED.findall(vals) for col, vals in _DEP_VALUES.findall(prompt)}
    salt = _digest_int(prompt)
    lines = []
    for i in range(1, _ROWS_PER_PROMPT + 1):
        values = []
        for col in columns:
            pool = deps.get(col)
            if pool:
                if i == 1 and salt % 5 == 0:
                    values.append(f"unlisted {salt % 997}")
                else:
                    values.append(pool[(salt + i) % len(pool)])
            else:
                values.append(f"{col[:4]} {salt % 1000003}-{i}")
        lines.append(f"Example {i}: " + "; ".join(values))
    if salt % 7 == 0:
        lines.append("Note: values above are illustrative.")
    return "\n".join(lines)
