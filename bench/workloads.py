"""Seeded inputs of the three workloads and the checks on their outputs.

This module never imports relasph: the parent process builds every input
from the seed and the recorded reference (``reference.json``), hands it to
a fresh child interpreter, and checks the child's outputs afterwards.

An item is one unit of work the child times on its own.  Every item is a
dict with a ``key`` (stable across seeds, names the reference entry) and a
``kind`` that selects how the child runs it (see ``child.py``).

The seed draws instances, not the order of a handful of items.  Items on one
group share the library's context cache, so the first of them pays for the
group's tables, and the first item of a pass pays for first calls; with a
drawn order those costs moved between items from seed to seed, and table1's
item_p50_ms by up to a quarter.  Only classify_grid keeps its drawn order:
among its 4200 items the few that pay such costs move no metric.  table1 is
the paper's fixed battery, so no seed changes it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# -- table1 ------------------------------------------------------------------
# The acceptance battery's cap.  Every table1 enumeration completes far below
# it, so the lookahead rescue never runs here.
TABLE1_CAP = 3_000_000
# The two acceptance-battery examples with non-cyclic coefficients.  The Z8
# example (index 295 245, ~10 s) and the extended L6 case do not fit a run.
TABLE1_EXAMPLES = (
    ("S3xZ3", "group <g, h | g^2, h^3, g h g h g^-1 h^-1 g^-1 h^-1>; x; "
              "rel x^2 g x^-1 h", 27216),
    ("Z3xZ3", "group <g, h | g^3, h^3, g h g^-1 h^-1>; x; rel x^2 g x^-1 h",
     13608),
)

# -- classify_grid -----------------------------------------------------------
GRID_CAP = 1000
GRID_CYCLIC_ITEMS = 3000
GRID_GROUP_ITEMS = 400  # per non-cyclic coefficient group
GRID_EXPONENTS = [(l, k) for l in range(1, 7) for k in range(-6, 7) if k]
# Coefficient words are drawn from short lists of words that are nontrivial
# in their group (``record.py`` refuses to record a trivial one).
GRID_GROUPS = (
    ("S3xZ3", "group <g, h | g^2, h^3, g h g h g^-1 h^-1 g^-1 h^-1>",
     ("g", "h", "h^-1", "g h", "h g", "g h^-1", "g h g")),
    ("Z3xZ3", "group <g, h | g^3, h^3, g h g^-1 h^-1>",
     ("g", "h", "g^-1", "h^-1", "g h", "g h^-1", "g^-1 h")),
    ("Z2xZ4", "group <a, b | a^2, b^4, a b a^-1 b^-1>",
     ("a", "b", "b^2", "b^-1", "a b", "a b^2", "a b^-1")),
)

# -- certify -----------------------------------------------------------------
CERTIFY_CAP = 100_000
SEARCH_MAX_CANDIDATES = 200
SEARCH_DENOMINATOR_BOUND = 3
SEARCH_BOUND = 6
# (n, l, k, a, b) over Z_n, the same for every seed.  Applying a seeded
# automorphism h -> h^u of Z_n keeps every answer but changed the weight
# checks' cost enough to move item_p50_ms by a third between seeds.  The seed
# draws certify's cycle-check words and the picture's labelling.
SEARCH_TEMPLATES = (
    (5, 2, 1, 1, 2), (7, 2, -1, 1, 3), (9, 3, 1, 1, 2), (13, 2, 1, 1, 5),
    (17, 2, -1, 2, 5), (24, 2, -2, 1, 5), (31, 3, -1, 1, 4), (40, 2, 1, 3, 7),
    (43, 2, 1, 17, 36), (48, 2, -1, 7, 11), (56, 2, 1, 10, 2),
    (60, 2, -1, 7, 13),
)
CHECK_WEIGHT = "1/2"
# Bounded condition-II checks over the free group <g, h | >, where the
# exact product-graph minimum does not apply and admissible_cycles runs.
CYCLES_BOUND = 6
CYCLES_SHAPES = ((2, 1), (3, 1), (2, -1), (3, -2), (4, 1))
# Word pairs drawn per shape.  The counts put the median item of a pass (53
# items) in the middle of two dozen items of about the same cost: the (3, 1)
# cycle checks and the weight checks.  With the median at the edge of that
# group, next to one slow weight check or whichever (3, -2) cycle check the
# seed drew, item_p50_ms moved by a fifth to a third from seed to seed.
CYCLES_DRAWS = {(2, 1): 6, (3, 1): 12, (2, -1): 6, (3, -2): 2, (4, 1): 2}
FREE_WORDS = ("g", "h", "g^-1", "h^-1", "g^2", "h^2", "g h", "h g^-1")
FREE_GROUP = "group <g, h | >"
# Copies of the dipole fragment of fixtures/fig1a.json placed side by side;
# reduction cost grows quadratically in this number.
PICTURE_COPIES = 32
PICTURE_FIXTURE = "fixtures/fig1a.json"

WORKLOADS = ("table1", "classify_grid", "certify")
CAPS = {"table1": TABLE1_CAP, "classify_grid": GRID_CAP,
        "certify": CERTIFY_CAP}


def cyclic_args(n: int, l: int, k: int, a: int, b: int) -> list:
    return ["--cyclic", str(n), "--l", str(l), "--k", str(k),
            "--g", str(a), "--h", str(b)]


def cyclic_text(n: int, l: int, k: int, a: int, b: int) -> str:
    return f"group <h | h^{n}>; x; rel x^{l} h^{a} x^{k} h^{b}"


def grid() -> list:
    """Every classify_grid instance as (group, text), in reference order."""
    out = []
    for n in range(2, 13):
        for l, k in GRID_EXPONENTS:
            for a in range(1, n):
                for b in range(1, n):
                    out.append(("cyclic", cyclic_text(n, l, k, a, b)))
    for name, group, words in GRID_GROUPS:
        for l, k in GRID_EXPONENTS:
            for gw in words:
                for hw in words:
                    out.append((name, f"{group}; x; rel x^{l} {gw} x^{k} {hw}"))
    return out


def cycles_pool() -> list:
    return [(l, k, gw, hw) for (l, k) in CYCLES_SHAPES
            for gw in FREE_WORDS for hw in FREE_WORDS]


def cycles_key(l, k, gw, hw) -> str:
    return f"cycles {l},{k} {gw} | {hw}"


# -- generation ----------------------------------------------------------------

def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def table1_items(ref: dict) -> list:
    items = []
    for fix in ref["table1"]["fixtures"]:
        args = cyclic_args(fix["n"], fix["l"], fix["k"], fix["a"], fix["b"])
        cap = ["--cap", str(TABLE1_CAP)]
        # |h| = n exactly in every catalog group, so the stated order is
        # n times the index of <h>
        items.append({"key": f"order {fix['name']}", "kind": "cli",
                      "argv": ["order", *args, "--subgroup", "h", *cap],
                      "stated": f"Index({fix['order'] // fix['n']})"})
        items.append({"key": f"verify {fix['name']}", "kind": "cli",
                      "argv": ["classify", "--verify", *args, *cap],
                      "stated": f"|G(Q)|={fix['order']}"})
    for name, text, order in TABLE1_EXAMPLES:
        cap = ["--cap", str(TABLE1_CAP)]
        items.append({"key": f"order {name}", "kind": "cli", "text": text,
                      "argv": ["order", "{file}", *cap],
                      "stated": f"Finite({order})"})
        items.append({"key": f"verify {name}", "kind": "cli", "text": text,
                      "argv": ["classify", "--verify", "{file}", *cap],
                      "stated": f"|G(Q)|={order}"})
    return items


def classify_grid_items(rng: random.Random, ref: dict) -> list:
    instances = grid()
    by_group = {}
    for i, (group, _) in enumerate(instances):
        by_group.setdefault(group, []).append(i)
    picks = rng.sample(by_group["cyclic"], GRID_CYCLIC_ITEMS)
    for name, _, _ in GRID_GROUPS:
        picks += rng.sample(by_group[name], GRID_GROUP_ITEMS)
    rng.shuffle(picks)
    return [{"key": f"grid {i}", "kind": "classify", "grid": i,
             "text": instances[i][1], "cap": GRID_CAP} for i in picks]


def picture_json(rng: random.Random, fragment: dict, copies: int) -> str:
    """`copies` side-by-side copies of a picture fragment, with arc ids,
    disc order and the starting point of the outer boundary drawn from
    the seed."""
    arcs, discs, outer = [], [], []
    for _ in range(copies):
        off = len(arcs)
        arcs += fragment["arcs"]
        for d in fragment["discs"]:
            discs.append([dict(it, arc=it["arc"] + off) if "arc" in it else it
                          for it in d["boundary"]])
        outer += [dict(it, arc=it["arc"] + off) for it in fragment["outer"]]
    perm = list(range(len(arcs)))
    rng.shuffle(perm)
    new_arcs = [None] * len(arcs)
    for old, new in enumerate(perm):
        new_arcs[new] = arcs[old]

    def relabel(items):
        return [dict(it, arc=perm[it["arc"]]) if "arc" in it else it
                for it in items]

    rng.shuffle(discs)
    turn = rng.randrange(len(outer))
    outer = outer[turn:] + outer[:turn]
    return json.dumps({
        "presentation": fragment["presentation"], "arcs": new_arcs,
        "discs": [{"boundary": relabel(d)} for d in discs],
        "outer": relabel(outer)})


def certify_items(rng: random.Random, ref: dict, root: Path) -> list:
    items = []
    for n, l, k, a, b in SEARCH_TEMPLATES:
        text = cyclic_text(n, l, k, a, b)
        tag = f"{n},{l},{k},{a},{b}"
        items.append({"key": f"search {tag}", "kind": "search", "text": text,
                      "cap": CERTIFY_CAP, "max_candidates": SEARCH_MAX_CANDIDATES,
                      "denominator_bound": SEARCH_DENOMINATOR_BOUND,
                      "bound": SEARCH_BOUND})
        items.append({"key": f"check {tag}", "kind": "check", "text": text,
                      "cap": CERTIFY_CAP, "weight": CHECK_WEIGHT,
                      "mode": "full", "bound": SEARCH_BOUND})
    pairs = [(gw, hw) for gw in FREE_WORDS for hw in FREE_WORDS]
    for l, k in CYCLES_SHAPES:
        for gw, hw in sorted(rng.sample(pairs, CYCLES_DRAWS[l, k])):
            items.append({"key": cycles_key(l, k, gw, hw), "kind": "check",
                          "text": f"{FREE_GROUP}; x; rel x^{l} {gw} x^{k} {hw}",
                          "cap": CERTIFY_CAP, "weight": CHECK_WEIGHT,
                          "mode": "weak", "bound": CYCLES_BOUND})
    fragment = json.loads((root / PICTURE_FIXTURE).read_text())
    items.append({"key": f"picture x{PICTURE_COPIES}", "kind": "picture",
                  "json": picture_json(rng, fragment, PICTURE_COPIES),
                  "cap": CERTIFY_CAP, "copies": PICTURE_COPIES})
    return items


def make_items(workload: str, seed: int, ref: dict, root: Path) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table1":
        return table1_items(ref)
    if workload == "classify_grid":
        return classify_grid_items(rng, ref)
    if workload == "certify":
        return certify_items(rng, ref, root)
    raise ValueError(f"unknown workload {workload!r}")


# -- checking ------------------------------------------------------------------

def expected_output(workload: str, item: dict, ref: dict) -> str:
    if workload == "classify_grid":
        g = ref["classify_grid"]
        return g["texts"][g["index"][item["grid"]]]
    return ref[workload]["outputs"][item["key"]]


def check_item(workload: str, item: dict, got: dict, ref: dict) -> list:
    """Reasons the child's result for `item` is wrong; empty when right."""
    if got.get("error"):
        return [f"raised {got['error']}"]
    out = got["output"]
    problems = []
    if out != expected_output(workload, item, ref):
        problems.append("output differs from the reference")
    first_line = (out.splitlines() or [""])[0]
    if "stated" in item and item["stated"] not in first_line:
        problems.append(f"stated order {item['stated']} not reproduced")
    if item["kind"] == "cli" and got["rc"] != 0:
        problems.append(f"exit code {got['rc']}")
    for problem in got.get("invariants", ()):
        problems.append(problem)
    return problems
