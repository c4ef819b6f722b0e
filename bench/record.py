"""Record reference.json from the library in this checkout's ``src``.

    python3 bench/record.py

Run it only on a commit whose outputs are known to be right (the reference
was recorded on the seed library).  It runs every item any seed can draw
through the same code the child uses.  Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads as wl  # noqa: E402


def record_table1(runner) -> dict:
    from relasph.classify import TABLE1_FIXTURES
    fixtures = [{"name": f.name, "n": f.n, "a": f.a, "b": f.b, "l": f.l,
                 "k": f.k, "order": f.expected_order} for f in TABLE1_FIXTURES]
    items = wl.table1_items({"table1": {"fixtures": fixtures}})
    outputs = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for n, item in enumerate(items):
            if "text" in item:
                path = Path(tmp) / f"item{n}.txt"
                path.write_text(item["text"])
                runner.files[item["key"]] = str(path)
            got = runner.run(item)
            assert got["rc"] == 0 and item["stated"] in got["output"], got
            outputs[item["key"]] = got["output"]
    return {"fixtures": fixtures, "outputs": outputs}


def record_classify_grid(runner) -> dict:
    texts, index, seen = [], [], {}
    for group, text in wl.grid():
        out = runner.run({"kind": "classify", "text": text,
                          "cap": wl.GRID_CAP})["output"]
        if out not in seen:
            seen[out] = len(texts)
            texts.append(out)
        index.append(seen[out])
    return {"texts": texts, "index": index}


def record_certify(runner) -> dict:
    from relasph.coset import context_for
    from relasph.words import TriState, parse_presentation
    outputs = {}
    for n, l, k, a, b in wl.SEARCH_TEMPLATES:
        text, tag = wl.cyclic_text(n, l, k, a, b), f"{n},{l},{k},{a},{b}"
        common = {"text": text, "cap": wl.CERTIFY_CAP, "bound": wl.SEARCH_BOUND}
        got = runner.run({**common, "kind": "search",
                          "max_candidates": wl.SEARCH_MAX_CANDIDATES,
                          "denominator_bound": wl.SEARCH_DENOMINATOR_BOUND})
        assert not got["invariants"], got
        outputs[f"search {tag}"] = got["output"]
        outputs[f"check {tag}"] = runner.run(
            {**common, "kind": "check", "weight": wl.CHECK_WEIGHT,
             "mode": "full"})["output"]
    free = context_for(parse_presentation(f"{wl.FREE_GROUP}; x; rel x g").coeff,
                       wl.CERTIFY_CAP)
    for word in wl.FREE_WORDS:
        pres = parse_presentation(f"{wl.FREE_GROUP}; x; rel x {word}")
        word_tuple = pres.relators[0].syllables[1][1]
        assert free.is_trivial_word(word_tuple) == TriState.NO, word
    for l, k, gw, hw in wl.cycles_pool():
        outputs[wl.cycles_key(l, k, gw, hw)] = runner.run(
            {"kind": "check", "cap": wl.CERTIFY_CAP,
             "text": f"{wl.FREE_GROUP}; x; rel x^{l} {gw} x^{k} {hw}",
             "weight": wl.CHECK_WEIGHT, "mode": "weak",
             "bound": wl.CYCLES_BOUND})["output"]
    outputs[f"picture x{wl.PICTURE_COPIES}"] = (
        f"valid=True cancellations={wl.PICTURE_COPIES} discs=0")
    return {"outputs": outputs}


def check_grid_words() -> None:
    from relasph.coset import context_for
    from relasph.words import TriState, parse_presentation
    for name, group, words in wl.GRID_GROUPS:
        for word in words:
            pres = parse_presentation(f"{group}; x; rel x {word}")
            ctx = context_for(pres.coeff, wl.GRID_CAP)
            w = pres.relators[0].syllables[1][1]
            assert ctx.is_trivial_word(w) == TriState.NO, (name, word)


def main() -> None:
    child._import_relasph(str(ROOT / "src"))
    runner = child.Runner({})
    check_grid_words()
    ref = {"recorded_from_src_sha256": None}
    ref["table1"] = record_table1(runner)
    print("table1 done", file=sys.stderr, flush=True)
    ref["certify"] = record_certify(runner)
    print("certify done", file=sys.stderr, flush=True)
    ref["classify_grid"] = record_classify_grid(runner)
    print("classify_grid done", file=sys.stderr, flush=True)
    import run
    ref["recorded_from_src_sha256"] = run.machine()["relasph_src_sha256"]
    wl.REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
