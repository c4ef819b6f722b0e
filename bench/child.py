"""One timed pass of a workload, in a fresh interpreter.

Usage: python3 child.py <job.json>

The job file names the checkout's ``src`` directory, the items, whether to
trace, and where to write the result.  The child imports relasph from that
``src`` only, runs every item in order with nothing else in between, checks
the invariants that need the library (with tracing paused), and writes one
JSON result, with its own peak resident set.  The parent times the spawn.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction


def _import_relasph(src: str):
    sys.path.insert(0, src)
    import relasph
    if not os.path.abspath(relasph.__file__).startswith(src + os.sep):
        raise SystemExit(f"relasph imported from {relasph.__file__}, not {src}")
    return relasph


def _peak_rss_kb() -> int:
    """Peak resident set of this process's own address space, in KiB.

    Not ru_maxrss: on Linux that also counts the resident set the parent
    had when it spawned this process, which here is the benchmark's own.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _modules():
    # importlib, because the package's own `classify` attribute is the
    # function, which hides the submodule of that name
    return {name: importlib.import_module(f"relasph.{name}")
            for name in ("words", "coset", "classify", "stargraph",
                         "weights", "pictures", "cli")}


class Runner:
    """Executes items through the library's public entry points."""

    def __init__(self, files: dict, tracer=None):
        self.m = _modules()
        self.files = files
        self.tracer = tracer

    def paused(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def run(self, item: dict) -> dict:
        return getattr(self, "run_" + item["kind"])(item)

    def run_cli(self, item):
        argv = [self.files[item["key"]] if a == "{file}" else a
                for a in item["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.m["cli"].main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        text = out.getvalue().rstrip("\n")
        first = text.splitlines()[0] if text else ""
        if argv[0] == "order":
            decided = first.startswith(("Finite(", "Index("))
        else:
            decided = (first.startswith(("Aspherical", "NonAspherical"))
                       or "[     ok]" in text or "[  fatal]" in text)
        return {"output": text, "rc": rc, "decided": decided}

    def run_classify(self, item):
        words, classify = self.m["words"], self.m["classify"]
        pres = words.parse_presentation(item["text"])
        inst = classify.instance_from_presentation(pres, item["cap"])
        v = classify.classify(inst, item["cap"])
        text = (f"{v.summary()} | {v.detail} | hits={','.join(v.case_hits)}"
                f" | blockers={';'.join(v.blockers)}")
        return {"output": text,
                "decided": v.aspherical != words.TriState.UNKNOWN}

    def _graph(self, item):
        pres = self.m["words"].parse_presentation(item["text"])
        graph = self.m["stargraph"].build_star_graph(pres)
        ctx = self.m["coset"].context_for(pres.coeff, item["cap"])
        return graph, ctx

    def run_search(self, item):
        weights = self.m["weights"]
        graph, ctx = self._graph(item)
        res = weights.search_weight_function(
            graph, ctx, item["denominator_bound"], item["bound"],
            max_candidates=item["max_candidates"])
        found = ("none" if res.found is None else
                 ",".join(f"{p}:{w}" for p, w in sorted(res.found.weights.items())))
        problems = []
        if res.found is not None:
            with self.paused():
                again = weights.check_weight_function(
                    graph, res.found, ctx, bound=item["bound"])
            if not again.passes():
                problems.append("found weight function fails a re-check")
        return {"output": f"found={found} tried={res.tried} capped={res.capped}",
                "decided": res.found is not None or not res.capped,
                "invariants": problems}

    def run_check(self, item):
        weights = self.m["weights"]
        graph, ctx = self._graph(item)
        theta = weights.WeightFunction.uniform(graph, Fraction(item["weight"]))
        report = weights.check_weight_function(
            graph, theta, ctx, mode=item["mode"], bound=item["bound"])
        lines = report.lines() + [f"passes={report.passes()}"]
        return {"output": "\n".join(lines),
                "decided": report.condition_II.status != weights.NOT_CERTIFIED}

    def run_picture(self, item):
        pictures = self.m["pictures"]
        pic, pres = pictures.picture_from_json(item["json"])
        ctx = self.m["coset"].context_for(pres.coeff, item["cap"])
        report = pictures.validate_picture(pic, pres, ctx)
        steps = 0
        while True:
            d = pictures.find_dipole(pic, pres, ctx)
            if d is None:
                break
            pic = pictures.cancel_dipole(pic, d)
            steps += 1
        problems = []
        if len(pic.discs) != 0 or steps != item["copies"]:
            problems.append(f"{len(pic.discs)} discs left after {steps} "
                            f"cancellations, expected 0 after {item['copies']}")
        return {"output": f"valid={report.ok} cancellations={steps} "
                          f"discs={len(pic.discs)}",
                "decided": True, "invariants": problems}


def main(job_path: str) -> None:
    job = json.loads(open(job_path).read())
    _import_relasph(job["src"])
    files = {}
    for n, item in enumerate(job["items"]):
        if "text" in item and item["kind"] == "cli":
            path = os.path.join(job["work"], f"item{n}.txt")
            with open(path, "w") as fh:
                fh.write(item["text"])
            files[item["key"]] = path
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        tracer = tracing.Tracer()
        tracer.install(_modules())
    runner = Runner(files, tracer)
    ready = time.monotonic()
    if job["setup_only"]:
        for path in files.values():
            os.remove(path)
        with open(job["result"], "w") as fh:
            json.dump({"ready_monotonic": ready}, fh)
        return
    rss_ready_kb = _peak_rss_kb()
    results = []
    first = time.perf_counter()
    for item in job["items"]:
        mark = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        try:
            got = runner.run(item)
        except Exception as exc:  # an item that raises counts as failed
            got = {"output": "", "error": f"{type(exc).__name__}: {exc}",
                   "decided": False}
        got["seconds"] = time.perf_counter() - t0
        if tracer:
            got["enumerations"] = tracer.enumerations(mark)
        results.append(got)
    wall = time.perf_counter() - first
    out = {"ready_monotonic": ready, "wall_s": wall, "items": results,
           "rss_ready_kb": rss_ready_kb, "peak_rss_kb": _peak_rss_kb()}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        tracer.write_spans(job["spans"])
    for path in files.values():
        os.remove(path)
    with open(job["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
