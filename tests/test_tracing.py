"""The span tracer in ``perfbench/tracing.py`` reaches into the package by
name and by functor field.  This runs it in a subprocess, so that its
patching stays out of the other tests, and checks that the closed forms
and step relations that functor objects carry are still traced."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import poslog.cli
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
d = sys.argv[2]
runs = [["posetify", "--functor", fn, "--poset", d + "/chain2.json", "--method", "both"]
        for fn in ("pow", "mnb", "nb", "bag:2", "poly:sigma=f:2:1,c:0:2")]
runs.append(["positivize", "--syntax", "dunn", "--lattice", d + "/threechain.json",
             "--check-closed-form"])
runs.append(["interpret", "--coalgebra", d + "/coalg.json", "--valuation",
             d + "/val.json", "--formula", "(dia p)", "--mode", "both"])
codes = []
for argv in runs:
    tracer.begin(argv[0])
    codes.append(poslog.cli.main(argv))
print(json.dumps({"codes": codes,
                  "spans": sorted(set(s[0] for s in tracer.spans()))}))
"""


def test_tracer_records_the_closed_forms_carried_by_functors(tmp_path):
    files = {"chain2.json": {"elements": ["p", "q"], "leq": [["p", "q"]]},
             "threechain.json": {"type": "dl", "spectrum": {"elements": ["p", "q"],
                                                            "leq": [["p", "q"]]}},
             "coalg.json": {"carrier": {"elements": ["x", "y"], "leq": [["x", "y"]]},
                            "structure": {"x": ["y"], "y": ["y"]}},
             "val.json": {"p": ["y"]}}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    r = subprocess.run([sys.executable, "-c", SCRIPT, ROOT, str(tmp_path)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 7
    spans = set(report["spans"])
    want = {f"posetify.closed_form.{key}" for key in ("pow", "mnb", "nb", "analytic")}
    want |= {"functors.step_relation.bag", "functors.step_relation.poly"}
    assert want <= spans, sorted(want - spans)
