"""Tests of the benchmark's own checks: they pass on the program's real
output and fail on corrupted copies of it, and the periodicity check
rejects a known-bad instance.

    python3 -m pytest benchmarks/test_checks.py

Each workload's op list is run once in-process (about 20 s in all).
"""

import copy
import json
import math
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_round  # noqa: E402  (puts the checkout's src/ on sys.path)
import checks as C  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

SEED = 7


@pytest.fixture(scope="module", params=list(W.WORKLOADS))
def real(request):
    plan = W.WORKLOADS[request.param](SEED)
    return request.param, plan, [bench_round.run_op(argv) for argv in plan.ops]


def find(plan, kind, *words, **opts):
    """Index of the first op of this kind whose argv holds every word and
    every --option value given, e.g. find(plan, "ktypes", pair="uu", m="2")."""

    def has(argv, key, val):
        flag = f"--{key.replace('_', '-')}"
        return f"{flag}={val}" in argv or any(a == flag and b == val for a, b in zip(argv, argv[1:]))

    for i, argv in enumerate(plan.ops):
        if argv[0] == kind and all(w in argv for w in words) and all(has(argv, k, v) for k, v in opts.items()):
            return i
    raise LookupError((kind, words, opts))


def mutate(results, i, fn):
    out = copy.deepcopy(results)
    doc = json.loads(out[i]["out"])
    fn(doc)
    out[i]["out"] = json.dumps(doc)
    return out


def scale(factor, row=0):
    def fn(doc):
        v = doc["results"][row]["value"]
        v["re"], v["im"] = v["re"] * factor, v["im"] * factor

    return fn


def flip(row=0):
    return scale(-1.0, row)


def drop(row):
    return lambda doc: doc["results"].pop(row)


def setval(key, value, row=0):
    def fn(doc):
        doc["results"][row][key] = value

    return fn


OFF = 1 + 1e-6


def corruptions(name, plan):
    """(expected failing check, op index, mutation) for one workload."""
    if name == "torus_eval":
        uu = W.TORUS_INSTANCES[0].args()
        singles = [i for i, a in enumerate(plan.ops) if a[0] == "theta" and a[-1].startswith("--theta=") and a[1:-1] == [str(x) for x in uu]]
        return [
            ("periodicity", singles[1], flip()),
            ("periodicity", singles[2], scale(OFF)),
            ("W(K') invariance", singles[-1], scale(OFF)),
            ("numerator/(Delta theta)", find(plan, "numerator"), scale(OFF, row=1)),
            ("theta-closed-u1/theta", find(plan, "theta-closed-u1"), flip(row=3)),
            ("char A5 == bialternant", find(plan, "char", family="A"), scale(OFF, row=5)),
            ("char C3 == bialternant", find(plan, "char", family="C"), flip(row=0)),
            ("rdv == HCIZ", find(plan, "rdv"), scale(OFF)),
        ]
    if name == "formal_series":
        m2 = find(plan, "ktypes", pair="uu", m="2")
        return [
            ("multiplicities", find(plan, "ktypes"), setval("multiplicity", 0, row=3)),
            ("multiplicities", find(plan, "ktypes"), setval("multiplicity", 2, row=0)),
            ("rank-one ladder", find(plan, "ktypes", p="1", q="1", nu="2"), drop(4)),
            ("K-types agree across m", m2, drop(2)),
            ("minimal K-type is the dual lowest weight", find(plan, "ktypes", pair="oeven"), setval("ktype", ["-1", "-4"])),
            ("C_m Theta_m agree across m", find(plan, "theta", pair="uu", m="2"), flip(row=1)),
            ("C_m Theta_m agree across m", find(plan, "theta", pair="uu", m="2"), scale(OFF, row=0)),
            ("constant's lambda-min", find(plan, "constant"), setval("lambda_min", ["0", "0", "0", "0"])),
            ("support table", find(plan, "support"), setval("lo", 1)),
        ]
    if name == "certify":
        return [
            ("grid verdict p=3 q=4 k=2", find(plan, "identity", p="3", q="4", k="2"), setval("verdict", "not-in-asserted-range")),
            ("grid verdict p=3 q=4 k=6", find(plan, "identity", p="3", q="4", k="6"), setval("verdict", "proved")),
            ("random verdict", find(plan, "identity", mode="random"), setval("verdict", "failed")),
            ("Monte-Carlo within 4 standard errors", find(plan, "oracle", method="mc"), _shift_by_stderr(5.0)),
            ("hciz oracle", find(plan, "oracle", method="hciz"), scale(OFF)),
        ]
    return [
        ("periodicity", find(plan, "theta", pair="oodd"), scale(1 - 1e-6)),
        ("periodicity", find(plan, "theta", pair="ostar"), scale(OFF)),
        ("C_m Theta_m agree across m", find(plan, "theta", pair="uu", p="2", m="1"), flip()),
        ("rank-one ladder", find(plan, "ktypes", p="1", q="1"), drop(1)),
        ("multiplicities", find(plan, "ktypes", pair="oeven"), setval("multiplicity", -1, row=1)),
        ("minimal K-type is the dual lowest weight", find(plan, "ktypes", pair="ostar"), setval("ktype", ["-2", "-1"])),
        ("support table", find(plan, "support", pair="oodd"), setval("lo", 5)),
    ]


def _shift_by_stderr(sigmas):
    def fn(doc):
        r = doc["results"][0]
        r["value"]["re"] += sigmas * r["stderr"]

    return fn


def test_real_output_passes_every_check(real):
    name, plan, results = real
    failed, why = run.judge(plan, results)
    assert not failed, why


def test_every_op_is_checked(real):
    _, plan, _ = real
    covered = {i for c in plan.checks for i in c.ops}
    assert covered == set(range(len(plan.ops)))


def test_corrupted_output_fails_its_check(real):
    name, plan, results = real
    for check_name, i, fn in corruptions(name, plan):
        failed, why = run.judge(plan, mutate(results, i, fn))
        assert i in failed, (check_name, plan.ops[i])
        assert any(check_name in line for line in why), (check_name, why)


def test_nonzero_exit_fails_the_op(real):
    _, plan, results = real
    bad = copy.deepcopy(results)
    bad[0] = {"rc": 1, "s": 0.0, "out": "", "err": "SingularPoint: boom"}
    failed, _ = run.judge(plan, bad)
    assert 0 in failed


def test_periodicity_rejects_oodd_with_m_above_n():
    """oodd-sp(1;2) nu=(0) is not a genuine character of the double cover."""
    inst = W.Instance("oodd", 1, "0", m=2)
    base = W.regular_point(random.Random(SEED), "C", inst.rank)
    docs = []
    for k in (None, 0, 1):
        pt = list(base)
        if k is not None:
            pt[k] += 2 * math.pi
        r = bench_round.run_op(["theta", *map(str, inst.args()), W.theta_arg(pt)])
        assert r["rc"] == 0, r["err"]
        docs.append(json.loads(r["out"]))
    with pytest.raises(C.CheckFailed):
        C.check_periodic(C.value(docs[0]["results"][0]), [C.value(d["results"][0]) for d in docs[1:]])


def test_independent_formulas_on_known_values():
    # s_(1,0)(x1, x2) = x1 + x2 and the C1 character of (1) is x + 1/x
    th = (0.3, 1.9)
    assert abs(C.bialternant_a((1, 0), th) - sum(complex(math.cos(t), math.sin(t)) for t in th)) < 1e-12
    assert abs(C.bialternant_c((1,), (0.7,)) - 2 * math.cos(0.7)) < 1e-12
    # the rank-one transform of lam = (1, 0) at x = (pi, 0) is 2i/pi
    assert abs(C.hciz_fourier((1, 0), (math.pi, 0.0)) - 2j / math.pi) < 1e-12
    assert C.expected_verdict(2, 2, 2) == "proved" and C.expected_verdict(2, 2, 3) == "not-in-asserted-range"


def test_benchmark_json_lists_what_the_runner_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bm = json.load(fh)
    assert [w["name"] for w in bm["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bm["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bm["per_layer"]] == list(run.layers.PER_LAYER)


def test_hd_median_weights():
    # Beta(2, 2) has CDF 3x^2 - 2x^3, so n = 3 weighs the order statistics 7/27, 13/27, 7/27
    # (to the accuracy of the integration grid)
    assert abs(run.hd_median([5.0, 0.0, 0.0]) - 5 * 7 / 27) < 1e-4
    assert run.hd_median([4.0]) == 4.0
    assert abs(run.hd_median([1.0, 3.0]) - 2.0) < 1e-12
    # symmetric data: the estimate is the centre, whatever the gaps
    assert abs(run.hd_median([1.0, 2.0, 10.0, 18.0, 19.0]) - 10.0) < 1e-9
