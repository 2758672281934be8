"""The ``cli`` workload: every verb as its own ``python -m gradix.cli`` process.

A round runs, one child at a time (a closed loop), each verb on generated
spec files, then every file of ``fixtures/broken/`` (each must exit 1 and
name the invariant its manifest gives), then three probes of malformed
input that must exit 2 without a traceback.  The inputs are small enough
that interpreter start, import, spec parsing and constructor validation
dominate; a full-support ring on 12 objects and a group of order 64 keep
validation visible.  Outputs are read with ``--emit json``.
"""

import json
import os
import random
import subprocess
import sys
import time

import checks
import gen
from harness import Job
from ref import Field, Groupoid, cyclic, direct_product, mat_mul, symmetric3

# Malformed input that must end in exit 2 with no traceback.  The spec
# loader does not check the type of these slots, so each one escapes as a
# TypeError from ConnectedBlock or RawCategory (exit 1, traceback); they
# count as failed operations until the loader checks slot types.
PROBES = {
    "probe_blocks_int.json": {"blocks": 5},
    "probe_objects_int.json": {"blocks": [{"objects": 3, "group": {"mult": [[0]]}}]},
    "probe_raw_list_names.json": {
        "raw_category": {"field": {"kind": "Q"}, "objects": [["a"], ["b"]], "homs": [], "identities": {}}
    },
}


def raw_groupoid(rng, groupoid):
    """The explicit composition-table form of a block groupoid, morphism ids shuffled."""
    morphisms = list(groupoid.morphisms())
    rng.shuffle(morphisms)
    ids = {m: k for k, m in enumerate(morphisms)}
    table = []
    for s in morphisms:
        for t in morphisms:
            st = groupoid.compose(s, t)
            if st is not None:
                table.append([ids[s], ids[t], ids[st]])
    return {
        "raw": {
            "objects": groupoid.objects(),
            "morphisms": [{"source": m[3], "target": m[1]} for m in morphisms],
            "compose": table,
        }
    }


def make(seed):
    """Spec files (as data) and the facts each verb's output must match."""
    rng = random.Random(seed)
    fp, q = Field(gen.P), Field(None)
    files, facts = {}, {}

    ring12 = gen.full_ring(fp, Groupoid([(range(12), cyclic(1))]), rng)
    files["ring12.json"] = ring12.spec()
    facts["ring12"] = {"kind": "ring", "support": 144, "objects": 12, "prime": True}

    c4 = cyclic(4)
    g64 = Groupoid([((0, 1), direct_product(c4, direct_product(c4, c4))), ((2,), cyclic(2))])
    files["g64.json"] = g64.spec()
    facts["g64"] = {"kind": "groupoid", "blocks": 2, "objects": 3}

    files["raw.json"] = raw_groupoid(rng, Groupoid([(range(4), cyclic(3)), ((4, 5), cyclic(2))]))
    facts["raw"] = {"kind": "groupoid", "blocks": 2, "objects": 6}

    sparse = gen.full_ring(fp, Groupoid([(range(6), cyclic(2))]), rng)
    m = gen.of_rank(rng, sparse, 10, 9, 5)
    files["rank.json"] = dict(m.spec(fp), ring=sparse.spec())
    facts["rank"] = 5

    dense_fp = gen.full_ring(fp, Groupoid([((0,), symmetric3())]), rng)
    a = gen.invertible(rng, dense_fp, 8)
    files["invert.json"] = dict(a.spec(fp), ring=dense_fp.spec())
    facts["invert"] = (dense_fp, a)

    dense_q = gen.full_ring(q, Groupoid([((0,), symmetric3())]), rng)
    a = gen.invertible(rng, dense_q, 6)
    rhs = mat_mul(dense_q, a, gen.column(rng, dense_q, a.col_sig))
    files["solve_a.json"] = dict(a.spec(q), ring=dense_q.spec())
    files["solve_b.json"] = dict(rhs.spec(q), ring=dense_q.spec())
    facts["solve"] = (dense_q, a, rhs)

    span = gen.Span(rng, dense_fp, 6, 3, 4)
    files["span.json"] = span.spec(dense_fp.spec())
    facts["module"] = {"pdim": 6, "span_pdim": 3, "quotient_pdim": 3}

    ss = gen.Semisimple(rng, q, 7, 4, (3, 3), (4, 2), (1, 2), 1)
    files["mring.json"] = ss.spec()
    facts["mring"] = (ss.block_sizes(), {"gr_simple": False, "gr_division": ss.gr_division(), "pfm": ss.pfm()})
    ss6 = gen.Semisimple(rng, q, 6, 2, (2, 2, 2), (2, 2, 1), (2, 1, 1), 1)
    files["iso_a.json"] = ss6.spec()
    files["iso_b.json"] = ss6.iso_copy(rng)

    cat = gen.Category(rng, q, [(1, 0), (0, 1), (1, 1), (2, 0), (1, 0)])
    files["cat.json"] = cat.spec()
    facts["cat"] = ({(a, b): cat.hom_dim(a, b) for a in cat.objects for b in cat.objects}, cat.flags())
    files.update(PROBES)
    return files, facts


def verb_checks(facts, path):
    """(verb, argv, check of the parsed ``gradix/1`` record) for one round; ``path`` places a file name."""

    def record_has(want):
        return lambda rec: all(rec.get(k) == v for k, v in want.items())

    def ranks(rec):
        values = (rec["rho_r"], rec["rho_c"], rec["rho"], rec["rho_i"], rec["rho_i_skipped"])
        return checks.ranks(values, facts["rank"], skipped=True)

    def inverse(rec):
        ring, a = facts["invert"]
        return rec["invertible"] and checks.inverse(ring, a, checks.from_json(ring.field, rec["inverse"]))

    def solution(rec):
        ring, a, rhs = facts["solve"]
        return rec["solvable"] and checks.solution(ring, a, checks.from_json(ring.field, rec["solution"]), rhs)

    sizes, flags = facts["mring"]
    dims, cat_flags = facts["cat"]

    def blocks(rec):
        return checks.decomposition([b["size"] for b in rec["blocks"]], sizes)

    return [
        ("validate", ["validate", path("ring12.json")], record_has(facts["ring12"])),
        ("validate", ["validate", path("g64.json")], record_has(facts["g64"])),
        ("validate", ["validate", path("raw.json")], record_has(facts["raw"])),
        ("rank", ["rank", path("rank.json")], ranks),
        ("invert", ["invert", path("invert.json")], inverse),
        ("solve", ["solve", path("solve_a.json"), path("solve_b.json")], solution),
        (
            "classify",
            ["classify", path("mring.json")],
            lambda rec: checks.flags(rec["flags"], flags) and blocks(rec),
        ),
        ("decompose", ["decompose", path("mring.json")], blocks),
        ("iso", ["iso", path("iso_a.json"), path("iso_b.json")], lambda rec: checks.iso(rec["isomorphic"], True)),
        ("module", ["module", path("span.json")], record_has(facts["module"])),
        (
            "category_classify",
            ["category", "classify", path("cat.json")],
            lambda rec: checks.flags(rec["flags"], cat_flags),
        ),
        (
            "category_to_ring",
            ["category", "to-ring", path("cat.json")],
            lambda rec: checks.hom_dims({(a, b): d for a, b, d in rec["dims"]}, dims),
        ),
    ]


class Runner:
    """Runs one child process with the checkout's ``src`` on its path and times it."""

    def __init__(self, root):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.root = root

    def gradix(self, argv):
        return self.run([sys.executable, "-m", "gradix.cli", *argv])

    def run(self, cmd):
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def timed(self, cmd):
        t0 = time.perf_counter()
        self.run(cmd)
        return time.perf_counter() - t0


def write_files(workdir, files):
    os.makedirs(workdir, exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def broken_corpus(root):
    """(file path, invariant) for every file of the broken-fixture manifest."""
    folder = os.path.join(root, "fixtures", "broken")
    with open(os.path.join(folder, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return [(os.path.join(folder, name), invariant) for name, invariant in sorted(manifest.items())]


def round_plan(facts, corpus, path):
    """(job name, argv, judge of (exit code, stdout, stderr), probe?) for each child of a round, in order."""

    def parsed(check):
        return lambda out: out[0] == 0 and check(json.loads(out[1]))

    plan = [(verb, [*argv, "--emit", "json"], parsed(check), False) for verb, argv, check in verb_checks(facts, path)]
    plan += [
        ("reject", ["validate", file], lambda out, inv=inv: checks.rejection(out[0], out[2], inv), False)
        for file, inv in corpus
    ]
    plan += [
        ("probe", ["validate", path(name)], lambda out: checks.clean_usage_error(out[0], out[2]), True)
        for name in PROBES
    ]
    return plan


def jobs(runner, plan):
    return [Job(name, lambda argv=argv: runner.gradix(argv), judge, probe) for name, argv, judge, probe in plan]
