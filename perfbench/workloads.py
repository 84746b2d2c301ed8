"""Workloads of the mckay benchmark: their inputs, job lists and output checks.

A workload is a list of jobs run one after another in one worker process
(one *pass*).  A job is either one ``mckay.cli.main(argv)`` call or, for
``toric_dim4``, one short chain of public library calls.  The seed picks
units and exponents only: every family fixes the group order or lattice
index, so a new seed changes the inputs but not the amount of work.

Every job is checked after the pass: its exit code against the expected
one, its stdout digest against the digests recorded in ``expected.json``
(for ``corpus`` and, on the other workloads, for ``DEFAULT_SEED``), and
seed-independent invariants of its output for any seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

DEFAULT_SEED = 1

# corpus: every command on every file in groups/.  These are the real user
# files: small nonabelian groups over dense low-degree fields, so Fraction
# arithmetic in cyclo and linalg dominates, and icosahedral60 alone is about
# two thirds of the pass.  Expected exit-3 jobs (betti on a 2-dimensional
# group, ...) stay in, because users run them too.
CORPUS_MATRIX = ("bd8", "bd12", "bt48", "trihedral27", "icosahedral60")
CORPUS_DIAGONAL = ("cyclic_7_124", "terminal_5_1423")
CORPUS_DIMENSION = {"bd8": 2, "bd12": 2, "bt48": 2, "trihedral27": 3,
                    "icosahedral60": 3, "cyclic_7_124": 3, "terminal_5_1423": 4}

# abelian_scale: 3-dimensional diagonal SL groups (1/r)(1,r-1,0),
# (1/r)(0,u,r-u) of order r^2, u a seeded unit mod r (the group does not
# depend on u, only its generators do).  Many elements with cheap, sparse
# entries make the |G|^2 conjugacy-class loop and the per-member grading in
# matgroup/age dominate; the toric jobs spend nearly all their time in a
# group closure they do not need.  r = 7 and 8 would take 12 s a pass and
# leave too few passes in one run.
ABELIAN_ORDERS = (5, 6)
ABELIAN_COMMANDS = (("classes",), ("betti",), ("toric", "resolve"),
                    ("toric", "check"), ("ram", "--class", "1"))

# cyclic_prime: the cyclic SL groups (1/p)(1,a,p-1-a), written by a seeded
# generator g^u, u a unit mod p.  Same cyclo layer as corpus, used
# differently: the group is tiny and the field degree is p-1 (10 to 16,
# against at most 8 on the corpus), so dense high-degree multiplication in
# the age.eigen_exponents trace formula dominates and the |G|^2 term is
# negligible.  A CycNum representation tuned for low degree could regress
# here.  The seed picks the generator, not a: how dense the entries of the
# group elements are depends on a, and with it the amount of work.
CYCLIC_GROUPS = ((11, 3), (13, 3), (17, 3))  # (p, a)
CYCLIC_COMMANDS = (("classes",), ("betti",), ("ram", "--class", "1"))

# toric_dim4: 4-dimensional overlattices (1/r)(1,r-1,0,0), (1/r)(0,u,r-u,0),
# (1/r)(0,0,v,r-v) of index r^3 with u, v seeded units, plus the corpus
# file terminal_5_1423.grp and a seeded cyclic (1/p)(1,p-1,a,p-a) without
# junior points, both failing condition (i).  Each job is the n = 4 work
# of `mckay toric check` without the group closure the CLI does by
# accident, which would hide it: only the toric layer works here, through
# the multiset search of condition_i, so a matrix-side change should show
# no change on this workload.
DIM4_ORDERS = (5, 6)
DIM4_CYCLIC_PRIME = 7


@dataclass(frozen=True)
class Job:
    """One unit of work.  ``argv`` is a CLI argument list; ``chain`` names
    the .grp file of a toric_dim4 library-call chain instead."""

    id: str
    argv: tuple[str, ...] = ()
    chain: str = ""
    expect_rc: int = 0
    facts: tuple[tuple[str, object], ...] = ()  # seed-independent expectations

    def fact(self, name):
        return dict(self.facts)[name]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    inputs: tuple[str, ...]  # every .grp file the pass reads, relative paths


def _units(r: int) -> list[int]:
    return [u for u in range(1, r) if gcd(u, r) == 1]


def _write_grp(directory: Path, stem: str, comment: str, dimension: int,
               generators) -> str:
    lines = [f"# {comment}", "format diagonal", f"dimension {dimension}"]
    lines += [f"generator {r} : {' '.join(map(str, exps))}" for r, exps in generators]
    path = directory / f"{stem}.grp"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path.as_posix()


def _job_id(cmd, stem: str) -> str:
    """e.g. ("toric", "resolve") on ab_r6 -> "toric_resolve:ab_r6"."""
    return "_".join(word for word in cmd if word.isalpha()) + ":" + stem


def _cli_jobs(path: str, stem: str, commands, facts) -> list[Job]:
    return [Job(id=_job_id(cmd, stem), argv=(*cmd, path), facts=facts)
            for cmd in commands]


def corpus(seed: int, directory: Path) -> Workload:
    del seed, directory  # the corpus is the committed files
    jobs, inputs = [], []
    for stem in CORPUS_MATRIX + CORPUS_DIAGONAL:
        path = f"groups/{stem}.grp"
        inputs.append(path)
        dim = CORPUS_DIMENSION[stem]
        commands = [("info",), ("classes",), ("betti",)]
        if stem in CORPUS_MATRIX:
            commands.append(("diagram",))
        else:
            commands += [("toric", a) for a in ("juniors", "box", "resolve", "check")]
        commands.append(("ram", "--class", "1"))
        for cmd in commands:
            rc = 0
            if cmd == ("betti",) and dim != 3:
                rc = 3
            elif cmd == ("diagram",) and dim != 2:
                rc = 3
            elif cmd == ("toric", "resolve") and dim not in (2, 3):
                rc = 3
            jobs.append(Job(id=_job_id(cmd, stem), argv=(*cmd, path), expect_rc=rc))
    return Workload("corpus", tuple(jobs), tuple(inputs))


def abelian_scale(seed: int, directory: Path) -> Workload:
    rng = random.Random(f"abelian_scale:{seed}")
    jobs, inputs = [], []
    for r in ABELIAN_ORDERS:
        u = rng.choice(_units(r))
        stem = f"ab_r{r}"
        path = _write_grp(directory, stem, f"(1/{r})(1,{r - 1},0) + (1/{r})(0,{u},{r - u})",
                          3, [(r, (1, r - 1, 0)), (r, (0, u, r - u))])
        inputs.append(path)
        jobs += _cli_jobs(path, stem, ABELIAN_COMMANDS, (("order", r * r),))
    return Workload("abelian_scale", tuple(jobs), tuple(inputs))


def cyclic_prime(seed: int, directory: Path) -> Workload:
    rng = random.Random(f"cyclic_prime:{seed}")
    jobs, inputs = [], []
    for p, a in CYCLIC_GROUPS:
        u = rng.choice(_units(p))
        exps = tuple(u * e % p for e in (1, a, p - 1 - a))
        stem = f"cp_p{p}"
        path = _write_grp(directory, stem, f"(1/{p})(1,{a},{p - 1 - a}) to the power {u}",
                          3, [(p, exps)])
        inputs.append(path)
        jobs += _cli_jobs(path, stem, CYCLIC_COMMANDS, (("order", p),))
    return Workload("cyclic_prime", tuple(jobs), tuple(inputs))


def toric_dim4(seed: int, directory: Path) -> Workload:
    rng = random.Random(f"toric_dim4:{seed}")
    jobs, inputs = [], []
    for r in DIM4_ORDERS:
        u, v = rng.choice(_units(r)), rng.choice(_units(r))
        stem = f"t4_r{r}"
        path = _write_grp(
            directory, stem,
            f"(1/{r})(1,{r - 1},0,0) + (1/{r})(0,{u},{r - u},0) + (1/{r})(0,0,{v},{r - v})",
            4, [(r, (1, r - 1, 0, 0)), (r, (0, u, r - u, 0)), (r, (0, 0, v, r - v))])
        inputs.append(path)
        jobs.append(Job(id=f"chain:{stem}", chain=path,
                        facts=(("index", r ** 3), ("condition_i", True))))
    p = DIM4_CYCLIC_PRIME
    a = rng.randrange(1, p)
    path = _write_grp(directory, f"t4_cyclic_p{p}", f"(1/{p})(1,{p - 1},{a},{p - a})",
                      4, [(p, (1, p - 1, a, p - a))])
    inputs.append(path)
    jobs.append(Job(id=f"chain:t4_cyclic_p{p}", chain=path,
                    facts=(("index", p), ("condition_i", False))))
    path = "groups/terminal_5_1423.grp"
    inputs.append(path)
    jobs.append(Job(id="chain:terminal_5_1423", chain=path,
                    facts=(("index", 5), ("condition_i", False))))
    return Workload("toric_dim4", tuple(jobs), tuple(inputs))


# BENCHMARK.json lists corpus and toric_dim4 only: all four workloads take
# 3 to 11 s a pass, and on a shared 2-core host a steady median needs runs
# of about a minute, which the time allowed for all runs of the benchmark
# fits for two workloads, not four.  corpus reaches every layer and
# toric_dim4 is the one that leaves the matrix side out.  abelian_scale and
# cyclic_prime run the same way when named with --workload.
BUILDERS = {
    "corpus": corpus,
    "abelian_scale": abelian_scale,
    "cyclic_prime": cyclic_prime,
    "toric_dim4": toric_dim4,
}


def build(name: str, seed: int, directory: Path) -> Workload:
    """Write the workload's generated inputs for `seed` into `directory`
    and return its job list."""
    directory.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, directory)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_object(text: str) -> dict | None:
    try:
        obj = json.loads(text)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def check_pass(workload: Workload, results: dict[str, dict],
               expected: dict[str, dict] | None) -> dict[str, str]:
    """Check one pass.  `results` maps job id to {"rc", "stdout"};
    `expected` maps job id to the recorded {"rc", "sha256"}, or is None when
    no digests apply.  Returns job id -> reason for every failed job."""
    failed: dict[str, str] = {}
    for job in workload.jobs:
        res = results.get(job.id)
        if res is None:
            failed[job.id] = "no result"
        elif res["rc"] != job.expect_rc:
            failed[job.id] = f"exit code {res['rc']}, expected {job.expect_rc}"
        elif expected is not None and job.id in expected and (
                expected[job.id]["rc"] != res["rc"]
                or expected[job.id]["sha256"] != digest(res["stdout"])):
            failed[job.id] = "stdout differs from the recorded digest"
    invariants = _INVARIANTS.get(workload.name)
    if invariants:
        outputs = {}
        for job_id, res in results.items():
            outputs[job_id] = _json_object(res["stdout"])
            if outputs[job_id] is None:
                failed.setdefault(job_id, "stdout is not a JSON object")
                del outputs[job_id]
        for job_id, reason in invariants(workload, outputs).items():
            failed.setdefault(job_id, reason)
    return failed


def _abelian_invariants(workload, outputs):
    """order = class count = r^2 on every job; the age-1 class count from
    `classes` equals the crepant divisor count of the toric side."""
    failed = {}
    for job in workload.jobs:
        if job.id not in outputs:
            continue
        group = outputs[job.id].get("group", {})
        if not group.get("order") == group.get("class_count") == job.fact("order"):
            failed[job.id] = (f"order/class count {group.get('order')}/"
                              f"{group.get('class_count')}, expected {job.fact('order')}")
    for stem in {job.id.split(":")[1] for job in workload.jobs}:
        classes = outputs.get(f"classes:{stem}")
        resolve = outputs.get(f"toric_resolve:{stem}")
        if not classes or not resolve:
            continue
        juniors = sum(1 for c in classes.get("classes", []) if c.get("age") == 1)
        if juniors != resolve.get("crepant_divisor_count"):
            reason = (f"{juniors} junior classes but crepant divisor count "
                      f"{resolve.get('crepant_divisor_count')}")
            failed.setdefault(f"classes:{stem}", reason)
            failed.setdefault(f"toric_resolve:{stem}", reason)
    return failed


def _cyclic_invariants(workload, outputs):
    """order = class count = Euler number = p."""
    failed = {}
    for job in workload.jobs:
        if job.id not in outputs:
            continue
        out, p = outputs[job.id], job.fact("order")
        group = out.get("group", {})
        if not group.get("order") == group.get("class_count") == p:
            failed[job.id] = "order or class count differs from p"
        elif job.argv[0] == "betti" and out.get("euler") != p:
            failed[job.id] = f"Euler number {out.get('euler')}, expected {p}"
    return failed


def _dim4_invariants(workload, outputs):
    """index = r^3 (p for the cyclic specs); the expected condition (i)."""
    failed = {}
    for job in workload.jobs:
        out = outputs.get(job.id)
        if out is None:
            continue
        if out.get("index") != job.fact("index"):
            failed[job.id] = f"index {out.get('index')}, expected {job.fact('index')}"
        elif out.get("condition_i") is not job.fact("condition_i"):
            failed[job.id] = f"condition (i) is {out.get('condition_i')}"
    return failed


_INVARIANTS = {
    "abelian_scale": _abelian_invariants,
    "cyclic_prime": _cyclic_invariants,
    "toric_dim4": _dim4_invariants,
}
