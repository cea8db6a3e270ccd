"""cli-session: a seeded script of CLI commands run through rmcodes.cli.main.

Every verb runs at least once: two large field descriptions (gf(2,1,20),
gf(3,1,10)), all five verify-paper examples, and seven chains that build a
Gabidulin code and push it through expand, compress, lift, unlift, mindist,
dist, apply, equiv, aut --oracle, compose and order, using files the script
writes itself.  A job is one call of rmcodes.cli.main(argv) in the client
process, in the pass directory, with its standard output captured, so
argument parsing, file I/O and each command's own work are what it times.
The set-up imports rmcodes.cli and builds the session's towers, so costs
moved into import or tower construction show in setup_s.

A fresh interpreter per command would also time start-up and import in
every job, but at about 0.08 s a process only three or four passes of the
script fit in a run, and on a shared two-core host the fastest of so few
repetitions still spread by more than the bound from run to run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import re

import rmcodes as rm
import rmcodes.cli

import gen
from harness import Job, interleave

FIELDS = ((2, 1, 20), (3, 1, 10))  # the two large field descriptions
EXAMPLES = ("berger-counterexample", "f16-aut", "f64-not-gabidulin",
            "f64-not-direct-product", "distance-law")
# (p, m), Gabidulin length l (k = 1), expansion basis; codes stay <= 32 words
CHAINS = [((2, 3), 2, "power"), ((2, 4), 3, "normal"), ((3, 3), 2, "power"),
          ((2, 5), 3, "normal"), ((2, 4), 2, "power"), ((3, 3), 2, "normal"),
          ((2, 5), 3, "power")]


class Step:
    def __init__(self, name, argv, check=None):
        self.name = name
        self.argv = argv
        self.check = check


def _stdout_has(pattern):
    return lambda r, done: re.search(pattern, r[1], re.M) is not None


def _vector(tower, n, rnd):
    return ",".join(str(tower.element(rnd.randrange(tower.order))) for _ in range(n))


def _chain(i, p, m, l, basis, rnd):
    tower = rm.make_tower(p, 1, m)
    field = f"gf({p},1,{m})"
    n = l + m
    g = gen.gab_vector(tower, l, rnd)
    pivots = tuple(range(1, l + 1))  # unlift needs a lift whose words share RREF pivots
    # The middle map of the canonical enumeration: are_equivalent finds the
    # image of the code about halfway through the group on every seed, and
    # the map's order is fixed.  A random map would make the cost of the
    # equiv and order jobs a draw of the seed.
    middle = rm.group_order(tower, l, "rm-linear") // 2
    rm_linear = next(itertools.islice(rm.enumerate_rm_maps(tower, l), middle, None))
    if i % 2 == 0:
        maps = [rm.rm_map(gen.random_element(tower, rnd), gen.invertible(tower, l, rnd),
                          rnd.randrange(tower.degree)) for _ in range(2)]
    else:
        maps = [rm.mat_map(gen.invertible(tower, l, rnd), gen.invertible(tower, m, rnd))
                for _ in range(2)]
    mat_x = rm.mat_map(gen.invertible(tower, l, rnd), gen.invertible(tower, m, rnd))
    c, mc, sc, uc, ac = (f"{x}{i}.code" for x in "cmsua")
    name = f"chain{i}"
    steps = [
        Step(f"{name}/gab", ["gab", "--field", field, "--g", ",".join(map(str, g)),
                             "--k", "1", "--out", c], _stdout_has(rf"^d_R,min={l}$")),
        Step(f"{name}/expand", ["expand", "--code", c, "--basis", basis, "--out", mc]),
        Step(f"{name}/compress", ["compress", "--code", mc, "--basis", basis,
                                  "--out", f"r{i}.code"]),
        Step(f"{name}/lift", ["lift", "--code", mc, "--pivots", ",".join(map(str, pivots)),
                              "--out", sc]),
        Step(f"{name}/unlift", ["unlift", "--code", sc, "--out", uc],
             _stdout_has(re.escape(f"pivots: {list(pivots)}"))),
        Step(f"{name}/mindist-subspace", ["mindist", "--code", sc],
             _stdout_has(rf"^d_S,min = {2 * l}$")),
        Step(f"{name}/mindist-matrix", ["mindist", "--code", uc],
             _stdout_has(rf"^d_R,min = {l}$")),
        Step(f"{name}/dist-rank", ["dist", "--field", field, "--kind", "rank",
                                   "--u", _vector(tower, l, rnd), "--v", _vector(tower, l, rnd),
                                   "--basis", basis]),
        Step(f"{name}/dist-subspace", ["dist", "--field", field, "--kind", "subspace",
                                       "--u", str(gen.base_matrix(tower, 2, n, rnd)),
                                       "--v", str(gen.base_matrix(tower, 2, n, rnd))]),
        Step(f"{name}/apply-code", ["apply", "--field", field, "--map", str(rm_linear),
                                    "--code", c, "--out", ac]),
        Step(f"{name}/equiv", ["equiv", "--code", c, "--code2", ac, "--mode", "rm-linear"],
             _stdout_has(r"^EQUIVALENT after")),
        Step(f"{name}/aut", ["aut", "--code", c, "--oracle"], _stdout_has(r"; MATCH$")),
        Step(f"{name}/compose", ["compose", "--field", field,
                                 "--map", str(maps[0]), "--map", str(maps[1])]),
        Step(f"{name}/order", ["order", "--field", field, "--map", str(rm_linear)]),
        Step(f"{name}/apply-x", ["apply", "--field", field, "--map", str(mat_x),
                                 "--x", str(gen.base_matrix(tower, l, m, rnd))]),
    ]
    if i == 0:
        image = f"n{i}.code"
        steps += [
            Step(f"{name}/aut-matrix", ["aut", "--code", mc, "--oracle"],
                 _stdout_has(r"MATCH$")),
            Step(f"{name}/apply-matrix-code", ["apply", "--field", field, "--map", str(mat_x),
                                               "--code", mc, "--out", image]),
            Step(f"{name}/equiv-matrix", ["equiv", "--code", mc, "--code2", image,
                                          "--mode", "mat-linear"],
                 _stdout_has(r"^EQUIVALENT after")),
        ]
    return steps


def setup(seed):
    """The script as sequences of steps; each chain runs in its own order."""
    rnd = random.Random(seed)
    for field in FIELDS:  # the chains build their towers as they draw inputs
        rm.make_tower(*field)
    specs = [f"gf({p},{e},{m})" for p, e, m in FIELDS]
    units = [[Step(f"field/{spec}", ["field", "--field", spec])] for spec in specs]
    # verify-paper at its default seed: the seed of the distance-law example
    # changes that job's cost fourfold.
    units += [[Step(f"verify/{ex}", ["verify-paper", "--example", ex],
                    _stdout_has(rf"^example {ex}: PASS$"))] for ex in EXAMPLES]
    for i, ((p, m), l, basis) in enumerate(CHAINS):
        units.append(_chain(i, p, m, l, basis, rnd))
    return units


def _run_cli(argv, cwd):
    """(exit code, standard output) of one command, run in directory cwd."""
    out = io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            code = rmcodes.cli.main(argv)
    finally:
        os.chdir(home)
    return code, out.getvalue()


def _ok(check):
    def run(result, done):
        return result[0] == 0 and (check is None or check(result, done))
    return run


def jobs(units, passdir):
    passdir.mkdir(parents=True, exist_ok=True)
    out = []
    for unit in units:
        seq = []
        out.append(seq)
        for step in unit:
            seq.append(Job(step.name, lambda done, argv=step.argv: _run_cli(argv, passdir),
                           lambda r: f"exit={r[0]}\n{r[1]}", _ok(step.check)))
    return interleave(out)
