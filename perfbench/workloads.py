"""The benchmark's workloads: which ops each one runs, the work each op does,
and how each op's output is checked.  Why each workload exists is recorded
in BENCHMARK.json.

An op is one CLI command run in-process through ``corebound.cli.main(argv)``,
except ``exact_local``, which no CLI route reaches and which is called as a
library function.  The workload seed shuffles the op order and, for Monte
Carlo ops, derives each op's ``--seed``; the library sees only the argv.

Output checks (a failed check counts the op as failed):

* every op: exit code 0, and the same argv repeated in one run prints
  identical bytes (checked by the harness);
* Monte Carlo ops: at the seed the reference was recorded with, stdout
  equals the recorded bytes exactly; at any other seed, the mean lies in
  [0, 1] and within ``Z_LIMIT`` combined standard errors (plus one trial)
  of the recorded mean;
* formula points: the header, ``v``, ``p`` and every validity flag equal
  the recorded ones; a valid value agrees with the recorded one within
  ``REL_TOL`` (or ``ABS_TOL``); an invalid value is compared by flag only;
  a valid value is never below 0, and a valid lower bound never above 1.
  The global connectivity, covering and interleaved-upper columns are
  geometric-series upper bounds, which the library flags valid above 1
  with the note "vacuous upper bound (> 1)": such a value is a true upper
  bound, so it is not a failure;
* breakdown scans, oracle values and ``exact_local``: stdout equals the
  recorded bytes exactly (they do not depend on the seed), and the oracle
  values lie in [0, 1].
"""
from __future__ import annotations

import csv
import math
import random
import re
from dataclasses import dataclass, replace

from corebound.numerics import choose

DEFAULT_SEED = 0
REL_TOL = 1e-9
ABS_TOL = 1e-15
Z_LIMIT = 6.0
UPPER_BOUND_COLUMNS = ("connectivity", "covering", "interleaved_upper")


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` picks how it runs, counts work and is checked."""

    kind: str  # "mc", "formula", "breakdown", "oracle" or "exact_local"
    argv: tuple[str, ...]  # CLI argv; for exact_local the call's (u, k, p, r)
    seed: int | None = None  # Monte Carlo ops only: appended as --seed

    @property
    def label(self) -> str:
        """Seed-free identity, the key of the op's recorded reference."""
        return " ".join((self.kind,) + self.argv) if self.kind == "exact_local" else " ".join(self.argv)

    @property
    def cli_argv(self) -> list[str]:
        seed = [] if self.seed is None else ["--seed", str(self.seed)]
        return [*self.argv, *seed]


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    pass_s: float  # nominal seconds per pass: a run of S seconds does S / pass_s passes
    base: tuple[Op, ...]
    smoke: tuple[int, ...]  # indices into ``base`` forming the smoke-size pass
    warmup: tuple[str, ...]  # argv of the small untimed op run before timing

    def ops(self, seed: int, smoke: bool = False) -> list[Op]:
        """The pass for workload seed ``seed``, in its seeded order."""
        rng = random.Random(f"{self.name}/{seed}")
        ops = [replace(op, seed=rng.getrandbits(63)) if op.kind == "mc" else op
               for op in self.base]
        if smoke:
            ops = [ops[i] for i in self.smoke]
        rng.shuffle(ops)
        return ops

    def passes(self, seconds: float) -> int:
        """Passes that fill ``seconds`` on the reference machine; at least two,
        so that every op is repeated and its bytes can be compared."""
        return max(2, round(seconds / self.pass_s))


def _cli(kind: str, *argv) -> Op:
    return Op(kind, tuple(str(a) for a in argv))


def _mc_global(v, e, trials):
    return _cli("mc", "global", "--v", v, "--k", 3, "--e-v", e, "--r", 2,
                "--method", "mc", "--trials", trials)


FORMULA_METHODS = ("connectivity", "covering", "interleaved-lower", "interleaved-upper")
BREAKDOWN_OVERHEAD = 1.0  # the breakdown subcommand's default --overhead

WORKLOADS = {w.name: w for w in (
    Workload(
        name="mc-small-v",
        work_unit="MC trials",
        pass_s=7.8,
        base=tuple([_mc_global(math.floor(1.222 * e + 0.5), e, 1000) for e in range(4, 41)]
                   + [_cli("mc", "local", "--u", u, "--k", 3, "--e-u", u, "--r", 1,
                           "--method", "mc", "--trials", 1000) for u in range(8, 41, 2)]),
        smoke=(0, 37),
        warmup=("global", "--v", "5", "--k", "3", "--e-v", "4", "--r", "2",
                "--method", "mc", "--trials", "100", "--seed", "0"),
    ),
    Workload(
        name="mc-large-v",
        work_unit="MC trials",
        pass_s=7.8,
        base=tuple(_mc_global(v, f"{v / 1.222:.4f}", 100) for v in range(100, 161, 10)),
        smoke=(0,),
        warmup=("global", "--v", "20", "--k", "3", "--e-v", "16.3666", "--r", "2",
                "--method", "mc", "--trials", "10", "--seed", "0"),
    ),
    Workload(
        name="formula",
        work_unit="formula values (methods x points, breakdown points scanned)",
        pass_s=1.6,
        base=tuple([_cli("formula", "global", "--v", v, "--k", 3, "--e-v", f"{v * 5 / 8:g}",
                         "--r", 2, *(a for m in FORMULA_METHODS for a in ("--method", m)))
                    for v in range(20, 81, 5)]
                   + [_cli("breakdown", "breakdown", "--k", 3, "--r", 2,
                           "--scope", "local", "--cap", 300, "--method", m)
                      for m in FORMULA_METHODS]),
        smoke=(0, 13),
        warmup=("global", "--v", "20", "--k", "3", "--e-v", "12.5", "--r", "2",
                *(a for m in FORMULA_METHODS for a in ("--method", m))),
    ),
    Workload(
        name="oracle",
        work_unit="enumerated edge subsets",
        pass_s=5.0,
        base=(
            _cli("oracle", "oracle", "--v", 6, "--k", 2, "--p", 0.5, "--r", 2),
            _cli("oracle", "oracle", "--v", 6, "--k", 4, "--p", 0.5, "--r", 2),
            _cli("oracle", "oracle", "--v", 6, "--k", 2, "--p", 0.5, "--r", 2,
                 "--exactly-one", "minimal"),
            _cli("oracle", "oracle", "--v", 6, "--k", 4, "--p", 0.5, "--r", 2,
                 "--exactly-one", "maximal"),
            _cli("exact_local", 6, 3, 0.5, 2),
        ),
        smoke=(1,),
        warmup=("oracle", "--v", "4", "--k", "2", "--p", "0.5", "--r", "2"),
    ),
)}


def _opt(op: Op, flag: str) -> str:
    return op.argv[op.argv.index(flag) + 1]


def _rows(stdout: str) -> list[dict[str, str]]:
    return list(csv.DictReader(stdout.splitlines()))


def _breakdown_end(stdout: str) -> int:
    """Last expected edge count a breakdown scan evaluated (its threshold or cap)."""
    match = re.search(r"e=(\d+)\s*$", stdout)
    if match is None:
        raise ValueError(f"unparsable breakdown output {stdout!r}")
    return int(match.group(1))


def work(op: Op, stdout: str) -> int:
    """Work units the op completed: MC trials, formula values or edge subsets."""
    if op.kind == "mc":
        return int(_opt(op, "--trials"))
    if op.kind == "formula":
        return op.argv.count("--method")
    if op.kind == "breakdown":
        # find_breakdown evaluates e = 1.. up to its threshold, skipping v < k
        k = int(_opt(op, "--k"))
        return sum(1 for e in range(1, _breakdown_end(stdout) + 1)
                   if math.floor(BREAKDOWN_OVERHEAD * e + 0.5) >= k)
    if op.kind == "oracle":
        return 2 ** choose(int(_opt(op, "--v")), int(_opt(op, "--k")))
    u, k = int(op.argv[0]), int(op.argv[1])
    return 2 ** choose(u, k)


def _mean_stderr(stdout: str) -> tuple[float, float]:
    row = _rows(stdout)[0]
    if "mc_mean" in row:
        return float(row["mc_mean"]), float(row["mc_stderr"])
    return float(row["value"]), float(row["stderr"])


def _check_mc(op: Op, stdout: str, ref: dict) -> str | None:
    if op.seed == ref["seed"]:
        return None if stdout == ref["stdout"] else "MC output differs from the recorded bytes"
    if stdout.splitlines()[0] != ref["stdout"].splitlines()[0]:
        return "MC output columns differ from the recorded ones"
    mean, se = _mean_stderr(stdout)
    ref_mean, ref_se = _mean_stderr(ref["stdout"])
    if not 0.0 <= mean <= 1.0:
        return f"MC mean {mean!r} outside [0, 1]"
    slack = Z_LIMIT * math.hypot(se, ref_se) + 1.0 / int(_opt(op, "--trials"))
    if abs(mean - ref_mean) > slack:
        return f"MC mean {mean!r} is more than {Z_LIMIT} stderr from the recorded {ref_mean!r}"
    return None


def _check_formula(stdout: str, ref_stdout: str) -> str | None:
    got, want = _rows(stdout), _rows(ref_stdout)
    if len(got) != 1 or stdout.splitlines()[0] != ref_stdout.splitlines()[0]:
        return "formula output shape differs from the recorded one"
    got, want = got[0], want[0]
    for col in ("v", "p"):
        if got[col] != want[col]:
            return f"{col} is {got[col]}, recorded {want[col]}"
    for col in (c for c in got if c.endswith("_valid")):
        name = col[: -len("_valid")]
        if got[col] != want[col]:
            return f"{name} validity flag is {got[col]}, recorded {want[col]}"
        if got[col] != "1":
            continue
        value, recorded = float(got[name]), float(want[name])
        if not math.isclose(value, recorded, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return f"{name} = {value!r}, recorded {recorded!r}"
        if value < 0.0 or (value > 1.0 and name not in UPPER_BOUND_COLUMNS):
            return f"{name} = {value!r} is flagged valid but outside [0, 1]"
    return None


def check(op: Op, stdout: str, reference: dict) -> str | None:
    """None if the op's output is correct, else why it is not."""
    ref = reference.get(op.label)
    if ref is None:
        return "no recorded reference for this op"
    if op.kind == "mc":
        return _check_mc(op, stdout, ref)
    if op.kind == "formula":
        return _check_formula(stdout, ref["stdout"])
    if stdout != ref["stdout"]:
        return f"output {stdout!r} differs from the recorded {ref['stdout']!r}"
    if op.kind == "oracle":
        value = float(_rows(stdout)[0]["value"])
    elif op.kind == "exact_local":
        value = float(stdout)
    else:
        return None
    return None if 0.0 <= value <= 1.0 else f"oracle value {value!r} outside [0, 1]"
