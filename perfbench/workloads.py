"""The benchmark's four workloads.

Each workload makes its inputs from a seed, runs one op on one input, and
checks the op's output.  Inputs come in blocks of a fixed mix, and a run
covers whole blocks, so the seed picks which inputs run and in what
order but not the mix.  `op` holds the package calls that are timed;
`check` runs after the clock stops and returns (ok, result), where
`result` is the JSON-able output whose digest must repeat for the input.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import selectors
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Every unrealizable datum of the degrees and sizes the workloads draw
# from, frozen from an exhaustive oracle run.  Keys are "degree,points".
UNREALIZABLE = {
    tuple(int(x) for x in key.split(",")): frozenset(texts)
    for key, texts in json.loads((HERE / "unrealizable.json").read_text()).items()
}


def interleave(strata, blocks: int) -> list:
    """Take `per_block` items from each (items, per_block) stratum per block."""
    out = []
    pos = [0] * len(strata)
    for _ in range(blocks):
        for k, (items, per_block) in enumerate(strata):
            for _ in range(per_block):
                out.append(items[pos[k] % len(items)])
                pos[k] += 1
    return out


def shuffled(items, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


class Workload:
    name = ""
    exact_ops = 0  # traced ops whose oracle nodes make `monodromy.nodes`
    block = 1  # a run ends on a multiple of this many ops: whole blocks only

    def __init__(self, cc, root: Path):
        self.cc = cc
        self.root = root
        self.tracer = None

    def tag(self, inp) -> str:
        return inp[0]

    def peak_rss_kib(self) -> int:
        """Peak resident memory of the process doing the work (Linux: KiB)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- sweep ---------------------------------------------------------------


class Sweep(Workload):
    """One classification per op, the loop `catalog` runs for each datum."""

    name = "sweep"
    exact_ops = 4
    block = 4

    def inputs(self, seed: int) -> list:
        cc = self.cc
        rng = random.Random(seed)
        certified, realizable = [], []
        for degree in range(4, 9):
            unrealizable = UNREALIZABLE.get((degree, 3), frozenset())
            for datum in cc.enumerate_data(degree, 3):
                if cc.format_datum(datum) in unrealizable:
                    certified.append(("certified", datum))
                else:
                    realizable.append(("realizable", datum))
        # One certified datum (early exit) to three realizable ones (full grid).
        return interleave([(shuffled(certified, rng), 1), (shuffled(realizable, rng), 3)], 60)

    def op(self, inp):
        cc = self.cc
        datum = inp[1]
        cert = cc.search_certificate(datum)
        oracle = cc.find_witness(datum)
        cert_ok = cert is not None and cc.verify_certificate(cert)
        witness_ok = oracle.witness is not None and cc.verify_witness(datum, oracle.witness.perms)
        return cert, oracle, cert_ok, witness_ok

    def check(self, inp, out):
        cc = self.cc
        kind, datum = inp
        cert, oracle, cert_ok, witness_ok = out
        ok = (
            oracle.status != cc.UNKNOWN
            and not (cert is not None and oracle.status == cc.REALIZABLE)
            and (cert is None or cert_ok)
            and (oracle.witness is None or witness_ok)
        )
        if kind == "certified":
            ok = ok and cert is not None and oracle.status == cc.UNREALIZABLE
        else:
            ok = ok and oracle.status == cc.REALIZABLE
        result = {
            "datum": cc.format_datum(datum),
            "status": oracle.status,
            "nodes": oracle.nodes,
            "certificate": cert.to_json() if cert is not None else None,
            "witness": oracle.witness.to_json() if oracle.witness is not None else None,
        }
        return ok, result


# -- realize -------------------------------------------------------------


class Realize(Workload):
    """One oracle call per op, on data where only the oracle can decide."""

    name = "realize"
    exact_ops = 100

    def inputs(self, seed: int) -> list:
        # Every datum of the three pools once, in seeded order, and a run
        # covers whole passes: the oracle's cost per datum is heavy-tailed
        # (0.1 ms to 0.3 s), so a partial draw would make the seed, not the
        # code, move the numbers.
        cc = self.cc
        out = []
        for degree, points in ((9, 3), (10, 3), (8, 4)):
            frozen = UNREALIZABLE[(degree, points)]
            for datum in cc.enumerate_data(degree, points):
                kind = "unrealizable" if cc.format_datum(datum) in frozen else "realizable"
                out.append((kind, datum))
        out = shuffled(out, random.Random(seed))
        self.block = len(out)
        return out

    def op(self, inp):
        cc = self.cc
        datum = inp[1]
        result = cc.find_witness(datum)
        witness_ok = result.witness is not None and cc.verify_witness(datum, result.witness.perms)
        return result, witness_ok

    def check(self, inp, out):
        kind, datum = inp
        result, witness_ok = out
        ok = result.status == kind and (result.witness is None or witness_ok)
        return ok, {
            "datum": self.cc.format_datum(datum),
            "status": result.status,
            "nodes": result.nodes,
            "witness": result.witness.to_json() if result.witness is not None else None,
        }


# -- decide --------------------------------------------------------------


def random_vector(rng: random.Random, inside_unit: bool) -> tuple[Fraction, ...]:
    """2-8 entries with denominators up to 12, all in (0,1) if asked."""
    out = []
    for _ in range(rng.randint(2, 8)):
        q = rng.randint(2, 12) if inside_unit else rng.randint(1, 12)
        p = rng.randint(1, q - 1) if inside_unit else rng.randint(1, 3 * q)
        out.append(Fraction(p, q))
    return tuple(out)


def boundary_vector(rng: random.Random, m: int, ints: list[int]) -> tuple[Fraction, ...]:
    """m non-integral entries and the integral `ints`, at odd-lattice distance 1.

    The fractional parts are positive, at most 1/2 and sum to 1, and the
    integer parts are fixed so that the rounded vector has odd sum: the
    distance of beta - 1 to the odd lattice is then exactly 1 (case D).
    """
    den = m * rng.choice((2, 3, 4))
    while True:
        cuts = sorted(rng.sample(range(1, den), m - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        if 2 * max(parts) <= den:
            break
    whole = [rng.randint(1, 3) for _ in range(m)]
    if (sum(w - 1 for w in whole) + sum(b - 1 for b in ints)) % 2 == 0:
        whole[0] += 1
    vec = [w + Fraction(c, den) for w, c in zip(whole, parts)] + [Fraction(b) for b in ints]
    rng.shuffle(vec)
    return tuple(vec)


def odd_lattice_distance(x) -> Fraction:
    """Least l1 distance from x to an integer vector with odd coordinate sum.

    An optimal point has each coordinate within floor(x_i)-1 .. floor(x_i)+2
    (moving a coordinate two steps toward x_i keeps the sum's parity and
    does not cost more), so the box is searched exhaustively, folded by the
    parity of the partial sum.
    """
    best = {0: Fraction(0), 1: None}
    for v in x:
        low = math.floor(v)
        nxt = {0: None, 1: None}
        for parity, cost in best.items():
            if cost is None:
                continue
            for z in range(low - 1, low + 3):
                c = cost + abs(v - z)
                q = (parity + z) % 2
                if nxt[q] is None or c < nxt[q]:
                    nxt[q] = c
        best = nxt
    return best[1]


def coaxial_witness_holds(stripped, witness) -> bool:
    """Recompute every case-D condition from the witness's signs alone."""
    nonint = [b for b in stripped if b.denominator != 1]
    ints = [b for b in stripped if b.denominator == 1]
    signs = witness.signs
    if len(signs) != len(nonint) or any(s not in (1, -1) for s in signs):
        return False
    k1 = sum((s * b for s, b in zip(signs, nonint)), Fraction(0))
    if k1.denominator != 1 or k1 < 0 or k1 != witness.k_prime:
        return False
    k2 = sum(ints) - len(stripped) - k1 + 2
    if k2 < 0 or k2 % 2 or k2 != witness.k_double_prime:
        return False
    vec = nonint + [Fraction(1)] * int(k1 + k2)
    scaled = [v / witness.eta for v in vec]
    if any(s.denominator != 1 for s in scaled) or math.gcd(*(int(s) for s in scaled)) != 1:
        return False
    b = tuple(int(s) for s in scaled)
    return b == tuple(witness.b) and 2 * max(ints) <= sum(b)


class Decide(Workload):
    """One admissibility decision per op, outside any certificate search."""

    name = "decide"
    block = 57  # 5 exhaustive + 2 boundary + 40 random + 10 lifted vectors
    EXHAUSTIVE_M = (4, 6, 8, 10, 12)

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        lifted = []
        for degree in range(4, 31):
            for instance in self.cc.all_instances(degree):
                lifted.append(("lifted", instance.certificate().lifted))
        lifted = shuffled(lifted, rng)
        out = []
        for block in range(120):
            # A single integral entry 2 makes k'' = 3 - m - k' < 0 for every
            # sign choice, so coaxial_check tries all 2^m of them.
            for m in self.EXHAUSTIVE_M:
                out.append(("exhaustive", boundary_vector(rng, m, [2])))
            for _ in range(2):
                ints = [rng.randint(2, 8) for _ in range(rng.randint(1, 3))]
                out.append(("boundary", boundary_vector(rng, rng.randint(2, 6), ints)))
            for _ in range(20):
                out.append(("unit", random_vector(rng, inside_unit=True)))
                out.append(("random", random_vector(rng, inside_unit=False)))
            for k in range(10):
                out.append(lifted[(10 * block + k) % len(lifted)])
        return out

    def op(self, inp):
        return self.cc.decide_admissible(inp[1])

    def check(self, inp, verdict):
        cc = self.cc
        kind, vec = inp
        ok = verdict.admissible == (verdict.case != cc.CASE_NONE)
        if kind in ("exhaustive", "lifted"):
            ok = ok and verdict.case == cc.CASE_NONE
        stripped = [b for b in vec if b != 1]
        margin = 2 + sum(b - 1 for b in vec)
        if not stripped:
            ok = ok and verdict.case == cc.CASE_EMPTY
        elif len(stripped) == 1 or margin <= 0:
            ok = ok and verdict.case == cc.CASE_NONE and verdict.lattice is None
        elif verdict.lattice is None:
            ok = False
        else:
            x = [b - 1 for b in stripped]
            nearest = verdict.lattice.nearest
            distance = verdict.lattice.distance
            ok = (ok and len(nearest) == len(x) and sum(nearest) % 2 == 1
                  and distance == odd_lattice_distance(x)
                  and distance == sum(abs(v - z) for v, z in zip(x, nearest))
                  and (distance > 1) == (verdict.case == cc.CASE_A)
                  and (distance >= 1 or verdict.case == cc.CASE_NONE))
        if len(vec) >= 2 and all(b < 1 for b in vec):
            ok = ok and cc.troyanov_admissible(vec) == verdict.admissible
        if verdict.case == cc.CASE_D:
            ok = ok and coaxial_witness_holds(stripped, verdict.coaxial)
        return ok, verdict.to_json()


# -- cli -----------------------------------------------------------------


def run_child(argv: list[str], stdin: str | None, timeout: float, **popen):
    """Run `argv` to its end, as `subprocess.run` with captured text output
    would, and return (CompletedProcess, the child's peak RSS in KiB).

    The child is reaped with `os.wait4`, the one call that reports its own
    resource usage rather than the maximum over every child waited for.
    """
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, **popen)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + timeout
    try:
        with proc.stdin:  # the inputs are a few KiB: they fit in the pipe
            proc.stdin.write((stdin or "").encode())
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.monotonic()
                if left <= 0:
                    raise subprocess.TimeoutExpired(argv, timeout)
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)  # not yet reaped, so the pid is still its own
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[p]).decode() for p in (proc.stdout, proc.stderr))
    return subprocess.CompletedProcess(argv, proc.returncode, out, err), usage.ru_maxrss


class Cli(Workload):
    """One `python -m conecover` subprocess per op; every other workload
    starts the interpreter once."""

    name = "cli"
    block = 6
    COMMANDS = ("admissible", "validate", "certify", "realize",
                "verify-certificate", "verify-witness")

    def __init__(self, cc, root: Path):
        super().__init__(cc, root)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.child_peak_kib = 0

    def peak_rss_kib(self) -> int:
        """The largest child's peak: the children do the work."""
        return self.child_peak_kib

    def inputs(self, seed: int) -> list:
        cc = self.cc
        rng = random.Random(seed)
        # The CLI parses data into canonical row order, so expected outputs
        # are computed on the parsed text.
        def parsed(datum):
            return cc.parse_datum(cc.format_datum(datum))

        small = [d for degree in range(4, 8) for d in cc.enumerate_data(degree, 3)]
        families = [inst for degree in range(4, 13) for inst in cc.all_instances(degree)]
        out = []
        for block in range(40):
            beta = random_vector(rng, inside_unit=block % 2 == 0)
            verdict = cc.decide_admissible(beta)
            out.append(("admissible", [cc.format_angles(beta)], None,
                        0 if verdict.admissible else 1, verdict.to_json()))

            if block % 2:
                degree = rng.randint(3, 8)
                rows = [rng.choice(cc.partitions_of(degree)) for _ in range(3)]
                datum = parsed(cc.BranchDatum(degree, tuple(cc.Partition(r) for r in rows)))
            else:
                datum = rng.choice(small)
            report = cc.validate_datum(datum)
            expected = dict(report.to_json(), datum=datum.to_json())
            out.append(("validate", [cc.format_datum(datum)], None, 0 if report.ok else 1, expected))

            datum = parsed(rng.choice(families).datum)
            cert = cc.search_certificate(datum)
            out.append(("certify", [cc.format_datum(datum)], None, 0, cert.to_json()))

            datum = rng.choice(small)
            oracle = cc.find_witness(datum)
            realized = {"status": oracle.status, "nodes": oracle.nodes, "datum": datum.to_json()}
            if oracle.witness is not None:
                realized["witness"] = oracle.witness.to_json()
            out.append(("realize", [cc.format_datum(datum)], None,
                        0 if oracle.status == cc.REALIZABLE else 1, realized))

            stdin = json.dumps(rng.choice(families).certificate().to_json())
            out.append(("verify-certificate", ["-"], stdin, 0, {"valid": True}))

            datum = rng.choice(small)
            while (oracle := cc.find_witness(datum)).witness is None:
                datum = rng.choice(small)
            stdin = json.dumps({"datum": datum.to_json(), "witness": oracle.witness.to_json()})
            out.append(("verify-witness", ["-"], stdin, 0, {"valid": True}))
        return out

    def op(self, inp):
        command, args, stdin = inp[0], inp[1], inp[2]
        span = self.tracer.begin(f"cli.{command}") if self.tracer else None
        proc, peak_kib = run_child([sys.executable, "-m", "conecover", command, *args],
                                   stdin, 120, cwd=self.root, env=self.env)
        if span is not None:
            self.tracer.end(span)
        self.child_peak_kib = max(self.child_peak_kib, peak_kib)
        return proc

    def check(self, inp, proc):
        expected_code, expected = inp[3], inp[4]
        try:
            lines = proc.stdout.splitlines()
            got = json.loads(lines[0]) if len(lines) == 1 else None
        except json.JSONDecodeError:
            got = None
        ok = proc.returncode == expected_code and got == expected
        return ok, {"command": inp[0], "args": inp[1], "code": proc.returncode, "stdout": got}


WORKLOADS = {cls.name: cls for cls in (Sweep, Realize, Decide, Cli)}
