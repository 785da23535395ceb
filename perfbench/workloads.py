"""The four benchmark workloads.

Each workload is built from a library namespace (see run.import_library),
the bench seed and a scale ("full" or "tiny").  The loop calls
prepare(i) untimed, op(inputs) timed, and check(inputs, out) untimed;
check raises verify.CheckFailed on a wrong output and otherwise returns
the bytes that the op's digest is taken over.  Inputs are derived from the
bench seed and the op index only, so no input repeats across ops unless a
workload says so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from verify import (
    check_witness_report,
    crossing_share,
    require,
    triangle_share,
)


def op_seed(seed, *labels) -> int:
    """63-bit seed for one labelled input, independent of the library's rng."""
    h = hashlib.sha256(repr((int(seed),) + labels).encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1


def _verdict_line(x, v):
    w = v.worst_witness
    wit = "-" if w is None else f"{sorted(w[0])}:{w[1]}"
    return f"{x.encode()} {v.regular} {v.certified} {v.mode} {v.measured_density} {wit}"


def _report_lines(report):
    lines = [f"ok {report.ok} worst {report.worst_deviation}"]
    lines += list(report.failures)
    lines += [_verdict_line(x, v) for x, v in sorted(report.per_address.items())]
    return lines


class Workload:
    name = ""
    round_size = 1  # ops per round; the loop stops only at round ends
    min_ops = 11  # the tail needs at least ten ops beyond it
    bytes_read = bytes_written = 0  # file I/O of the op's CLI commands

    def __init__(self, lib, seed, scale):
        self.lib = lib
        self.seed = seed
        self.full = scale == "full"

    def warm_up(self):
        """One op on a seed no timed op uses, plus its check.  A failure is
        reported, not raised: the timed phase counts it again as failed ops."""
        inputs = self.prepare(-1)
        try:
            self.check(inputs, self.op(inputs))
        except Exception as exc:
            print(f"warm-up op failed: {exc!r}", file=sys.stderr)

    def close(self):
        pass


class Transfer(Workload):
    """One trial of the criterion-9 transfer experiment per op."""

    name = "transfer"

    def __init__(self, lib, seed, scale):
        super().__init__(lib, seed, scale)
        reg = lib.regularity
        self.R = reg.RegularityInstance(
            Fraction(1, 20), (3,), reg.DensityFunction.constant((3,), Fraction(1, 2))
        )
        # tiny keeps every per-pair ground set above the exhaustive cap, as
        # at full size, so the tiny run takes the same (sampled) path
        self.n, self.q = (400, 200) if self.full else (90, 45)
        self.delta = Fraction(3, 10)

    def prepare(self, i):
        return op_seed(self.seed, self.name, i)

    def op(self, s):
        return self.lib.sampling.run_transfer_experiment(
            self.R, self.n, self.q, self.delta, 1, s, check_trials=12
        )

    def check(self, s, st):
        require(st.trials == 1 and len(st.records) == 1, "expected one trial record")
        r = st.records[0]
        require(st.q1_pass == int(r.q1_pass) and st.q2_pass == int(r.q2_pass),
                "pass counts disagree with the record")
        require(r.measured_lambda >= 0 and r.worst_deviation >= 0,
                "negative lambda or deviation")
        if r.q1_pass and r.q2_pass:
            require(r.worst_deviation <= self.R.epsilon + self.delta,
                    "passing trial reports a deviation above eps + delta")
        return (f"{r.seed} {r.q1_pass} {r.q2_pass} {r.measured_lambda} "
                f"{r.worst_deviation}").encode()


class Certify(Workload):
    """check_instance_witness on small k = 2 plantings, certified mode.

    A round is one instance of each configuration.  Instances are planted
    in set-up, POOL_ROUNDS rounds of them, so inputs repeat only in runs of
    more rounds than that.
    """

    name = "certify"
    round_size = 4
    min_ops = 24  # six whole rounds keep the tail rank in one configuration
    POOL_ROUNDS = 32
    FULL = (((2,), 16), ((2,), 18), ((4,), 28), ((4,), 32))
    TINY = (((2,), 8), ((2,), 10), ((4,), 12), ((4,), 16))

    def __init__(self, lib, seed, scale):
        super().__init__(lib, seed, scale)
        reg, tr = lib.regularity, lib.transforms
        self.configs = []
        for a, n in self.FULL if self.full else self.TINY:
            R = reg.RegularityInstance(
                Fraction(1, 4), a, reg.DensityFunction.constant(a, Fraction(1, 2))
            )
            self.configs.append((R, n))
        self.pool = [
            [
                tr.plant(tr.PlantSpec(R, n, op_seed(seed, self.name, r, c)))[:2]
                for c, (R, n) in enumerate(self.configs)
            ]
            for r in range(self.POOL_ROUNDS)
        ]
        R, n = self.configs[0]
        self.warm = tr.plant(tr.PlantSpec(R, n, op_seed(seed, self.name, "warm")))[:2]

    def prepare(self, i):
        if i < 0:
            return self.warm[0], self.configs[0][0], self.warm[1]
        c = i % self.round_size
        H, F = self.pool[(i // self.round_size) % self.POOL_ROUNDS][c]
        return H, self.configs[c][0], F

    def op(self, inputs):
        H, R, F = inputs
        return self.lib.regularity.check_instance_witness(H, R, F, trials=12, seed=0)

    def check(self, inputs, report):
        H, R, F = inputs
        check_witness_report(H, R, F, report, certified=True)
        return "\n".join(_report_lines(report)).encode()


class K3(Workload):
    """The k = 3 pipeline: plant, axioms, refine, witness, predictions,
    slicing and the prediction-vs-count check, with a random density
    function per op so the library's lru_caches cannot answer repeats."""

    name = "k3"
    A = (4, 2)

    def __init__(self, lib, seed, scale):
        super().__init__(lib, seed, scale)
        hg = lib.hypergraph
        self.n, self.n_small = (60, 24) if self.full else (24, 12)
        # at n = 60 every ground set exceeds the cap; tiny gets there with cap 0
        self.cap = lib.regularity.DEFAULT_EXHAUSTIVE_CAP if self.full else 0
        self.space = lib.addresses.address_space(3, 2, self.A)
        self.classes = hg.all_iso_classes(4, 3)
        self.pattern = next(F for F in self.classes if len(F.edges) == 2)

    def prepare(self, i):
        s = op_seed(self.seed, self.name, i)
        rng = random.Random(s)
        reg = self.lib.regularity
        d = reg.DensityFunction(
            self.A, {x: Fraction(rng.randint(1, 7), 8) for x in self.space}
        )
        R = reg.RegularityInstance(Fraction(1, 5), self.A, d)
        x = self.space[rng.randrange(len(self.space))]
        return R, x, s

    def op(self, inputs):
        R, x, s = inputs
        tr, pa, reg, co = (self.lib.transforms, self.lib.partitions,
                           self.lib.regularity, self.lib.counting)
        H, F, _ = tr.plant(tr.PlantSpec(R, self.n, op_seed(s, "plant")))
        ax = pa.check_family_axioms(F)
        F8 = tr.refine_family(F, (8, 2), op_seed(s, "refine"))
        ax8 = pa.check_family_axioms(F8)
        w = reg.check_instance_witness(H, R, F, trials=12, seed=op_seed(s, "witness"),
                                       exhaustive_cap=self.cap)
        total = co.ic_family(self.classes, R.d)
        parts = tr.slice(H, F.polyad(x), R.d(x), R.epsilon,
                         (Fraction(1, 2), Fraction(1, 2)), op_seed(s, "slice"), trials=12)
        Hs, Fs, _ = tr.plant(tr.PlantSpec(R, self.n_small, op_seed(s, "small")))
        cmp_ = co.verify_ic_vs_pr(Hs, R, Fs, self.pattern, Fraction(1, 4))
        return H, F, ax, F8, ax8, w, total, parts, Hs, Fs, cmp_

    def check(self, inputs, out):
        R, x, s = inputs
        H, F, ax, F8, ax8, w, total, parts, Hs, Fs, cmp_ = out
        require(ax.ok, f"planted family fails its axioms: {ax.first_violation}")
        require(F8.a == (8, 2) and len(F8.vertex_classes) == 8, "refinement has the wrong shape")
        require(total == 1, f"ic over all 4-vertex classes is {total}, not 1")
        check_witness_report(H, R, F, w, certified=False)
        require(len(parts) == 3, "slice returned the wrong number of classes")
        seen = set()
        for p in parts:
            require(not (seen & p.edges), "slice classes overlap")
            seen |= p.edges
        require(seen == H.edges, "slice classes do not cover the edges")
        share = crossing_share(Hs, Fs.vertex_classes, self.pattern.edges, 4)
        predicted = self.lib.counting.ic(self.pattern, R.d).total
        require(cmp_.ratio == abs(share - predicted), "ic-vs-pr gap disagrees with a recount")
        lines = [f"{x.encode()} {len(H.edges)} ax {ax.ok} ax8 {ax8.ok} {len(ax8.failures)}",
                 f"ic {total} slice {[len(p.edges) for p in parts]}",
                 f"cmp {cmp_.ok} {cmp_.ratio}"]
        lines += _report_lines(w)
        h = hashlib.sha256()
        for G in (H, Hs, *parts):
            h.update(repr(sorted(G.edges)).encode())
        h.update(repr(sorted((j, sorted((key[0].encode(), key[1], sorted(e))
                                        for key, e in lc.items()))
                             for j, lc in F8.level_classes.items())).encode())
        lines.append(h.hexdigest())
        return "\n".join(lines).encode()


class Cli(Workload):
    """One in-process CLI session: gen -> check -> sample -> count.

    Every op writes to a fresh directory, removed once the op is checked:
    overwriting a large file costs far more than creating one on some file
    systems, which would make every session after the first slower.
    """

    name = "cli"

    def __init__(self, lib, seed, scale):
        super().__init__(lib, seed, scale)
        self.n, self.q = (400, 200) if self.full else (60, 30)
        base = Path(__file__).resolve().parent.parent / ".perfbench_runs"
        base.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"cli-{os.getpid()}-", dir=base))
        self.triangle = self.dir / "triangle.hg"
        self.triangle.write_text("2 3\n0 1\n0 2\n1 2\n", encoding="utf-8")

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def prepare(self, i):
        s = op_seed(self.seed, self.name, i)
        d = self.dir / f"op{i}"
        d.mkdir()
        g, smp = str(d / "g"), str(d / "s")
        return d, [
            ["gen", "--n", str(self.n), "--a", "3", "--density", "1/2",
             "--epsilon", "1/20", "--seed", str(op_seed(s, "gen")), "--out", g],
            ["check", "--hypergraph", g + ".hg", "--instance", g + ".ri",
             "--family", g + ".pf", "--trials", "12", "--seed", str(op_seed(s, "check"))],
            ["sample", "--hypergraph", g + ".hg", "--family", g + ".pf",
             "--q", str(self.q), "--seed", str(op_seed(s, "sample")), "--out", smp],
            ["count", "--pattern", str(self.triangle), "--hypergraph", smp + ".hg"],
        ]

    def op(self, inputs):
        _, commands = inputs
        results = []
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.lib.cli.main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def check(self, inputs, results):
        d, _ = inputs
        (gen, chk, smp, cnt) = results
        require(gen[0] == 0 and smp[0] == 0 and cnt[0] == 0,
                f"exit codes {[r[0] for r in results]}: {[r[2] for r in results]}")
        last = chk[1].strip().splitlines()[-1] if chk[1].strip() else ""
        require(chk[0] in (0, 1) and last.startswith(
            "witness pass" if chk[0] == 0 else "witness fail"),
            f"check exit {chk[0]} with output {last!r}")
        files = {p: (d / p).read_bytes() for p in ("g.hg", "g.pf", "g.ri", "s.hg", "s.pf")}
        # gone before the next op, so a run never piles up unwritten pages
        shutil.rmtree(d)
        share, n = triangle_share(files["s.hg"].decode())
        require(n == self.q, f"sample has {n} vertices, expected {self.q}")
        require(cnt[1].strip() == f"pr {share}", f"count printed {cnt[1]!r}, recount {share}")
        tri = self.triangle.stat().st_size
        self.bytes_written += sum(len(b) for b in files.values())
        # check reads g.{hg,ri,pf}, sample reads g.{hg,pf}, count reads the pattern and s.hg
        self.bytes_read += (2 * len(files["g.hg"]) + 2 * len(files["g.pf"])
                            + len(files["g.ri"]) + tri + len(files["s.hg"]))
        h = hashlib.sha256()
        for code, out, _ in results:
            h.update(f"{code}\n{out}".encode())
        for p in sorted(files):
            h.update(files[p])
        return h.hexdigest().encode()


WORKLOADS = {w.name: w for w in (Transfer, Certify, K3, Cli)}
