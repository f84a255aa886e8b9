"""The three workloads: seeded inputs, the fixed sequence of dtk
invocations, and the check of every answer.

A workload object is built from a seed and a work directory; building
it generates the inputs and writes the model files (the set-up the
benchmark times).  ``ops()`` gives one round: the list of invocations,
each with its expected exit code and a check of its output.
``cross_check`` relates outputs of several invocations of one round.
Checks return None when the output is right and a message otherwise.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle
from oracle import TAU

VARIANTS = ("db", "ds", "ed")

# Sizes of the two operations that crash today by exhausting Python's
# recursion limit (bench/README.md names the faults).
NESTED_NOT_DEPTH = 3000
TAU_CHAIN_LENGTH = 3000


@dataclass
class Op:
    name: str            # unique within the round
    kind: str            # dtk subcommand
    size: int            # states + transitions of the main input
    argv: list           # arguments after ``dtk``
    expect_exit: int
    check: Callable      # (stdout) -> None or message
    reads: Path | None = None    # file the check reads besides stdout, if any


def _size(g: oracle.Graph) -> int:
    return len(g.states) + sum(len(v) for v in g.succ.values())


def _graph(states, trans, labels=None) -> oracle.Graph:
    succ = {s: [] for s in states}
    for (u, a, v) in trans:
        succ[u].append((a, v))
    return oracle.Graph(list(states), succ, labels)


def _blocks_set(blocks):
    return {frozenset(b) for b in blocks}


class Workload:
    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.dir = workdir
        self.memo = {}

    def path(self, name) -> str:
        return str(self.dir / name)

    def write(self, name, text) -> str:
        (self.dir / name).write_text(text, encoding="utf-8")
        return self.path(name)

    def cached(self, key, fn):
        """Checks are pure functions of the output, so each distinct
        output is verified once per run."""
        if key not in self.memo:
            self.memo[key] = fn()
        return self.memo[key]

    def cross_check(self, outputs: dict):
        return None


def _check_partition(g, variant, extra=None):
    def check(stdout):
        blocks = oracle.parse_partition(stdout)
        if not oracle.stable(g, blocks, variant):
            return f"{variant} partition is not stable"
        return extra(blocks) if extra else None
    return check


def _check_ordering(outputs, prefix):
    """ed refines ds refines db; skipped when one of them crashed."""
    if any(f"{prefix}-{v}" not in outputs for v in VARIANTS):
        return None
    parts = {v: oracle.parse_partition(outputs[f"{prefix}-{v}"])
             for v in VARIANTS}
    if not oracle.refines(parts["ds"], parts["db"]):
        return f"{prefix}: ds does not refine db"
    if not oracle.refines(parts["ed"], parts["ds"]):
        return f"{prefix}: ed does not refine ds"
    return None


# ---------------------------------------------------------------------------
# lts-refine
# ---------------------------------------------------------------------------

class LtsRefine(Workload):
    """tau-heavy random LTSs through check-equiv under db/ds/ed, a
    known-answer blow-up of a small system, and eta + consistency."""

    COMPONENTS = 12        # independent random parts of the random LTS
    COMPONENT_STATES = 50
    TAU_OUT = 2            # tau edges per live state
    VISIBLE_OUT = 1        # visible edges per live state
    DEAD = 6               # deadlock states per component
    TAU_LOOPS = 5          # tau self-loops per component
    ACTIONS = ("a", "b")
    DEPTH = 12             # length of a planted visible chain, see below
    SEED_STATES = 6        # states of the known-answer seed system
    CHAIN = 8              # tau-chain length in the blow-up
    COPIES = 8             # disjoint copies in the blow-up

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        states, trans = [], []
        for c in range(self.COMPONENTS):
            st = [f"r{c}_{i}" for i in range(self.COMPONENT_STATES)]
            dead = set(rng.sample(st, self.DEAD))
            loops = set(rng.sample(st, self.TAU_LOOPS))
            for u in st:
                if u in loops:
                    trans.append((u, TAU, u))
                if u in dead:
                    continue
                for _ in range(self.TAU_OUT):
                    trans.append((u, TAU, rng.choice(st)))
                for _ in range(self.VISIBLE_OUT):
                    trans.append((u, rng.choice(self.ACTIONS), rng.choice(st)))
            states += st
        # A chain of DEPTH visible steps needs DEPTH refinement rounds,
        # more than the random components need (3 to 8 in the seeds
        # tried), so every seed refines for the same number of rounds
        # and mainly the work per round varies.
        chain = [f"c{i}" for i in range(self.DEPTH + 1)]
        states += chain
        trans += [(chain[i], "a", chain[i + 1]) for i in range(self.DEPTH)]
        self.half_g = _graph(list(states), list(dict.fromkeys(trans)))
        self.half_file = self.write("half.lts", oracle.write_lts(states, trans))
        # a renamed disjoint copy: every state must share a block with it
        states += [f"x{s}" for s in states]
        trans += [(f"x{u}", a, f"x{v}") for (u, a, v) in trans]
        self.random_g = _graph(states, list(dict.fromkeys(trans)))
        self.random_file = self.write("random.lts", oracle.write_lts(states, trans))

        self.seed_g = self._seed_system()
        kstates, ktrans = self._blow_up(self.seed_g)
        self.known_g = _graph(kstates, ktrans)
        self.known_file = self.write("known.lts", oracle.write_lts(kstates, ktrans))

    def _seed_system(self):
        """Six states: four fixed ones on which the three variants
        disagree (a deadlock, a pure tau-loop, a tau-loop with an exit,
        the same exit without the loop) and two with random transitions."""
        rng = self.rng
        st = [f"q{i}" for i in range(self.SEED_STATES)]
        trans = [("q1", TAU, "q1"), ("q2", TAU, "q2"), ("q2", "a", "q0"),
                 ("q3", "a", "q0")]
        for u in st[4:]:
            for v in st:
                if rng.random() < 0.4:
                    trans.append((u, TAU if rng.random() < 0.5
                                  else rng.choice(self.ACTIONS), v))
        return _graph(st, trans)

    def _expected(self, variant):
        """The seed system's coarsest partition, by brute force."""
        return self.cached(("seed", variant), lambda: oracle.brute_force_coarsest(
            self.seed_g, variant))

    def _blow_up(self, g):
        """Every seed state x becomes a tau-chain x_0 -> ... -> x_CHAIN
        whose last state carries x's transitions (to the targets' chain
        heads); COPIES disjoint copies of the whole.  Chain states are
        equivalent to their seed state under every variant."""
        def name(c, x, i):
            return f"k{c}_{x}_{i}"

        states, trans = [], []
        for c in range(self.COPIES):
            for x in g.states:
                states += [name(c, x, i) for i in range(self.CHAIN + 1)]
                trans += [(name(c, x, i), TAU, name(c, x, i + 1))
                          for i in range(self.CHAIN)]
                trans += [(name(c, x, self.CHAIN), a, name(c, y, 0))
                          for (a, y) in g.succ[x]]
        self.seed_of = {name(c, x, i): x for c in range(self.COPIES)
                        for x in g.states for i in range(self.CHAIN + 1)}
        return states, trans

    def _lift(self, blocks):
        of = oracle.block_map(blocks)
        groups = {}
        for s in self.known_g.states:
            groups.setdefault(of[self.seed_of[s]], []).append(s)
        return _blocks_set(groups.values())

    def _pairs(self):
        """(equivalent pair under ed, distinguished pair under db) in the
        blow-up, chosen from the brute-forced seed partitions."""
        ed = oracle.block_map(self._expected("ed"))
        db = oracle.block_map(self._expected("db"))
        xs = self.seed_g.states
        same = next(((x, y) for x in xs for y in xs if x < y and ed[x] == ed[y]),
                    (xs[0], xs[0]))
        diff = next((x, y) for x in xs for y in xs if db[x] != db[y])
        chain = self.CHAIN
        same_pair = (f"k0_{same[0]}_0", f"k1_{same[1]}_{chain}")
        diff_pair = (f"k0_{diff[0]}_{chain // 2}", f"k2_{diff[1]}_0")
        return same_pair, diff_pair

    def ops(self):
        ops = []
        rsize, ksize = _size(self.random_g), _size(self.known_g)
        for v in VARIANTS:
            ops.append(Op(f"random-{v}", "check-equiv", rsize,
                          ["check-equiv", "--model", self.random_file,
                           "--kind", "lts", "--variant", v], 0,
                          self._random_check(v)))
        for v in VARIANTS:
            ops.append(Op(f"known-{v}", "check-equiv", ksize,
                          ["check-equiv", "--model", self.known_file,
                           "--kind", "lts", "--variant", v], 0,
                          self._known_check(v)))
        same, diff = self._pairs()
        for (v, pair, code, word) in (("ed", same, 0, "equivalent"),
                                      ("db", diff, 1, "distinguished")):
            ops.append(Op(f"known-pair-{v}", "check-equiv", ksize,
                          ["check-equiv", "--model", self.known_file,
                           "--kind", "lts", "--variant", v,
                           "--state", pair[0], "--state", pair[1]], code,
                          lambda out, w=word: None if out.strip() == w
                          else f"expected {w}, got {out.strip()!r}"))
        eta_file = self.path("half_eta.l2ts")
        hsize = _size(self.half_g)
        ops.append(Op("eta", "transform", hsize,
                      ["transform", "--op", "eta", "--model", self.half_file,
                       "-o", eta_file], 0, self._eta_check,
                      reads=Path(eta_file)))
        eta_size = hsize + sum(1 for (_, a, _) in self.half_g.transitions
                               if a != TAU) * 2
        ops.append(Op("consistency", "consistency", eta_size,
                      ["consistency", "--model", eta_file], 0,
                      lambda out: None if out.strip() == "consistent"
                      else f"eta output reported {out.strip()[:60]!r}"))
        return ops

    def _random_check(self, variant):
        def copies_together(blocks):
            of = oracle.block_map(blocks)
            for s in self.random_g.states:
                if not s.startswith("x") and of[s] != of["x" + s]:
                    return f"{s} and its copy are in different blocks"
            return None
        return _check_partition(self.random_g, variant, copies_together)

    def _known_check(self, variant):
        def exact(blocks):
            if _blocks_set(blocks) != self._lift(self._expected(variant)):
                return f"{variant} partition differs from the known answer"
            return None
        return _check_partition(self.known_g, variant, exact)

    def _eta_check(self, _stdout):
        d = oracle.parse_model((self.dir / "half_eta.l2ts").read_text())
        g = self.half_g
        originals = set(g.states)
        mids = [s for s in d.states if s not in originals]
        visible = [(u, a, v) for (u, a, v) in g.transitions if a != TAU]
        if d.states[:len(g.states)] != g.states or len(mids) != len(visible):
            return "eta: wrong state set"
        if len({d.labels[s] for s in g.states}) != 1:
            return "eta: original states carry different labels"
        rebuilt = [(u, a, v) for (u, a, v) in d.transitions
                   if u in originals and v in originals]
        into = {m: [] for m in mids}
        for (u, a, v) in d.transitions:
            if v in into:
                into[v].append((u, a))
        for m in mids:
            if len(into[m]) != 1 or len(d.succ[m]) != 1:
                return f"eta: midpoint {m} is not on one visible step"
            (u, a), (b, v) = into[m][0], d.succ[m][0]
            if a != b or d.labels[m] != frozenset([a]):
                return f"eta: midpoint {m} is labelled wrongly"
            rebuilt.append((u, a, v))
        if sorted(rebuilt) != sorted(g.transitions):
            return "eta: contracting the midpoints does not give the input"
        if oracle.consistency_violations(d):
            return "eta: output violates the agreement conditions"
        return None

    def cross_check(self, outputs):
        return (_check_ordering(outputs, "random")
                or _check_ordering(outputs, "known"))


# ---------------------------------------------------------------------------
# ks-check
# ---------------------------------------------------------------------------

FORMULAS = (
    "EG p",
    "EGinf p",
    "AG (p | q)",
    "E ((p | q) U EGinf ~q)",
)
ENCODED = ("EG p", "AF q", "E ((p | q) U EGinf true)")
LABELS = (frozenset(), frozenset("p"), frozenset("q"), frozenset("pq"))


class KsCheck(Workload):
    """One large Kripke structure with few propositions and many
    stuttering steps, re-read by model-check, dext, check-equiv and
    distinguish."""

    REGIONS = 600          # groups of equally labelled states
    REGION_STATES = 8
    INNER_OUT = 2          # stuttering edges per live state
    OUTER_EDGES = 4        # edges from each region to random states
    DEAD = 1               # deadlock states per region
    DEPTH = 6              # length of a planted chain, see below
    FAN_ENDS = 4           # end labels of the planted fan, see _fan
    FAN_ROUNDS = 5         # rounds in which the fan splits (all rounds)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        regions = [[f"k{r}_{i}" for i in range(self.REGION_STATES)]
                   for r in range(self.REGIONS)]
        region_labels = [LABELS[r % len(LABELS)] for r in range(self.REGIONS)]
        rng.shuffle(region_labels)
        labels, edges = {}, []
        for r, st in enumerate(regions):
            dead = set(rng.sample(st, self.DEAD))
            for u in st:
                labels[u] = region_labels[r]
                if u not in dead:
                    edges += [(u, rng.choice(st)) for _ in range(self.INNER_OUT)]
            live = [u for u in st if u not in dead]
            for _ in range(self.OUTER_EDGES):
                edges.append((rng.choice(live), rng.choice(rng.choice(regions))))
        states = [s for st in regions for s in st]
        # A chain with alternating labels sets the number of refinement
        # rounds (5 in the seeds tried, against 4 or 5 without it), so
        # every seed refines for the same number of rounds.
        chain = [f"z{i}" for i in range(self.DEPTH + 1)]
        states += chain
        labels.update((z, LABELS[1 + i % 2]) for i, z in enumerate(chain))
        edges += [(chain[i], chain[i + 1]) for i in range(self.DEPTH)]
        # a twin of the first state: same label, same successors
        twin = "twin"
        states.append(twin)
        labels[twin] = labels[states[0]]
        edges += [(twin, v) for (u, v) in edges if u == states[0]]
        fan_states, fan_labels, fan_edges = self._fan()
        states += fan_states
        labels.update(fan_labels)
        edges = list(dict.fromkeys(edges + fan_edges))
        self.ks = _graph(states, [(u, None, v) for (u, v) in edges], labels)
        self.ks_file = self.write("big.ks", oracle.write_ks(states, labels, edges))
        self.tiny_file = self.write(
            "tiny.ks", "state a { p }\nstate b {}\nedge a b\n")
        self.dext_file = self.path("big_dext.ks")
        # No dtk command calls encode_D, so the images are made here, by
        # the program's own encoder, and handed to model-check as text.
        from dtk import logic, transforms
        self.encoded = [(text, logic.render_formula(
            transforms.encode_D(logic.parse_formula(text)))) for text in ENCODED]

    def _fan(self):
        """A fixed structure, the same for every seed, whose distinguishing
        formula is a DAG with many shared subformulas.  A hub ``fan``
        steps to an endless s/r cycle.  Each ``fan{n}_{c}`` steps to the
        same cycle and also to an s/r chain of n states that ends in a
        deadlock labelled e{c}, so it splits from the hub in round n+1,
        and the hub's block splits FAN_ENDS ways in every round.  Its
        labels are its own, so no random state shares a block with it.
        ``fan`` and ``fan{FAN_ROUNDS-1}_1`` split in the last round."""
        labels = {"fan": frozenset("t"), "fc0": frozenset("s"),
                  "fc1": frozenset("r")}
        edges = [("fan", "fc0"), ("fc0", "fc1"), ("fc1", "fc0")]
        for c in range(1, self.FAN_ENDS + 1):
            for n in range(self.FAN_ROUNDS):
                v = f"fan{n}_{c}"
                chain = [f"fx{n}_{c}_{i}" for i in range(n + 1)]
                labels[v] = frozenset("t")
                labels.update((x, frozenset("sr"[i % 2])) for i, x in enumerate(chain))
                labels[chain[-1]] = frozenset([f"e{c}"])
                edges += [(v, "fc0"), (v, chain[0])] + list(zip(chain, chain[1:]))
        return list(labels), labels, edges

    def _history(self, variant):
        return self.cached(("history", variant),
                           lambda: oracle.naive_refinement(self.ks, variant))

    def _evaluator(self, g, semantics):
        return self.cached(("eval", id(g), semantics),
                           lambda: oracle.Evaluator(g, semantics))

    def _pairs(self):
        """Chain states two steps apart (split in the last refinement
        rounds) under db and ed; the first state and its twin under ds;
        the fan's pair, whose formula prints large, under ds."""
        return [("db", ("z0", "z2")), ("ed", ("z1", "z3")),
                ("ds", (self.ks.states[0], "twin")),
                ("ds", ("fan", f"fan{self.FAN_ROUNDS - 1}_1"))]

    def ops(self):
        size = _size(self.ks)
        ops = []
        for i, text in enumerate(FORMULAS):
            for sem in ("max", "db"):
                ops.append(Op(f"mc{i}-{sem}", "model-check", size,
                              ["model-check", "--model", self.ks_file,
                               "--formula", text, "--semantics", sem], 0,
                              self._sat_check(self.ks, text, sem)))
        ops.append(Op("dext", "transform", size,
                      ["transform", "--op", "dext", "--model", self.ks_file,
                       "-o", self.dext_file], 0, self._dext_check,
                      reads=Path(self.dext_file)))
        dsize = size + 1 + 1 + sum(1 for s in self.ks.states if not self.ks.succ[s])
        for i, (text, image) in enumerate(self.encoded):
            ops.append(Op(f"mc-enc{i}", "model-check", dsize,
                          ["model-check", "--model", self.dext_file,
                           "--allow-delta", "--formula", image,
                           "--semantics", "max"], 0,
                          self._encoded_check(text, image),
                          reads=Path(self.dext_file)))
        for v in VARIANTS:
            ops.append(Op(f"equiv-{v}", "check-equiv", size,
                          ["check-equiv", "--model", self.ks_file, "--kind", "ks",
                           "--variant", v], 0, self._equiv_check(v)))
        for i, (v, (a, b)) in enumerate(self._pairs()):
            ops.append(Op(f"distinguish{i}-{v}", "distinguish", size,
                          ["distinguish", "--model", self.ks_file, "--variant", v,
                           "--state-a", a, "--state-b", b],
                          1 if self._split(v, a, b) else 0,
                          self._distinguish_check(v, a, b)))
        nested = "~" * NESTED_NOT_DEPTH + "p"
        expect = "true" if NESTED_NOT_DEPTH % 2 == 0 else "false"
        ops.append(Op("model-check-nested-not", "model-check", 4,
                      ["model-check", "--model", self.tiny_file,
                       "--formula", nested, "--state", "a"],
                      0 if expect == "true" else 1,
                      lambda out: None if out.strip() == expect
                      else f"expected {expect}, got {out.strip()[:40]!r}"))
        return ops

    def _split(self, variant, a, b):
        last = oracle.block_map(self._history(variant)[-1])
        return last[a] != last[b]

    def _sat_check(self, g, text, sem):
        def check(stdout):
            want = self._evaluator(g, sem).sat(oracle.parse_formula(text))
            got = stdout.split()
            if set(got) != want or len(got) != len(want):
                return f"sat({text!r}, {sem}) differs from the fixpoint evaluator"
            return None
        return check

    def _dext(self):
        """The dext output as it is now, parsed once per distinct content."""
        data = Path(self.dext_file).read_bytes()
        return self.cached(("dext", hashlib.sha256(data).hexdigest()),
                           lambda: oracle.parse_model(data.decode("utf-8")))

    def _dext_check(self, _stdout):
        d = self._dext()
        ks = self.ks
        sinks = [s for s in d.states if s not in set(ks.states)]
        if d.states[:len(ks.states)] != ks.states or len(sinks) != 1:
            return "dext: wrong state set"
        sink = sinks[0]
        if d.labels[sink] != frozenset(["delta"]):
            return "dext: sink is not labelled delta"
        for s in ks.states:
            want = ks.succ[s] or [(None, sink)]
            if d.labels[s] != ks.labels[s] or d.succ[s] != want:
                return f"dext: state {s} changed"
        if d.succ[sink] != [(None, sink)]:
            return "dext: sink is not a self-loop"
        return None

    def _encoded_check(self, text, image):
        def check(stdout):
            d = self._dext()
            got = stdout.split()
            want = self._evaluator(d, "max").sat(oracle.parse_formula(image))
            if set(got) != want:
                return f"sat(encode_D({text!r})) differs from the evaluator"
            base = self._evaluator(self.ks, "max").sat(oracle.parse_formula(text))
            if want & set(self.ks.states) != base:
                return f"deadlock-extension theorem fails for {text!r}"
            return None
        return check

    def _equiv_check(self, variant):
        def exact(blocks):
            if _blocks_set(blocks) != _blocks_set(self._history(variant)[-1]):
                return f"{variant} partition differs from naive refinement"
            return None
        return _check_partition(self.ks, variant, exact)

    def _distinguish_check(self, variant, a, b):
        sem = "db" if variant == "db" else "max"

        def check(stdout):
            if not self._split(variant, a, b):
                return None if stdout.strip() == "equivalent" else \
                    f"{a}, {b}: expected equivalent"
            sat = self._evaluator(self.ks, sem).sat(oracle.parse_formula(stdout))
            if a not in sat or b in sat:
                return f"formula does not separate {a} from {b}"
            return None
        return check

    def cross_check(self, outputs):
        return _check_ordering(outputs, "equiv")


# ---------------------------------------------------------------------------
# compose-traces
# ---------------------------------------------------------------------------

class ComposeTraces(Workload):
    """Small acyclic components folded by compose into a large product,
    ed refinement of the product, and exhaustive traces of a mid-size
    product."""

    FOLD = ("a", "b", "c")          # prefixes of the random components
    FOLD_STATES = 10
    FOLD_TAU = 3
    FOLD_VISIBLE = 2
    TRACE = (("e", 2), ("f", 2), ("g", 1))   # (prefix, diamonds)
    ACTIONS = ("a", "b")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # The last component is a fixed chain d0 -d-> ... -d-> d9 on an
        # action of its own.  It needs 9 refinement rounds in the product,
        # as many as the random part needed at most in the seeds tried, so
        # every seed refines the product for the same number of rounds.
        chain = [f"d{i}" for i in range(self.FOLD_STATES)]
        self.fold = [self._random_dag(p) for p in self.FOLD] + [_graph(
            chain, [(chain[i], "d", chain[i + 1]) for i in range(len(chain) - 1)])]
        self.trace = [self._diamonds(p, n) for (p, n) in self.TRACE]
        self.files = {}     # component root -> its model file
        for g in self.fold + self.trace:
            root = g.states[0]
            self.files[root] = self.write(f"{root}.lts",
                                          oracle.write_lts(g.states, g.transitions))
        chain = [f"h{i}" for i in range(TAU_CHAIN_LENGTH)]
        self.chain_file = self.write("chain.lts", oracle.write_lts(
            chain, [(chain[i], TAU, chain[i + 1]) for i in range(len(chain) - 1)]))

    def _label(self):
        return TAU if self.rng.random() < 0.25 else self.rng.choice(self.ACTIONS)

    def _random_dag(self, prefix):
        """States p0..p9 on a visible backbone p0 -> p1 -> ... -> p9, plus
        FOLD_TAU silent and FOLD_VISIBLE visible forward shortcuts between
        random states.  Fixing the backbone and the shortcut counts keeps
        the cost of refining the product alike across seeds; every state
        is reachable from p0."""
        rng, n = self.rng, self.FOLD_STATES
        st = [f"{prefix}{i}" for i in range(n)]
        trans = [(st[i], rng.choice(self.ACTIONS), st[i + 1]) for i in range(n - 1)]
        shortcuts = set()
        while len(shortcuts) < self.FOLD_TAU + self.FOLD_VISIBLE:
            i = rng.randrange(n - 2)
            shortcuts.add((i, rng.randrange(i + 2, n)))
        shortcuts = sorted(shortcuts)
        rng.shuffle(shortcuts)
        for k, (i, j) in enumerate(shortcuts):
            act = TAU if k < self.FOLD_TAU else rng.choice(self.ACTIONS)
            trans.append((st[i], act, st[j]))
        return _graph(st, trans)

    def _diamonds(self, prefix, count):
        """A chain of diamonds: two branches of two steps each between
        consecutive joins, so the number of paths is fixed by shape."""
        st = [f"{prefix}0"]
        trans = []
        for j in range(count):
            start = f"{prefix}{3 * j}"
            left, right, join = (f"{prefix}{3 * j + k}" for k in (1, 2, 3))
            st += [left, right, join]
            for mid in (left, right):
                trans += [(start, self._label(), mid), (mid, self._label(), join)]
        return _graph(st, trans)

    def _product_names(self, comps):
        out = [""]
        for g in comps:
            out = [f"{x}.{s}" if x else s for x in out for s in g.states]
        return out

    def _fold(self, name, comps):
        """compose steps folding ``comps`` left to right; returns the
        operations and the file of the last product."""
        ops = []
        prev = self.files[comps[0].states[0]]
        for k in range(1, len(comps)):
            out = self.path(f"{name}{k + 1}.lts")
            root = ".".join(g.states[0] for g in comps[:k])
            right = f"{self.files[comps[k].states[0]]}:{comps[k].states[0]}"
            ops.append(Op(f"{name}-fold{k}", "compose",
                          self._product_size(comps[:k]) + _size(comps[k]),
                          ["compose", "--left", f"{prev}:{root}", "--right", right,
                           "-o", out], 0,
                          self._product_check(comps[:k + 1], Path(out)),
                          reads=Path(out)))
            prev = out
        return ops, prev

    def ops(self):
        ops, big = self._fold("p", self.fold)
        ops.append(Op("product-ed", "check-equiv", self._product_size(self.fold),
                      ["check-equiv", "--model", big, "--kind", "lts",
                       "--variant", "ed"], 0, self._congruence_check(Path(big))))
        trace_ops, mid = self._fold("t", self.trace)
        ops += trace_ops
        root = ".".join(g.states[0] for g in self.trace)
        bound = sum(2 * n for (_, n) in self.TRACE)
        ops.append(Op("traces", "traces", self._product_size(self.trace),
                      ["traces", "--model", mid, "--kind", "lts", "--state", root,
                       "--bound", str(bound)], 0, self._traces_check))
        ops.append(Op("traces-tau-chain", "traces", 2 * TAU_CHAIN_LENGTH - 1,
                      ["traces", "--model", self.chain_file, "--kind", "lts",
                       "--state", "h0", "--bound", "4"], 0,
                      lambda out: None if out.strip() == "."
                      else f"expected '.', got {out.strip()[:40]!r}"))
        return ops

    def _product_size(self, comps):
        n, m = 1, 0
        for g in comps:
            t = len(g.transitions)
            m = m * len(g.states) + t * n
            n *= len(g.states)
        return n + m

    def _expected_product(self, comps):
        """States and transitions of the full interleaving product, in the
        names dtk renders them with ('|' becomes '.')."""
        states = self._product_names(comps)
        tuples = [tuple(s.split(".")) for s in states]
        trans = set()
        for x in tuples:
            for i, g in enumerate(comps):
                for (a, y) in g.succ[x[i]]:
                    z = x[:i] + (y,) + x[i + 1:]
                    trans.add((".".join(x), a, ".".join(z)))
        return states, trans

    def _product_check(self, comps, out_file):
        def check(_stdout):
            p = oracle.parse_model(out_file.read_text())
            n, m = 1, 0
            for g in comps:
                n *= len(g.states)
            for i, g in enumerate(comps):
                others = n // len(g.states)
                m += len(g.transitions) * others
            if len(p.states) != n or len(p.transitions) != m:
                return (f"product has {len(p.states)} states, "
                        f"{len(p.transitions)} transitions; expected {n}, {m}")
            states, trans = self._expected_product(comps)
            if set(p.states) != set(states) or set(p.transitions) != trans:
                return "product differs from the interleaving of its components"
            return None
        return check

    def _congruence_check(self, product_file):
        def check(stdout):
            p = self.cached(("product", product_file), lambda: oracle.parse_model(
                product_file.read_text()))
            blocks = oracle.parse_partition(stdout)
            if not oracle.stable(p, blocks, "ed"):
                return "product ed partition is not stable"
            of = oracle.block_map(blocks)
            classes = []
            for g in self.fold:
                comp = oracle.block_map(oracle.naive_refinement(g, "ed")[-1])
                classes.append({s: [t for t in g.states if comp[t] == comp[s]]
                                for s in g.states})
            for x in p.states:
                coords = x.split(".")
                for i, cls in enumerate(classes):
                    for y in cls[coords[i]]:
                        z = ".".join(coords[:i] + [y] + coords[i + 1:])
                        if of[z] != of[x]:
                            return f"{x} and {z} differ only in ed-equivalent coordinates"
            return None
        return check

    def _traces_check(self, stdout):
        words = {()}
        for g in self.trace:
            words = oracle.shuffle(words, oracle.action_words(g, g.states[0]))
        want = sorted(" ".join(w + (".",)) for w in words)
        got = sorted(line.strip() for line in stdout.splitlines() if line.strip())
        if got != want:
            return (f"trace set differs from the shuffle of the component "
                    f"words ({len(got)} lines, {len(want)} expected)")
        return None


WORKLOADS = {
    "lts-refine": LtsRefine,
    "ks-check": KsCheck,
    "compose-traces": ComposeTraces,
}
