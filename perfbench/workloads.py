"""The three benchmark workloads.

Each workload writes its generated inputs to a work directory, loads them
through qtbs (the timed set-up), and then yields operations: closed-loop
calls into qtbs entry points, one at a time. Every call goes through a
module attribute looked up at call time, so the tracer's wrappers see it.
Answers are verified by ``check`` the first time a key is seen; later
answers for the same key must be identical.
"""
import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import inputs

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class Workload:
    """Shared state: the seed, the input directory and the size switch.

    ``kinds`` are the operation kinds a workload times; each gets its own
    latency figures in the report.
    """

    def __init__(self, seed, workdir, tiny=False):
        self.seed, self.workdir, self.tiny = seed, Path(workdir), tiny

    def warmup(self):
        return self.pass_ops()

    def passes(self):
        """Lists of operations; the timed loop stops only between passes,
        so every run times whole passes with a fixed mix of kinds."""
        while True:
            yield self.pass_ops()

    @staticmethod
    def output_bytes(kind, out):
        return 0

    def final_check(self):
        """Checks that need every answer first: key -> problems."""
        return {}


class SolveWorkload(Workload):
    """In-process ``qtbs solve FILE --format json`` on ~10k-flow files."""

    name = "solve-10k"
    kinds = ("solve",)

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.size = (20, 200) if tiny else (inputs.SOLVE_LINKS, inputs.SOLVE_FLOWS)
        self.files = []

    def generate(self):
        docs = inputs.solve_inputs(self.seed, *self.size)
        for i, doc in enumerate(docs):
            self.files.append(str(self.workdir / f"solve-{i}.json"))
            _write(self.files[-1], doc)

    def load(self):
        # The CLI parses the file inside every operation; set-up is import only.
        self.files = sorted(str(p) for p in self.workdir.glob("solve-*.json"))

    @staticmethod
    def _solve(path):
        import qtbs.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = qtbs.cli.main(["solve", path, "--format", "json"])
        if code != 0:
            raise RuntimeError(f"qtbs solve exited with {code}")
        return out.getvalue()

    def pass_ops(self):
        return [("solve", p, lambda p=p: self._solve(p)) for p in self.files]

    @staticmethod
    def fingerprint(kind, out):
        return hashlib.sha256(out.encode()).hexdigest()

    @staticmethod
    def output_bytes(kind, out):
        return len(out.encode())

    def verify(self, kind, key, out):
        import check

        doc = json.loads(_read(key))
        report = json.loads(out)
        problems = check.solve_report(doc, report)
        if key == self.files[self.seed % len(self.files)]:
            # Seeded subset for the independent oracle (~5 s at 10k flows).
            from qtbs.model import parse_network

            problems += check.rates_match_oracle(parse_network(doc), report["rates"])
        return problems


class GradWorkload(Workload):
    """``forward_grad`` on seeded flow and link targets, plus the bound."""

    name = "grad-2k5"
    kinds = ("grad_flow", "grad_link", "bound")
    ORACLE_TARGETS = 1  # per kind; one fd_gradient costs ~1.5 s at 2.5k flows

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.path = self.workdir / "grad.json"
        self.size = (15, 120, 12, 12) if tiny else (
            inputs.GRAD_LINKS, inputs.GRAD_FLOWS,
            inputs.GRAD_FLOW_TARGETS, inputs.GRAD_LINK_TARGETS)
        self.magnitudes = []
        self.kept = {}

    def generate(self):
        doc, targets = inputs.grad_inputs(self.seed, *self.size)
        _write(self.path, {"network": doc, "targets": targets})

    def load(self):
        from qtbs import gradient_graph, parse_network

        stored = json.loads(_read(self.path))
        self.targets = [tuple(t) for t in stored["targets"]]
        self.network = parse_network(stored["network"])
        self.solution = gradient_graph(self.network)
        rng = random.Random(f"grad-2k5/oracle/{self.seed}")
        self.oracle_keys = set()
        for kind in ("flow", "link"):
            pool = [t for k, t in self.targets if k == kind]
            self.oracle_keys.update(rng.sample(pool, self.ORACLE_TARGETS))

    def _grad(self, target):
        import qtbs.gradients

        return qtbs.gradients.forward_grad(
            self.solution, qtbs.gradients.Perturbation(target, -1))

    def _bound(self):
        import qtbs.gradients

        return qtbs.gradients.gradient_bound(self.solution)

    def pass_ops(self):
        return [(f"grad_{kind}", target, lambda t=target: self._grad(t))
                for kind, target in self.targets]

    def warmup(self):
        return self.pass_ops()[:20]

    def passes(self):
        # The bound (~2.3 s at 2.5k flows) runs once in every pass, so every
        # pass, and so every run, has the same mix of operations.
        while True:
            yield [("bound", "bound", self._bound)] + self.pass_ops()

    @staticmethod
    def fingerprint(kind, out):
        if kind == "bound":
            return out
        return hash((tuple(out.flow_gradient.items()), tuple(out.link_gradient.items())))

    def verify(self, kind, key, out):
        if kind == "bound":
            self.bound = out
            return []
        problems = []
        if kind == "grad_flow" and out.gradient(key) != -1.0:
            problems.append(f"{key}: own gradient {out.gradient(key)} != -1")
        n = len(out.flow_gradient) + len(out.link_gradient)
        if n != len(self.network.links) + len(self.network.flows):
            problems.append(f"{key}: gradients cover {n} vertices")
        self.magnitudes.append(out.max_magnitude())
        if key in self.oracle_keys:
            self.kept[key] = out
        return problems

    def final_check(self):
        import check
        from qtbs import oracle

        problems = {}
        if hasattr(self, "bound"):
            problems["bound"] = check.gradient_within_bound(self.bound, self.magnitudes)
        # A step of 1/100 of the smallest gap between distinct values stays
        # inside one linear piece yet keeps the finite-difference rounding
        # error (~1e-14 / delta) below the tolerance at 2.5k flows.
        delta = oracle.suggest_delta(self.network) * 1e4
        for key, result in sorted(self.kept.items()):
            problems[key] = check.gradient_matches_oracle(self.network, result, delta)
        return problems


class PlanWorkload(Workload):
    """Routes on b4, shaping plans on shaping, tapers on leaf-spine trees."""

    name = "plan-mix"
    kinds = ("route", "shape", "taper")

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.trees = ((2,), (2,)) if tiny else (inputs.TREE_PODS, inputs.TREE_HOSTS)

    def generate(self):
        leaf, trees, order = inputs.plan_inputs(self.seed, *self.trees)
        _write(self.workdir / "plan.json", {"leaf_capacity": leaf, "order": order})
        for name, tree in trees.items():
            _write(self.workdir / f"{name}.json", tree)

    def load(self):
        from qtbs import parse_network

        meta = json.loads(_read(self.workdir / "plan.json"))
        self.leaf = meta["leaf_capacity"]
        self.b4 = parse_network(_read(FIXTURES / "b4.json"))
        self.shaping = parse_network(_read(FIXTURES / "shaping.json"))
        # fat_tree.json keeps its own leaf capacity (20) and spines (l5, l6).
        fat_tree = parse_network(_read(FIXTURES / "fat_tree.json"))
        self.tapers = {"fat_tree": (fat_tree, ("l5", "l6"), 20.0)}
        for path in sorted(self.workdir.glob("tree*.json")):
            tree = json.loads(_read(path))
            self.tapers[path.stem] = (
                parse_network(tree["network"]), tuple(tree["scale_links"]), self.leaf)
        ops = []
        routers = self.b4.routers[:3] if self.tiny else self.b4.routers
        ops += [("route", (s, d)) for s in routers for d in routers if s != d]
        ops += [("shape", f.id) for f in self.shaping.flows]
        ops += [("taper", name) for name in self.tapers]
        random.Random(meta["order"]).shuffle(ops)
        self.ops = ops

    def _call(self, kind, key):
        import qtbs.planner
        import qtbs.routing

        if kind == "route":
            return qtbs.routing.max_rate_path(self.b4, *key)
        if kind == "shape":
            low = [f.id for f in self.shaping.flows if f.id != key]
            return qtbs.planner.accelerate_flow(self.shaping, key, low)
        return qtbs.planner.taper_fold(*self.tapers[key], 1.0)

    def pass_ops(self):
        return [(k, key, lambda k=k, key=key: self._call(k, key)) for k, key in self.ops]

    @staticmethod
    def fingerprint(kind, out):
        if kind == "route":
            return (out.links, out.predicted_rate)
        if kind == "shape":
            return out.actions
        return (out.tau_star, out.method)

    def verify(self, kind, key, out):
        import check

        if kind == "route":
            return check.route_matches_oracle(self.b4, *key, out)
        if kind == "shape":
            return check.plan_matches_oracle(self.shaping, out)
        return check.taper_matches_oracle(*self.tapers[key], 1.0, out)


WORKLOADS = {w.name: w for w in (SolveWorkload, GradWorkload, PlanWorkload)}
