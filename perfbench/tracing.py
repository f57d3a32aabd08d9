"""Outside-in tracing of the blockecho modules for the traced benchmark run.

The tracer replaces public functions where each module looks them up (its
own namespace), so the package itself is not modified: ``net_forward``,
``net_backward``, ``adam_step``, ``kl_loss``, ``build_hint``, ``mix_rows``
and the noise draw ``uniform`` in ``gan``; ``mu_step`` and ``kl_loss`` in
``mf``; ``normalize`` and ``NormParams.inverse`` in ``metrics``;
``gen_synthetic`` in ``data``; ``generate_mask`` in ``masking``; and
``as_matrix`` in every module. ``uninstall`` puts every original back.

Inside ``gan.train`` the iteration loop is located by counting noise draws:
``train`` draws one noise batch at the start of each iteration and one more
for the final full-matrix pass, so the loop runs from the first draw to
draw number ``iters + 1`` and the final pass from there to the return.
Network calls are attributed by comparing ``net.sizes`` with the resolved
config, Adam calls by the prefix of their parameter names. Kernel and
generator-side counts are kept only for the iteration loop.
"""

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

NETS = ("g", "mcl", "d1", "d2")
ADAM_GROUPS = ("g", "d1", "d2")

# Spans of other layers inside the loop; gan's self time is what they leave.
_CHILD_SPANS = ("forward.", "backward.", "adam.", "gan.kl_loss")


class Tracer:
    """Per-layer spans and counts for one benchmark process.

    Records only while ``enabled`` is true, so the benchmark can run its own
    checks through the same modules without counting them.
    """

    def __init__(self, mods):
        self.mods = mods
        self.enabled = False
        self._patches = []
        self.busy = defaultdict(float)      # seconds per span key
        self.calls = defaultdict(int)       # calls per span key
        self.stages = defaultdict(list)     # bench-timed stage durations
        self.loop_s = 0.0
        self.loop_iters = 0
        self.loop_self_s = 0.0
        self.final_pass_s = []
        self._train = None                  # state of the gan.train in flight

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        m = self.mods
        self._wrap(m.gan, "net_forward", lambda net, *_: "forward." + self._net(net), loop=True)
        self._wrap(m.gan, "net_backward", lambda net, *_: "backward." + self._net(net), loop=True)
        self._wrap(m.gan, "adam_step", lambda _s, _p, grads: "adam." + _group(grads), loop=True)
        self._wrap(m.gan, "kl_loss", lambda *_: "gan.kl_loss", loop=True)
        self._wrap(m.gan, "build_hint", lambda *_: "gan.build_hint", loop=True)
        self._wrap(m.gan, "mix_rows", lambda *_: "gan.mix_rows", loop=True)
        self._wrap(m.mf, "mu_step", lambda *_: "mf.mu_step")
        self._wrap(m.mf, "kl_loss", lambda *_: "mf.kl_loss")
        self._wrap(m.metrics, "normalize", lambda *_: "metrics.normalize")
        self._wrap(m.metrics.NormParams, "inverse", lambda *_: "metrics.inverse")
        self._wrap(m.data, "gen_synthetic", lambda *_: "data.gen_synthetic")
        self._wrap(m.masking, "generate_mask", lambda *_: "masking.generate_mask")
        for mod in (m.kernel, m.metrics, m.mf, m.gan, m.data, m.masking):
            self._patch(mod, "as_matrix", self._counter(mod.as_matrix))
        self._patch(m.gan, "uniform", self._noise_marker(m.gan.uniform))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed_for_run(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def recording(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    @contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        yield
        self.stages[name].append(time.perf_counter() - t0)

    # -- gan.train bracketing ----------------------------------------------

    def begin_train(self, cfg):
        """cfg is the resolved config of the gan.train call about to start."""
        sizes = {"g": cfg.g_layers, "mcl": cfg.mcl_layers, "d1": cfg.d1_layers,
                 "d2": cfg.d2_layers}
        self._train = {
            "iters": cfg.iters, "draws": 0, "phase": "setup", "t_loop": 0.0, "t_final": 0.0,
            "covered": 0.0, "as_matrix": 0, "nets": {},
            "sizes": {tuple(v): k for k, v in sizes.items() if v is not None},
            "busy": defaultdict(float), "calls": defaultdict(int),
        }

    def end_train(self, ok):
        """Commit the loop statistics of a gan.train that ran to completion."""
        tr, self._train = self._train, None
        if not ok or tr is None or tr["phase"] != "final":
            return
        loop_s = tr["t_final"] - tr["t_loop"]
        self.loop_s += loop_s
        self.loop_iters += tr["iters"]
        self.loop_self_s += loop_s - tr["covered"]
        self.final_pass_s.append(time.perf_counter() - tr["t_final"])
        for key, v in tr["busy"].items():
            self.busy[key] += v
        for key, v in tr["calls"].items():
            self.calls[key] += v
        self.calls["as_matrix.loop"] += tr["as_matrix"]

    def _in_loop(self):
        return self._train is not None and self._train["phase"] == "loop"

    def _net(self, net):
        nets = self._train["nets"]
        name = nets.get(id(net))
        if name is None:
            name = nets[id(net)] = self._train["sizes"].get(tuple(net.sizes), "other")
        return name

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, owner, name, key_of, loop=False):
        """Time calls of owner.name under the key key_of(*args) gives.

        With loop=True only calls inside the gan.train loop are recorded,
        into that call's own tally, which end_train commits.
        """
        fn = getattr(owner, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or (loop and not tracer._in_loop()):
                return fn(*args, **kwargs)
            key = key_of(*args)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tr = tracer._train if loop else None
                busy, calls = (tr["busy"], tr["calls"]) if loop else (tracer.busy, tracer.calls)
                busy[key] += dt
                calls[key] += 1
                if loop and key.startswith(_CHILD_SPANS):
                    tr["covered"] += dt

        wrapper.perfbench_wrapper = True
        self._patch(owner, name, wrapper)

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled and tracer._in_loop():
                tracer._train["as_matrix"] += 1
            return fn(*args, **kwargs)

        wrapper.perfbench_wrapper = True
        return wrapper

    def _noise_marker(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr = tracer._train
            if tracer.enabled and tr is not None and tr["phase"] in ("setup", "loop"):
                tr["draws"] += 1
                if tr["draws"] == 1:
                    tr["phase"], tr["t_loop"] = "loop", time.perf_counter()
                if tr["draws"] == tr["iters"] + 1:
                    tr["phase"], tr["t_final"] = "final", time.perf_counter()
            return fn(*args, **kwargs)

        wrapper.perfbench_wrapper = True
        return wrapper

    # -- results -----------------------------------------------------------

    def per_call_ms(self, key):
        calls = self.calls.get(key, 0)
        return 1000.0 * self.busy[key] / calls if calls else 0.0

    def per_iter(self, value):
        return value / self.loop_iters if self.loop_iters else 0.0

    def layer_metrics(self, mf_traces):
        """Every per-layer metric of the benchmark, by name."""
        out = {
            "mf.pretrain_s": _median(self.stages["mf.pretrain"]),
            "mf.mu_step_ms": self.per_call_ms("mf.mu_step"),
            "mf.kl_loss_ms": self.per_call_ms("mf.kl_loss"),
            "mf.iterations": statistics.fmean(t.iterations for t in mf_traces) if mf_traces else 0.0,
            "mf.converged_rate": statistics.fmean(float(t.converged) for t in mf_traces) if mf_traces else 0.0,
            "gan.train_s": _median(self.stages["gan.train"]),
            "gan.iter_ms": 1000.0 * self.per_iter(self.loop_s),
            "gan.self_ms_per_iter": 1000.0 * self.per_iter(self.loop_self_s),
            "gan.kl_loss_ms": self.per_call_ms("gan.kl_loss"),
            "gan.build_hint_ms": self.per_call_ms("gan.build_hint"),
            "gan.mix_rows_ms": self.per_call_ms("gan.mix_rows"),
            "gan.final_pass_ms": 1000.0 * statistics.fmean(self.final_pass_s) if self.final_pass_s else 0.0,
        }
        for net in NETS:
            out[f"kernel.forward_ms.{net}"] = self.per_call_ms(f"forward.{net}")
            out[f"kernel.backward_ms.{net}"] = self.per_call_ms(f"backward.{net}")
        for group in ADAM_GROUPS:
            out[f"kernel.adam_ms.{group}"] = self.per_call_ms(f"adam.{group}")
        for net in NETS:
            out[f"kernel.forward_calls_per_iter.{net}"] = self.per_iter(self.calls[f"forward.{net}"])
        out["kernel.as_matrix_calls_per_iter"] = self.per_iter(self.calls["as_matrix.loop"])
        out["metrics.normalize_ms"] = self.per_call_ms("metrics.normalize")
        out["metrics.inverse_ms"] = self.per_call_ms("metrics.inverse")
        out["masking.generate_mask_ms"] = self.per_call_ms("masking.generate_mask")
        out["data.gen_synthetic_ms"] = self.per_call_ms("data.gen_synthetic")
        return out


def wrapped_attributes(mods):
    """Names of module attributes that are still tracing wrappers."""
    owners = [getattr(mods, name) for name in ("kernel", "metrics", "mf", "gan", "data", "masking")]
    owners.append(mods.metrics.NormParams)
    return [
        f"{owner.__name__}.{attr}"
        for owner in owners
        for attr, value in vars(owner).items()
        if getattr(value, "perfbench_wrapper", False)
    ]


def _group(grads):
    return next(iter(grads)).split(".")[0]


def _median(values):
    return statistics.median(values) if values else 0.0
