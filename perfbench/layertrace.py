"""Per-layer trace of userkit, taken from outside the program.

`Tracer.install()` replaces every public function of each layer module, and
the `DensityMatrix`/`KrausChannel` constructors, with a wrapper that records a
span (name, start, end, parent).  Modules import each other's names directly
(`sear.sample_integer_powers`, `cli.haar_unitary`, ...), so a function is
replaced in every userkit namespace that holds it, not only where it is
defined.  `uninstall()` puts the originals back.  The wrappers only time and
count; arguments and results pass through untouched, so traced and untraced
calls write the same bytes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("config", "lattice", "aqs_magnus", "user_recon", "channels", "sear", "cli", "matrix_core")
CONSTRUCTORS = (("channels", "DensityMatrix"), ("channels", "KrausChannel"))

NAME, LAYER, START, END, PARENT, RAISED, ARGS = range(7)


# Arguments kept on the span, for the functions whose work the metrics count.
_KEEP_ARGS = {
    "sample_integer_powers": lambda a: (a["n_l"], a["U_sd"].shape[0]),
    "twirl_discrete": lambda a: (len(a["ch"].kraus), len(a["twirl_set"]), a["ch"].dim),
    "atomic_write_text": lambda a: len(a["text"].encode()),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = _KEEP_ARGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            kept = keep(inspect.signature(fn).bind(*args, **kwargs).arguments) if keep else None
            spans.append([name, layer, time.perf_counter(), 0.0, stack[-1] if stack else -1, False, kept])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[idx][RAISED] = True
                raise
            finally:
                spans[idx][END] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in list(sys.modules.items()) if n == "userkit" or n.startswith("userkit.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"userkit.{layer}"]
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapped[id(fn)] = self._wrap(layer, name, fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrapped:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapped[id(value)])
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(sys.modules[f"userkit.{layer}"], cls_name)
            self._patches.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap(layer, cls_name, cls.__init__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times and counts of one traced call, keyed by metric name."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def named(*names: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s[NAME] in names]

    def total(*names: str) -> float:
        return sum(dur(i) for i in named(*names))

    def outer_total(pred) -> float:
        """Time in spans matching `pred`, not counting those nested in another match."""
        out = 0.0
        for i, s in enumerate(spans):
            if not pred(s):
                continue
            p = s[PARENT]
            while p >= 0 and not pred(spans[p]):
                p = spans[p][PARENT]
            if p < 0:
                out += dur(i)
        return out

    m: dict[str, float] = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s[LAYER] == layer]
        m[f"{layer}.self_s"] = sum(dur(i) - child_time[i] for i in mine)
        m[f"{layer}.errors"] = sum(1 for i in mine if spans[i][RAISED])

    samples = [spans[i][ARGS] for i in named("sample_integer_powers")]
    m["user_recon.sample_s"] = total("sample_integer_powers")
    m["user_recon.sample_calls"] = len(samples)
    m["user_recon.samples"] = sum(2 * n_l + 1 for n_l, _ in samples)
    m["user_recon.sinc_s"] = total("sinc_reconstruct")
    m["user_recon.gap_calls"] = len(named("min_eigenvalue_gap"))

    twirls = named("twirl_discrete", "twirl_analytic", "twirl_haar_mc")
    m["channels.twirl_s"] = sum(dur(i) for i in twirls)
    m["channels.twirl_calls"] = len(twirls)
    m["channels.conjugations"] = len(named("apply_channel"))
    m["channels.density_checks"] = len(named("DensityMatrix"))
    m["channels.kraus_checks"] = len(named("KrausChannel"))
    m["channels.haar_s"] = total("haar_unitary")

    m["aqs_magnus.design_s"] = total("design_sequence", "design_sequence_drive_fit")
    m["aqs_magnus.usd_calls"] = len(named("approx_discretization_unitary"))
    m["aqs_magnus.evolve_s"] = total("time_ordered_evolve")
    m["aqs_magnus.evolve_calls"] = len(named("time_ordered_evolve"))

    m["cli.io_s"] = total("atomic_write_text")
    m["cli.io_bytes"] = sum(spans[i][ARGS] for i in named("atomic_write_text"))
    m["config.load_s"] = outer_total(lambda s: s[NAME] in ("load_config", "resolve_config"))
    m["lattice.build_s"] = outer_total(lambda s: s[LAYER] == "lattice")

    m["matrix_core.eigh_calls"] = len(named("eig_hermitian"))
    m["matrix_core.eigh_s"] = total("eig_hermitian")
    m["matrix_core.expm_calls"] = len(named("expm_hermitian_i"))

    # Computed kernel counts (from grid sizes, n_a, n_t and d; not measured).
    # Sampling: per grid, 2 n_l matvecs with U or U^dag and 2 n_l + 1 with O.
    # Twirl: per twirl-set member, W^dag K W for each Kraus operator (2 n_a
    # matmuls), K rho K^dag (2 n_a), the sum K^dag K check (n_a), the W W^dag
    # unitarity check (1) and rho O (1).  A complex multiply-add is 8 flops.
    matvecs = [(4 * n_l + 1, d) for n_l, d in samples]
    m["computed.sample_matvecs"] = sum(n for n, _ in matvecs)
    m["computed.sample_flops"] = sum(8 * d * d * n for n, d in matvecs)
    m["computed.twirl_flops"] = sum(
        8 * d**3 * n_t * (5 * n_a + 2) for n_a, n_t, d in (spans[i][ARGS] for i in named("twirl_discrete"))
    )
    m["trace.spans"] = len(spans)
    return m
