"""Per-layer tracing of one round, from outside the program.

install() wraps the public functions listed in LAYERS and puts each wrapper
in place of the original everywhere it is bound: in its own module and in
every howechar module that imported the name (cli, thetachar, ...).  So
cross-module calls are traced too, without touching the program's files.

Timed layers record spans (name, start, end, parent) in memory; a span's
self time is its duration minus the time covered by its child spans.
Generator layers are measured by the number of elements they yield, and a
few layers also record a size (terms of the returned series or dict, Monte-
Carlo samples).  Counts repeat exactly from round to round.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (module, function, how): "span" times every call, "gen" counts the
# elements a generator yields, "calls" counts calls only
LAYERS = (
    ("cli", "run", "span"),
    ("howe", "kprime_weyl", "gen"),
    ("howe", "eta_cosets", "calls"),
    ("howe", "z_weyl", "gen"),
    ("rootsys", "weyl_elements", "gen"),
    ("thetachar", "numerator_terms", "span"),
    ("thetachar", "theta_eval", "span"),
    ("thetachar", "theta_numerator_form", "span"),
    ("thetachar", "theta_u1_closed", "span"),
    ("weylchar", "weyl_character", "span"),
    ("orbits", "rdv_fourier", "span"),
    ("orbits", "orbit_integral_oracle", "span"),
    ("laurent", "series", "span"),
    ("laurent", "series_mul", "span"),
    ("laurent", "expand_inverse_root_factor", "span"),
    ("thetachar", "character_series", "span"),
    ("thetachar", "ktype_expansion", "span"),
    ("thetachar", "normalizing_constant", "span"),
    ("thetachar", "vandermonde_identity_check", "span"),
)
# layers whose return value's len() is recorded as ".terms"
SIZED = {"thetachar.numerator_terms", "laurent.series_mul", "thetachar.character_series"}
ORACLE = "orbits.orbit_integral_oracle"

# the per-layer metrics a traced run reports, in BENCHMARK.json order
PER_LAYER = (
    ("cli.self_s", "s"),
    ("howe.kprime_weyl.elements", "count"),
    ("howe.eta_cosets.calls", "count"),
    ("howe.z_weyl.elements", "count"),
    ("rootsys.weyl_elements.elements", "count"),
    ("thetachar.numerator_terms.calls", "count"),
    ("thetachar.numerator_terms.self_s", "s"),
    ("thetachar.numerator_terms.terms", "count"),
    ("thetachar.theta_eval.calls", "count"),
    ("thetachar.theta_eval.self_s", "s"),
    ("thetachar.theta_numerator_form.calls", "count"),
    ("thetachar.theta_numerator_form.self_s", "s"),
    ("thetachar.theta_u1_closed.calls", "count"),
    ("thetachar.theta_u1_closed.self_s", "s"),
    ("weylchar.weyl_character.calls", "count"),
    ("weylchar.weyl_character.self_s", "s"),
    ("orbits.rdv_fourier.self_s", "s"),
    ("orbits.orbit_integral_oracle.self_s", "s"),
    ("orbits.orbit_integral_oracle.samples_per_s", "1/s"),
    ("laurent.series_mul.calls", "count"),
    ("laurent.series_mul.self_s", "s"),
    ("laurent.series_mul.terms", "count"),
    ("laurent.series.self_s", "s"),
    ("laurent.expand_inverse_root_factor.self_s", "s"),
    ("thetachar.character_series.calls", "count"),
    ("thetachar.character_series.self_s", "s"),
    ("thetachar.character_series.terms", "count"),
    ("thetachar.ktype_expansion.self_s", "s"),
    ("thetachar.normalizing_constant.self_s", "s"),
    ("thetachar.vandermonde_identity_check.calls", "count"),
    ("thetachar.vandermonde_identity_check.self_s", "s"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.samples = 0
        self.sample_time = 0.0

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "howechar" or name.startswith("howechar.")]
        for mod_name, fn_name, how in LAYERS:
            orig = getattr(sys.modules[f"howechar.{mod_name}"], fn_name)
            wrapper = getattr(self, f"_{how}")(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)

    def _span(self, name, fn):
        sig = inspect.signature(fn) if name == ORACLE else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx][1:3] = start, end
            if name in SIZED:
                self.counts[f"{name}.terms"] += len(result)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if bound.arguments["method"] == "mc":
                    self.samples += bound.arguments["n_samples"]
                    self.sample_time += end - start
            return result

        return wrapper

    def _gen(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[f"{name}.elements"] += 1
                yield item

        return wrapper

    def _calls(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self) -> dict[str, float]:
        """This round's value of every PER_LAYER metric; 0 for a layer that did not run."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), kids in zip(self.spans, covered):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + end - start - kids
        out.update(self.counts)
        out["cli.self_s"] = out.get("cli.run.self_s", 0.0)
        out[f"{ORACLE}.samples_per_s"] = self.samples / self.sample_time if self.sample_time else 0.0
        return {key: out.get(key, 0) for key, _ in PER_LAYER}
