"""Strict scenario configuration: line-oriented sections of typed key=value.

Unknown sections and unknown keys are hard errors; silent config drift is the
main reproducibility killer.  Sections:

    top level       seed (required), out (optional)
    [system]        kind, name | dim+rhs / member lines, inclusion, epsilon
    [solver]        method, step, rel, abs, escape, max_steps
    [bundle]        directions, switches
    [sampling]      window, boundary, interior, tgrid
    [set NAME]      kind = ball|box|halfspace|sublevel|points|complement|
                    union|intersection plus per-kind fields
    [barrier]       kind = marginal|counterexample|user|converse, ...
    [simulate]      X_o, T
    [reach]         x0, t, stride
    [barrier-eval]  window, nx, tgrid
    [smooth]        h, region, k_max, table_res, grid_n
    [check NAME]    kind plus per-kind fields
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .dynamics import InclusionSpec, builtin_field, field_from_expressions
from .expr import compile_expression
from .geometry import SetSpec
from .solver import BundlePlan, IntegratorConfig
from .verify import SamplePlan


class ConfigError(ValueError):
    pass


_SCHEMAS = {
    "": {"seed": "int", "out": "str"},
    "system": {"kind": "str", "name": "str", "dim": "int", "rhs": "str",
               "member": "str+", "inclusion": "str", "epsilon": "float"},
    "solver": {"method": "str", "step": "float", "rel": "float", "abs": "float",
               "escape": "float", "max_steps": "int"},
    "bundle": {"directions": "int", "switches": "int"},
    "sampling": {"window": "vec", "boundary": "int", "interior": "int",
                 "tgrid": "vec"},
    "set": {"kind": "str", "center": "vec", "radius": "float", "lo": "vec",
            "hi": "vec", "normal": "vec", "offset": "float", "fn": "str",
            "level": "float", "window": "vec", "grid": "int", "point": "vec+",
            "of": "str"},
    "barrier": {"kind": "str", "X_o": "str", "expression": "str",
                "band": "float", "k_max": "int",
                "s_lo": "int", "s_hi": "int"},
    "simulate": {"X_o": "str", "T": "float"},
    "reach": {"x0": "vec", "t": "float", "stride": "int"},
    "barrier-eval": {"window": "vec", "nx": "int", "tgrid": "vec"},
    "smooth": {"h": "str", "region": "str", "k_max": "int", "table_res": "int",
               "grid_n": "int", "w_tol": "float", "out_n": "int"},
    "check": {"kind": "str", "X_o": "str", "X_u": "str", "X_s": "str",
              "K": "str", "T": "float", "tol": "float", "mode": "str",
              "region": "str", "width": "float", "g": "str", "count": "int",
              "n_samples": "int", "lam_box": "str",
              "pairs": "int", "max_sep": "float", "stride": "int"},
}


def _parse_value(raw: str, typ: str):
    raw = raw.strip()
    base = typ.rstrip("+")
    if base == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"expected integer, got '{raw}'") from None
    if base == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"expected number, got '{raw}'") from None
    if base == "vec":
        try:
            return [float(tok) for tok in raw.split()]
        except ValueError:
            raise ConfigError(f"expected numbers, got '{raw}'") from None
    return raw


@dataclass
class RawConfig:
    sections: dict
    text: str

    def hash(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    def get(self, section: str, key: str, default=None):
        vals = self.sections.get(section, {}).get(key)
        if vals is None:
            return default
        return vals[-1]

    def get_all(self, section: str, key: str) -> list:
        return self.sections.get(section, {}).get(key, [])

    def section_names(self, prefix: str) -> list:
        out = []
        for name in self.sections:
            if name == prefix or name.startswith(prefix + " "):
                out.append(name)
        return out


def parse_config(text: str, overrides: Optional[dict] = None) -> RawConfig:
    """Parse and strictly validate the scenario text."""
    if overrides:
        text = _apply_overrides(text, overrides)
    sections: dict = {"": {}}
    current = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header")
            current = stripped[1:-1].strip()
            head = current.split(" ", 1)[0]
            if head not in _SCHEMAS or head == "":
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            if head in ("set", "check") and " " not in current:
                raise ConfigError(f"line {lineno}: [{head}] needs a name")
            if current in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        head = current.split(" ", 1)[0] if current else ""
        schema = _SCHEMAS[head]
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in section [{current or 'top level'}]")
        typ = schema[key]
        value = _parse_value(raw, typ)
        bucket = sections[current].setdefault(key, [])
        if bucket and not typ.endswith("+"):
            raise ConfigError(f"line {lineno}: key '{key}' repeated in [{current}]")
        bucket.append(value)
    if "seed" not in sections[""]:
        raise ConfigError("missing required top-level key 'seed'")
    return RawConfig(sections, text)


def load_config(path, overrides: Optional[dict] = None) -> RawConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(), overrides)


def _apply_overrides(text: str, overrides: dict) -> str:
    """--set section.key=value rewrites (or appends) the raw line."""
    lines = text.splitlines()
    for dotted, value in overrides.items():
        if "." in dotted:
            section, key = dotted.rsplit(".", 1)
        else:
            section, key = "", dotted
        out = []
        current = ""
        replaced = False
        section_end = None
        for i, line in enumerate(lines):
            stripped = line.split("#", 1)[0].strip()
            if stripped.startswith("[") and stripped.endswith("]"):
                current = stripped[1:-1].strip()
            elif "=" in stripped and current == section:
                k = stripped.split("=", 1)[0].strip()
                if k == key:
                    line = f"{key} = {value}"
                    replaced = True
            out.append(line)
        if not replaced:
            if section == "":
                out.insert(0, f"{key} = {value}")
            else:
                try:
                    idx = next(i for i, l in enumerate(out)
                               if l.split("#", 1)[0].strip() == f"[{section}]")
                    out.insert(idx + 1, f"{key} = {value}")
                except StopIteration:
                    out.extend([f"[{section}]", f"{key} = {value}"])
        lines = out
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# scenario assembly
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    raw: RawConfig
    seed: int
    out_dir: Optional[str]
    system: Optional[InclusionSpec]
    solver: IntegratorConfig
    bundle: BundlePlan
    samples: SamplePlan
    sets: dict
    t_grid: np.ndarray


def _build_set(name: str, cfg: RawConfig, cache: dict, stack: tuple = ()) -> SetSpec:
    if name in cache:
        return cache[name]
    if name in stack:
        raise ConfigError(f"set '{name}' references itself (cycle)")
    section = f"set {name}"
    if section not in cfg.sections:
        raise ConfigError(f"unknown set '{name}'")
    kind = cfg.get(section, "kind")
    if kind is None:
        raise ConfigError(f"[{section}] needs kind")
    if kind == "ball":
        spec = SetSpec.ball(cfg.get(section, "center"), cfg.get(section, "radius"), name=name)
    elif kind == "box":
        spec = SetSpec.box(cfg.get(section, "lo"), cfg.get(section, "hi"), name=name)
    elif kind == "halfspace":
        spec = SetSpec.halfspace(cfg.get(section, "normal"), cfg.get(section, "offset"), name=name)
    elif kind == "points":
        pts = cfg.get_all(section, "point")
        if not pts:
            raise ConfigError(f"[{section}] needs at least one point")
        spec = SetSpec.points(pts, name=name)
    elif kind == "sublevel":
        window = cfg.get(section, "window")
        if window is None:
            raise ConfigError(f"[{section}] sublevel needs a window")
        dim = len(window) // 2
        fn_text = cfg.get(section, "fn")
        variables = tuple(f"x{i + 1}" for i in range(dim))
        fn = compile_expression(fn_text, variables)
        spec = SetSpec.sublevel(fn, cfg.get(section, "level", 0.0), dim,
                                (window[:dim], window[dim:]),
                                grid=cfg.get(section, "grid", 33), name=name)
    elif kind in ("complement", "union", "intersection"):
        refs = (cfg.get(section, "of") or "").split()
        if not refs:
            raise ConfigError(f"[{section}] needs 'of = NAME...'")
        members = [_build_set(r, cfg, cache, stack + (name,)) for r in refs]
        if kind == "complement":
            if len(members) != 1:
                raise ConfigError("complement takes exactly one set")
            spec = SetSpec.complement(members[0], name=name)
        elif kind == "union":
            spec = SetSpec.union(members, name=name)
        else:
            spec = SetSpec.intersection(members, name=name)
    else:
        raise ConfigError(f"unknown set kind '{kind}'")
    cache[name] = spec
    return spec


def set_to_config(spec: SetSpec, name: Optional[str] = None) -> str:
    """Serialize a set back to scenario-file lines (inverse of _build_set).

    Sublevel sets carry function handles, which have no faithful text form
    unless they were built from an expression; those round-trip through the
    stored source."""
    name = name or spec.name or spec.kind
    lines = [f"[set {name}]", f"kind = {spec.kind}"]
    fmt = lambda v: " ".join(repr(float(c)) for c in np.atleast_1d(v))
    if spec.kind == "ball":
        lines += [f"center = {fmt(spec.center)}", f"radius = {spec.radius!r}"]
    elif spec.kind == "box":
        lines += [f"lo = {fmt(spec.lo)}", f"hi = {fmt(spec.hi)}"]
    elif spec.kind == "halfspace":
        lines += [f"normal = {fmt(spec.normal)}", f"offset = {spec.offset!r}"]
    elif spec.kind == "points":
        lines += [f"point = {fmt(p)}" for p in spec.pts]
    elif spec.kind == "sublevel":
        source = getattr(spec.fn, "source", None)
        if source is None:
            raise ConfigError("sublevel set has no expression source to serialize")
        lo, hi = spec.window
        lines += [f"fn = {source}", f"level = {spec.level!r}",
                  f"window = {fmt(lo)} {fmt(hi)}", f"grid = {spec.grid}"]
    elif spec.kind in ("complement", "union", "intersection"):
        parts = []
        for i, m in enumerate(spec.members):
            child = m.name or f"{name}_m{i}"
            parts.append((child, m))
        lines += ["of = " + " ".join(child for child, _ in parts)]
        for child, m in parts:
            lines = [set_to_config(m, child), ""] + lines
    else:
        raise ConfigError(f"cannot serialize set kind '{spec.kind}'")
    return "\n".join(lines)


def _build_system(cfg: RawConfig) -> Optional[InclusionSpec]:
    if "system" not in cfg.sections:
        return None
    kind = cfg.get("system", "kind", "builtin")
    inclusion = cfg.get("system", "inclusion", "singleton")
    if kind == "builtin":
        name = cfg.get("system", "name")
        if name is None:
            raise ConfigError("[system] builtin needs name")
        f = builtin_field(name)
    elif kind == "expression":
        rhs = cfg.get("system", "rhs")
        if rhs is None:
            raise ConfigError("[system] expression needs rhs")
        exprs = [c.strip() for c in rhs.split(";")]
        dim = cfg.get("system", "dim", len(exprs))
        if dim != len(exprs):
            raise ConfigError(f"[system] dim={dim} but rhs has {len(exprs)} components")
        f = field_from_expressions(exprs, name="user")
    else:
        raise ConfigError(f"unknown system kind '{kind}'")
    if inclusion == "singleton":
        return InclusionSpec.singleton(f)
    if inclusion == "ball":
        return InclusionSpec.ball_perturbed(f, cfg.get("system", "epsilon", 0.0))
    if inclusion == "hull":
        members = cfg.get_all("system", "member")
        fields = [f] + [field_from_expressions([c.strip() for c in m.split(";")],
                                               name=f"member{i}")
                        for i, m in enumerate(members)]
        return InclusionSpec.hull(fields)
    raise ConfigError(f"unknown inclusion variant '{inclusion}'")


def build_scenario(cfg: RawConfig) -> Scenario:
    seed = cfg.get("", "seed")
    out_dir = cfg.get("", "out")
    solver = IntegratorConfig(
        method=cfg.get("solver", "method", "rk4"),
        step=cfg.get("solver", "step", 1.0 / 512.0),
        rel_tol=cfg.get("solver", "rel", 1e-8),
        abs_tol=cfg.get("solver", "abs", 1e-10),
        escape_radius=cfg.get("solver", "escape", 1e6),
        max_steps=cfg.get("solver", "max_steps", 5_000_000),
    )
    cache: dict = {}
    for section in cfg.section_names("set"):
        name = section.split(" ", 1)[1]
        _build_set(name, cfg, cache)
    window = cfg.get("sampling", "window")
    if window is not None:
        dim = len(window) // 2
        window = (np.asarray(window[:dim]), np.asarray(window[dim:]))
    tg = cfg.get("sampling", "tgrid", [0.0, 1.0, 11])
    if len(tg) != 3:
        raise ConfigError("[sampling] tgrid must be 'min max count'")
    t_grid = np.linspace(tg[0], tg[1], int(tg[2]))
    return Scenario(
        raw=cfg, seed=seed, out_dir=out_dir, system=_build_system(cfg),
        solver=solver,
        bundle=BundlePlan(cfg.get("bundle", "directions", 8),
                          cfg.get("bundle", "switches", 0), seed),
        samples=SamplePlan(cfg.get("sampling", "boundary", 32),
                           cfg.get("sampling", "interior", 32), seed, window),
        sets=cache, t_grid=t_grid,
    )
