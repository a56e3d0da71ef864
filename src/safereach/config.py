"""Strict scenario configuration: line-oriented sections of typed key=value.

Unknown sections and unknown keys are hard errors; silent config drift is the
main reproducibility killer.  Sections:

    top level       seed (required, a non-negative integer), out (optional)
    [system]        kind, name | dim+rhs / member lines, inclusion, epsilon
    [solver]        method (rk4, the only integrator), step, escape, max_steps
    [bundle]        directions, switches (per unit time, on an absolute grid)
    [sampling]      window, boundary, interior, tgrid
    [set NAME]      kind = ball|box|halfspace|sublevel|points|complement|
                    union|intersection plus per-kind fields
    [barrier]       kind = marginal|counterexample|user|converse, ...
    [simulate]      X_o, T
    [reach]         x0, t, stride
    [barrier-eval]  window, nx, tgrid
    [smooth]        h, region, k_max, table_res, grid_n
    [check NAME]    kind plus the keys that kind reads (CHECK_KEYS)
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .dynamics import InclusionSpec, builtin_field, field_from_expressions
from .expr import compile_expression
from .geometry import SamplePlan, SetSpec
from .solver import BundlePlan, IntegratorConfig

# CPython's own SHA-256: hashlib would load OpenSSL for one small hash
try:
    from _sha2 import sha256            # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256


class ConfigError(ValueError):
    pass


_SCHEMAS = {
    "": {"seed": "int", "out": "str"},
    "system": {"kind": "str", "name": "str", "dim": "int", "rhs": "str",
               "member": "str+", "inclusion": "str", "epsilon": "float"},
    "solver": {"method": "str", "step": "float", "escape": "float", "max_steps": "int"},
    "bundle": {"directions": "int", "switches": "int"},
    "sampling": {"window": "vec", "boundary": "int", "interior": "int",
                 "tgrid": "tvec"},
    "set": {"kind": "str", "center": "vec", "radius": "float", "lo": "vec",
            "hi": "vec", "normal": "vec", "offset": "float", "fn": "str",
            "level": "float", "window": "vec", "grid": "int", "point": "vec+",
            "of": "str"},
    "barrier": {"kind": "str", "X_o": "str", "expression": "str",
                "band": "float", "k_max": "int",
                "s_lo": "int", "s_hi": "int"},
    "simulate": {"X_o": "str", "T": "time"},
    "reach": {"x0": "vec", "t": "time", "stride": "count"},
    "barrier-eval": {"window": "vec", "nx": "count", "tgrid": "tvec"},
    "smooth": {"h": "str", "region": "str", "k_max": "int", "table_res": "int",
               "grid_n": "int", "w_tol": "float", "out_n": "int"},
    "check": {"kind": "str", "X_o": "str", "X_u": "str", "X_s": "str",
              "K": "str", "T": "time", "tol": "float", "mode": "str",
              "region": "str", "width": "float", "g": "str", "count": "count",
              "n_samples": "count", "lam_box": "str",
              "pairs": "count", "max_sep": "float", "stride": "count"},
}


# the keys each [check NAME] kind reads besides kind (cli._run_one_check);
# build_scenario refuses any other key in its section
CHECK_KEYS = {"simulate": ("X_o", "X_u", "T", "tol"),
              "sign": ("X_o", "X_u", "n_samples"),
              "monotonicity": ("X_o", "n_samples", "T", "tol", "stride"),
              "infinitesimal": ("region", "width", "mode", "g", "count", "tol"),
              "nagumo": ("K", "mode", "n_samples", "tol"),
              "prop1": ("X_o", "X_s", "g", "mode", "n_samples", "width"),
              "filippov": ("lam_box", "T", "pairs", "max_sep", "tol")}


def _parse_value(raw: str, typ: str, where: str):
    """A value of type typ, refused by its key where (say "[simulate] T") if
    it does not parse; "time" and "tvec" are a float and a vec that must also
    be finite, refused before a pipeline turns them into NaN steps, and
    "count" is an int of at least 1, refused before a sampler or a stride
    meets 0 or a negative number."""
    raw = raw.strip()
    base = typ.rstrip("+")
    if base in ("time", "tvec"):
        value = _parse_value(raw, "float" if base == "time" else "vec", where)
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"{where} must be finite, got {value}")
        return value
    if base in ("int", "count"):
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected integer, got '{raw}'") from None
        if base == "count" and value < 1:
            raise ConfigError(f"{where} must be at least 1, got {value}")
        return value
    if base == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected number, got '{raw}'") from None
    if base == "vec":
        try:
            return [float(tok) for tok in raw.split()]
        except ValueError:
            raise ConfigError(f"{where}: expected numbers, got '{raw}'") from None
    return raw


@dataclass
class RawConfig:
    sections: dict
    text: str

    def hash(self) -> str:
        return sha256(self.text.encode()).hexdigest()

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
        value = _parse_value(raw, typ, f"[{current}] {key}" if current else key)
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
        for line in lines:
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
        window = _window(cfg, section, None)
        if window is None:
            raise ConfigError(f"[{section}] sublevel needs a window")
        dim = len(window[0])
        fn = compile_expression(cfg.get(section, "fn"), tuple(f"x{i + 1}" for i in range(dim)))
        spec = SetSpec.sublevel(fn, cfg.get(section, "level", 0.0), dim, window,
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


def _given(cfg: RawConfig, section: str, **fields) -> dict:
    """The keys (key=field) that section sets; the dataclasses hold the defaults."""
    return {f: cfg.get(section, k) for k, f in fields.items() if cfg.get(section, k) is not None}


def time_grid(cfg: RawConfig, section: str, default: list) -> np.ndarray:
    """The times of [section] tgrid = 'min max count': count evenly spaced
    times from min to max, count a whole number of at least 1."""
    tg = cfg.get(section, "tgrid", default)
    if len(tg) != 3:
        raise ConfigError(f"[{section}] tgrid must be 'min max count'")
    if tg[2] < 1:
        raise ConfigError(f"[{section}] tgrid count must be at least 1, got {tg[2]:g}")
    if tg[2] != int(tg[2]):
        raise ConfigError(f"[{section}] tgrid count must be a whole number, got {tg[2]:g}")
    return np.linspace(tg[0], tg[1], int(tg[2]))


def _window(cfg: RawConfig, section: str, system: Optional[InclusionSpec]):
    """[section] window = 'lo_1 .. lo_n hi_1 .. hi_n' as (lo, hi), or None;
    refused by name unless it holds 2n numbers, n the [system] dimension
    when there is a system."""
    w = cfg.get(section, "window")
    if w is None:
        return None
    if not w or len(w) % 2 or (system is not None and len(w) != 2 * system.dim):
        n = "" if system is None else f" with n = {system.dim}"
        raise ConfigError(f"[{section}] window must be 'lo_1 .. lo_n hi_1 .. hi_n'{n}, "
                          f"got {len(w)} numbers")
    n = len(w) // 2
    return np.asarray(w[:n]), np.asarray(w[n:])


def build_scenario(cfg: RawConfig) -> Scenario:
    seed = cfg.get("", "seed")
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    out_dir = cfg.get("", "out")
    method = cfg.get("solver", "method", "rk4")
    if method != "rk4":
        raise ConfigError(f"[solver] method must be rk4, got '{method}'")
    solver = IntegratorConfig(**_given(cfg, "solver", step="step", escape="escape_radius",
                                       max_steps="max_steps"))
    system = _build_system(cfg)
    sets = cfg.section_names("set")
    for section in ["barrier-eval"] + sets:
        _window(cfg, section, system)
    cache: dict = {}
    for section in sets:
        _build_set(section.split(" ", 1)[1], cfg, cache)
    t_grid = time_grid(cfg, "sampling", [0.0, 1.0, 11])
    for section in cfg.section_names("check"):
        kind = cfg.get(section, "kind")
        if kind not in CHECK_KEYS:
            raise ConfigError(f"[{section}] needs kind" if kind is None else
                              f"[{section}] unknown check kind '{kind}' ({' | '.join(CHECK_KEYS)})")
        unread = [key for key in cfg.sections[section] if key not in ("kind",) + CHECK_KEYS[kind]]
        if unread:
            raise ConfigError(f"[{section}] key '{unread[0]}' is not read by kind '{kind}', "
                              f"which reads {', '.join(CHECK_KEYS[kind])}")
    return Scenario(
        raw=cfg, seed=seed, out_dir=out_dir, system=system,
        solver=solver,
        bundle=BundlePlan(seed=seed, **_given(cfg, "bundle", directions="directions",
                                              switches="switches")),
        samples=SamplePlan(seed=seed, window=_window(cfg, "sampling", system),
                           **_given(cfg, "sampling", boundary="boundary", interior="interior")),
        sets=cache, t_grid=t_grid,
    )
