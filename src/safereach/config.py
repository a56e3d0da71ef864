"""Strict scenario configuration: line-oriented sections of typed key=value.

Unknown sections and unknown keys are hard errors; silent config drift is the
main reproducibility killer.  Sections:

    top level       seed (required, a non-negative integer), out (optional)
    [system]        kind (SYSTEMS), inclusion (INCLUSIONS) plus the keys they read
    [solver]        method (rk4, the only integrator), step, escape, max_steps
    [bundle]        directions, switches (per unit time, on an absolute grid)
    [sampling]      window, boundary, interior, tgrid
    [set NAME]      kind (SETS) plus the keys that kind reads
    [barrier]       kind (BARRIERS) plus the keys that kind reads
    [simulate]      X_o, T (COMMANDS, as are the next three)
    [reach]         x0, t, stride
    [barrier-eval]  window, nx, tgrid
    [smooth]        h, region, k_max, table_res, grid_n, out_n
    [check NAME]    kind (CHECKS) plus the keys that kind reads

build_scenario first holds every key typed point or window to n or 2n
numbers, n the [system] dimension or, with none, the one the first such key
gives (_check_states), then resolves each section
from [set NAME] on that is given (resolve), before any command writes output:
defaults filled in, set names as their SetSpec, g as a RelaxFn.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import Error
from .dynamics import InclusionSpec, builtin_field, field_from_expressions
from .expr import ExpressionError, RelaxFn, compile_expression
from .geometry import GeometryError, SamplePlan, SetSpec
from .solver import BundlePlan, IntegratorConfig

# CPython's own SHA-256: hashlib would load OpenSSL for one small hash
try:
    from _sha2 import sha256            # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256


class ConfigError(Error, ValueError):
    pass


_SCHEMAS = {
    "": {"seed": "int", "out": "str"},
    "system": {"kind": "str", "name": "str", "rhs": "str",
               "member": "str+", "inclusion": "str", "epsilon": "float"},
    "solver": {"method": "str", "step": "float", "escape": "float", "max_steps": "int"},
    "bundle": {"directions": "count", "switches": "size"},
    "sampling": {"window": "window", "boundary": "size", "interior": "size",
                 "tgrid": "tvec"},
    "set": {"kind": "str", "center": "point", "radius": "float", "lo": "point",
            "hi": "point", "normal": "point", "offset": "float", "fn": "str",
            "level": "float", "window": "window", "grid": "count", "point": "point+",
            "of": "str"},
    "barrier": {"kind": "str", "X_o": "str", "expression": "str", "k_max": "int",
                "s_lo": "int", "s_hi": "int"},
    "simulate": {"X_o": "str", "T": "horizon"},
    "reach": {"x0": "point", "t": "time", "stride": "count"},
    "barrier-eval": {"window": "window", "nx": "count", "tgrid": "tvec"},
    "smooth": {"h": "str", "region": "str", "k_max": "int", "table_res": "count",
               "grid_n": "count", "out_n": "count"},
    "check": {"kind": "str", "X_o": "str", "X_u": "str", "X_s": "str",
              "K": "str", "T": "horizon", "tol": "float", "mode": "str",
              "region": "str", "width": "float", "g": "str", "count": "count",
              "n_samples": "count", "lam_box": "str",
              "pairs": "count", "max_sep": "float", "stride": "count"},
}


NEEDED, SET = object(), object()    # a required key; a required set name

# what each kind of a [set NAME], [barrier], [check NAME] and [system]
# section, and each command section, reads: key -> default, NEEDED, SET
# (resolved to its SetSpec) or a tuple of the values the key may take, its
# default first; a choice KIND:ARG stands for KIND: with any ARG.  resolve()
# refuses any other key
SETS = {"ball": {"center": NEEDED, "radius": NEEDED}, "box": {"lo": NEEDED, "hi": NEEDED},
        "halfspace": {"normal": NEEDED, "offset": NEEDED}, "points": {"point": NEEDED},
        "sublevel": {"fn": NEEDED, "level": 0.0, "window": NEEDED, "grid": 33},
        "complement": {"of": NEEDED}, "union": {"of": NEEDED}, "intersection": {"of": NEEDED}}
BARRIERS = {"counterexample": {}, "user": {"expression": NEEDED}, "marginal": {"X_o": SET},
            "converse": {"X_o": SET, "s_lo": -8, "s_hi": 0, "k_max": 6}}
CHECKS = {"simulate": {"X_o": SET, "X_u": SET, "T": 1.0, "tol": 1e-9},
          "sign": {"X_o": SET, "X_u": SET, "n_samples": 64},
          # tol None: 10 [solver] accuracies, filled in by build_scenario
          "monotonicity": {"X_o": SET, "n_samples": 8, "T": 1.0, "tol": None, "stride": 16},
          "infinitesimal": {"region": ("everywhere", "margin_band", "boundary"),
                            "width": None, "mode": ("smooth", "clarke", "proximal"),
                            "g": ("zero", "linear:L", "classK:expr", "minimal:expr"),
                            "count": 200, "tol": 1e-7},
          "nagumo": {"K": SET, "mode": ("boundary", "exterior"), "n_samples": 64, "tol": None},
          "prop1": {"X_o": SET, "X_s": SET, "g": ("zero", "linear:L", "minimal:expr"),
                    "mode": ("conditional", "strict"), "n_samples": 48, "width": 1e-3},
          "filippov": {"lam_box": SET, "T": 1.0, "pairs": 10, "max_sep": 0.5, "tol": 1e-6}}
COMMANDS = {"simulate": {"X_o": SET, "T": 1.0},
            "reach": {"x0": NEEDED, "t": NEEDED, "stride": 1},
            "barrier-eval": {"window": NEEDED, "nx": 21, "tgrid": [0.0, 1.0, 5]},
            "smooth": {"h": NEEDED, "region": SET, "k_max": 3, "table_res": 256,
                       "grid_n": 41, "out_n": 9}}
SYSTEMS = {"builtin": {"name": NEEDED}, "expression": {"rhs": NEEDED}}
INCLUSIONS = {"singleton": {}, "ball": {"epsilon": 0.0}, "hull": {"member": []}}


def _parse_value(raw: str, typ: str, where: str):
    """A value of type typ, refused by its key where (say "[simulate] T") if
    it does not parse; "time" and "tvec" are a float and a vec that must also
    be finite, refused before a pipeline turns them into NaN steps, and
    "horizon" a time that must also be positive; "count" is an int of at
    least 1, refused before a sampler or a stride meets 0 or a negative
    number, and "size" an int of at least 0, for the keys where 0 means
    none; "point" and "window" are vecs of n and 2n numbers, which
    _check_states holds to the [system] dimension."""
    raw = raw.strip()
    base = typ.rstrip("+")
    if base in ("time", "horizon", "tvec"):
        value = _parse_value(raw, "vec" if base == "tvec" else "float", where)
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"{where} must be finite, got {value}")
        if base == "horizon" and value <= 0:
            raise ConfigError(f"{where} must be positive, got {value:g}")
        return value
    if base in ("int", "count", "size"):
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected integer, got '{raw}'") from None
        least = {"count": 1, "size": 0}.get(base)
        if least is not None and value < least:
            raise ConfigError(f"{where} must be at least {least}, got {value}")
        return value
    if base == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected number, got '{raw}'") from None
    if base in ("vec", "point", "window"):
        try:
            return [float(tok) for tok in raw.split()]
        except ValueError:
            raise ConfigError(f"{where}: expected numbers, got '{raw}'") from None
    return raw


class RawConfig(NamedTuple):
    sections: dict
    text: str

    def hash(self) -> str:
        return sha256(self.text.encode()).hexdigest()

    def get(self, section: str, key: str, default=None):
        vals = self.sections.get(section, {}).get(key)
        if vals is None:
            return default
        return vals[-1]

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

class Scenario(NamedTuple):
    seed: int
    out_dir: Optional[str]
    system: Optional[InclusionSpec]
    solver: IntegratorConfig
    bundle: BundlePlan
    samples: SamplePlan
    t_grid: np.ndarray
    dim: Optional[int]          # the state dimension, None when nothing gives one
    barrier: Optional[tuple]    # (kind, args) of [barrier], or None
    commands: dict              # section -> args of each command section given
    checks: dict                # NAME -> (kind, args) of [check NAME], in config order


def resolve(cfg: RawConfig, section: str, kinds: dict, sets=None, reads=None) -> tuple:
    """(*kinds, args) of [section]: the kind each key of kinds (key -> (table,
    default kind)) picks, then every key those kinds read, and every key of
    reads (the table of a section without a kind), given or defaulted.
    Refuses, by section and key, a missing or unknown kind, a key no picked
    kind reads, a missing required key, a bad choice and an unknown set."""
    given, picked, reads = cfg.sections[section], {}, dict(reads or {})
    form = lambda v: v.partition(":")[0] + ":" if ":" in v else v    # KIND:ARG as KIND:
    for key, (table, default) in kinds.items():
        kind = cfg.get(section, key, default)
        if kind not in table:
            raise ConfigError(f"[{section}] needs {key}" if kind is None else
                              f"[{section}] unknown {section.split()[0]} {key} '{kind}' "
                              f"({' | '.join(table)})")
        picked[key] = kind
        reads.update(table[kind])
    by = " and ".join(f"{key} '{kind}'" for key, kind in picked.items())
    unread = [key for key in given if key not in reads and key not in kinds]
    if unread:
        raise ConfigError(f"[{section}] key '{unread[0]}' is not read by {by}, "
                          f"which reads {', '.join(reads) or 'no key'}")
    args = {}
    for key, default in reads.items():
        if key not in given:
            if default is NEEDED or default is SET:
                raise ConfigError(f"[{section}] {by + ' ' if by else ''}needs {key}")
            args[key] = default[0] if isinstance(default, tuple) else default
            continue
        value = given[key] if _SCHEMAS[section.split()[0]][key].endswith("+") else given[key][0]
        if isinstance(default, tuple) and form(value) not in map(form, default):
            raise ConfigError(f"[{section}] {key} must be {' | '.join(default)}, got '{value}'")
        if default is SET:
            if value not in sets:
                raise ConfigError(f"[{section}] {key}: unknown set '{value}' "
                                  f"(defined: {sorted(sets)})")
            value = sets[value]
        args[key] = value
    return (*picked.values(), args)


def _build_set(name: str, cfg: RawConfig, cache: dict, stack: tuple = ()) -> SetSpec:
    if name in cache:
        return cache[name]
    if name in stack:
        raise ConfigError(f"set '{name}' references itself (cycle)")
    section = f"set {name}"
    if section not in cfg.sections:
        raise ConfigError(f"[set {stack[-1]}] of: unknown set '{name}'")
    kind, a = resolve(cfg, section, {"kind": (SETS, None)})
    try:
        if kind == "ball":
            spec = SetSpec.ball(a["center"], a["radius"], name=name)
        elif kind == "box":
            spec = SetSpec.box(a["lo"], a["hi"], name=name)
        elif kind == "halfspace":
            spec = SetSpec.halfspace(a["normal"], a["offset"], name=name)
        elif kind == "points":
            spec = SetSpec.points(a["point"], name=name)
        elif kind == "sublevel":
            dim = len(a["window"]) // 2
            fn = compile_expression(a["fn"], tuple(f"x{i + 1}" for i in range(dim)))
            spec = SetSpec.sublevel(fn, a["level"], dim, a["window"], grid=a["grid"], name=name)
        else:
            members = [_build_set(r, cfg, cache, stack + (name,)) for r in a["of"].split()]
            if kind == "complement":
                if len(members) != 1:
                    raise ConfigError(f"[{section}] complement takes exactly one set")
                spec = SetSpec.complement(members[0], name=name)
            elif kind == "union":
                spec = SetSpec.union(members, name=name)
            else:
                spec = SetSpec.intersection(members, name=name)
    except (GeometryError, ExpressionError) as exc:
        raise ConfigError(f"[{section}] {exc}") from None
    cache[name] = spec
    return spec


def _build_system(cfg: RawConfig) -> Optional[InclusionSpec]:
    if "system" not in cfg.sections:
        return None
    kind, inclusion, a = resolve(cfg, "system", {"kind": (SYSTEMS, "builtin"),
                                                 "inclusion": (INCLUSIONS, "singleton")})
    if kind == "builtin":
        f = builtin_field(a["name"])
    else:
        f = field_from_expressions([c.strip() for c in a["rhs"].split(";")], name="user")
    if inclusion == "singleton":
        return InclusionSpec.singleton(f)
    if inclusion == "ball":
        return InclusionSpec.ball_perturbed(f, a["epsilon"])
    fields = [f] + [field_from_expressions([c.strip() for c in m.split(";")], name=f"member{i}")
                    for i, m in enumerate(a["member"])]
    return InclusionSpec.hull(fields)


def _given(cfg: RawConfig, section: str, **fields) -> dict:
    """The keys (key=field) that section sets; the records hold the defaults."""
    return {f: cfg.get(section, k) for k, f in fields.items() if cfg.get(section, k) is not None}


def _time_grid(section: str, tg: list, barrier: Optional[tuple]) -> np.ndarray:
    """The times of [section] tgrid = 'min max count': count evenly spaced
    times from min to max, count a whole number of at least 1, and none
    below 0 when barrier, the resolved [barrier], is a marginal or converse
    one, defined for t >= 0 only."""
    if len(tg) != 3:
        raise ConfigError(f"[{section}] tgrid must be 'min max count'")
    if tg[2] < 1:
        raise ConfigError(f"[{section}] tgrid count must be at least 1, got {tg[2]:g}")
    if tg[2] != int(tg[2]):
        raise ConfigError(f"[{section}] tgrid count must be a whole number, got {tg[2]:g}")
    times = np.linspace(tg[0], tg[1], int(tg[2]))
    if barrier is not None and barrier[0] in ("marginal", "converse") and times.min() < 0:
        raise ConfigError(f"[{section}] tgrid reaches t = {times.min():g}, but a {barrier[0]} "
                          f"barrier is defined for t >= 0 only")
    return times


def _window(w: Optional[list]):
    """A window 'lo_1 .. lo_n hi_1 .. hi_n' as (lo, hi), or None."""
    if w is None:
        return None
    n = len(w) // 2
    return np.asarray(w[:n]), np.asarray(w[n:])


def _check_states(cfg: RawConfig, system: Optional[InclusionSpec]) -> Optional[int]:
    """The state dimension n of cfg: the [system]'s or, with none, the one
    its first key typed point or window gives, None if no key gives one.
    Refuses, by section and key, a point that is not n numbers or a window
    that is not 2n."""
    n, source = (system.dim if system is not None else None), ""
    for section, keys in cfg.sections.items():
        schema = _SCHEMAS[section.split(" ", 1)[0]]
        for key, values in keys.items():
            per = {"point": 1, "window": 2}.get(schema[key].rstrip("+"))
            for v in values if per else ():
                whole = v and not len(v) % per
                if whole and n is None:
                    n, source = len(v) // per, f", as [{section}] {key} gives"
                if not whole or len(v) != per * n:
                    form = "x_1 .. x_n" if per == 1 else "lo_1 .. lo_n hi_1 .. hi_n"
                    given = "" if n is None else f" with n = {n}{source}"
                    raise ConfigError(f"[{section}] {key} must be '{form}'{given}, "
                                      f"got {len(v)} number{'s' * (len(v) != 1)}")
    return n


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
    dim = _check_states(cfg, system)
    cache: dict = {}
    for section in cfg.section_names("set"):
        _build_set(section.split(" ", 1)[1], cfg, cache)
    samples = SamplePlan(seed=seed, window=_window(cfg.get("sampling", "window")),
                         **_given(cfg, "sampling", boundary="boundary", interior="interior"))
    barrier = None
    if "barrier" in cfg.sections:
        barrier = kind, a = resolve(cfg, "barrier", {"kind": (BARRIERS, None)}, cache)
        if "X_o" in a and system is None:
            raise ConfigError(f"[barrier] {kind} needs a [system]")
        if kind == "counterexample" and dim not in (None, 2):
            raise ConfigError(f"[barrier] counterexample is the planar system's barrier: "
                              f"it needs n = 2, got n = {dim}")
        if kind == "converse" and system.kind != "singleton":
            raise ConfigError("[barrier] converse needs a single-valued system")
        if kind == "converse" and a["s_lo"] > a["s_hi"]:
            raise ConfigError(f"[barrier] s_lo must be at most s_hi, got {a['s_lo']} > {a['s_hi']}")
        if "X_o" in a and a["X_o"].kind == "complement":
            raise ConfigError(f"[barrier] X_o must be a closed set, not the complement "
                              f"'{a['X_o'].name}'")
    t_grid = _time_grid("sampling", cfg.get("sampling", "tgrid", [0.0, 1.0, 11]), barrier)
    commands = {section: resolve(cfg, section, {}, cache, table)[0]
                for section, table in COMMANDS.items() if section in cfg.sections}
    if "barrier-eval" in commands:
        a = commands["barrier-eval"]
        a["window"] = _window(a["window"])
        a["tgrid"] = _time_grid("barrier-eval", a["tgrid"], barrier)
    checks = {}
    for section in cfg.section_names("check"):
        kind, a = resolve(cfg, section, {"kind": (CHECKS, None)}, cache)
        if "g" in a:
            try:
                a["g"] = RelaxFn.parse(a["g"])
            except ValueError as exc:
                raise ConfigError(f"[{section}] g: {exc}") from None
        if kind == "monotonicity" and a["tol"] is None:
            a["tol"] = 10 * solver.accuracy
        if kind != "sign" and system is None:
            raise ConfigError(f"[{section}] kind '{kind}' needs a [system]")
        if kind == "filippov" and system.dim > 4:
            raise ConfigError(f"[{section}] kind 'filippov' estimates lambda over 81^n grid "
                              f"pairs: it needs n <= 4, got n = {system.dim}")
        if kind == "infinitesimal" and samples.window is None:
            raise ConfigError(f"[{section}] kind 'infinitesimal' needs a [sampling] window")
        checks[section.split(" ", 1)[1]] = (kind, a)
    return Scenario(
        seed=seed, out_dir=out_dir, system=system,
        solver=solver,
        bundle=BundlePlan(seed=seed, **_given(cfg, "bundle", directions="directions",
                                              switches="switches")),
        samples=samples, t_grid=t_grid, dim=dim, barrier=barrier, commands=commands,
        checks=checks,
    )
