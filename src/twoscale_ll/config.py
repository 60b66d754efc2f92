"""Plain-text run configuration: [section] key = value format with a fixed
schema and strict validation."""

from __future__ import annotations

import configparser
from math import isfinite

import numpy as np

from .experiments import AsymptoticsPlan, HysteresisPlan


class ConfigError(ValueError):
    """Validation failure; .errors lists messages naming section.key."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _parse_float(s: str) -> float:
    x = float(s)
    if not isfinite(x):
        raise ValueError(f"{s.strip()} is not a finite number")
    return x


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(_parse_float(p) for p in s.split(",") if p.strip())


def _parse_vec3(s: str) -> tuple[float, float, float]:
    v = _parse_floats(s)
    if len(v) != 3:
        raise ValueError("expected three comma-separated numbers")
    return v


def _parse_knots(s: str) -> tuple[tuple[float, float], ...]:
    """Knot list "t0:v0, t1:v1, ..."."""
    knots = []
    for part in s.split(","):
        part = part.strip()
        if not part:
            continue
        t, _, v = part.partition(":")
        knots.append((_parse_float(t), _parse_float(v)))
    if not knots:
        raise ValueError("empty knot list")
    return tuple(knots)


_PARSERS = {
    "int": int,
    "float": _parse_float,
    "str": str,
    "floats": _parse_floats,
    "vec3": _parse_vec3,
    "knots": _parse_knots,
}

# section -> key -> (type name, default). None default means "unset".
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "grid": {
        "nx": ("int", 1), "ny": ("int", 1), "nz": ("int", 1),
        "hx": ("float", 1.0), "hy": ("float", 1.0), "hz": ("float", 1.0),
    },
    "domain": {
        "shape": ("str", "box"),            # box | ellipsoid
        "a": ("float", None), "b": ("float", None), "c": ("float", None),
    },
    "material": {
        "alpha": ("float", 1.0),
        "epsilon": ("float", None),
        "epsilon_ladder": ("floats", None),
    },
    "field": {
        "knots": ("knots", ((0.0, 1.0), (1.0e9, 1.0))),
        "direction": ("vec3", (0.0, 0.0, 1.0)),
        "rotate_to": ("vec3", None),
        "omega": ("float", 0.0),
        "envelope": ("str", "constant"),    # constant | bump
        "bump_radius": ("float", None),
        "bump_center": ("vec3", None),
    },
    "solver": {
        "dt": ("float", None),
        "t_final": ("float", 1.0),
        "sample_every": ("int", 1),
    },
    "experiment": {
        "perturbation": ("float", AsymptoticsPlan.perturbation),
        "n_samples": ("int", 200),
        "s": ("float", 0.01),
        "lambda_grid": ("floats", (0.0, 5.0, 10.0, 20.0, 40.0)),
        "lam_max": ("float", 0.6),
        "period": ("float", None),
        "tensor_resolution": ("int", HysteresisPlan.tensor_resolution),
        "relax_tol": ("float", AsymptoticsPlan.relax_tol),
        "relax_max_t": ("float", AsymptoticsPlan.relax_max_T),
    },
}


def parse_config(text: str) -> dict[str, dict[str, object]]:
    """Parse and validate into {section: {key: value}} with every schema key
    set; raises ConfigError listing every problem found."""
    cp = configparser.ConfigParser(strict=True, interpolation=None)
    errors: list[str] = []
    try:
        cp.read_string(text)
    except configparser.DuplicateOptionError as e:
        raise ConfigError([f"duplicate key {e.section}.{e.option}"]) from None
    except configparser.DuplicateSectionError as e:
        raise ConfigError([f"duplicate section {e.section}"]) from None
    except configparser.Error as e:
        raise ConfigError([f"syntax error: {e}"]) from None

    out: dict[str, dict[str, object]] = {
        sec: {k: dflt for k, (_, dflt) in keys.items()}
        for sec, keys in SCHEMA.items()}

    for sec in cp.sections():
        if sec not in SCHEMA:
            errors.append(f"unknown section {sec}")
            continue
        for key, raw in cp.items(sec):
            if key not in SCHEMA[sec]:
                errors.append(f"unknown key {sec}.{key}")
                continue
            tname, _ = SCHEMA[sec][key]
            try:
                out[sec][key] = _PARSERS[tname](raw)
            except ValueError as e:
                errors.append(f"invalid value for {sec}.{key}: {e}")

    if errors:
        raise ConfigError(errors)
    _validate(out, errors)
    if errors:
        raise ConfigError(errors)
    return out


def _validate(v: dict[str, dict[str, object]], errors: list[str]) -> None:
    for sec, key in (("material", "epsilon"), ("material", "alpha"),
                     ("experiment", "relax_tol")):
        if v[sec][key] is not None and v[sec][key] <= 0:
            errors.append(f"{sec}.{key} must be > 0")
    ladder = v["material"]["epsilon_ladder"]
    if ladder is not None and (any(e <= 0 for e in ladder)
                               or any(np.diff(ladder) >= 0)):
        errors.append("material.epsilon_ladder must be positive, decreasing")
    for key in ("nx", "ny", "nz"):
        if v["grid"][key] < 1:
            errors.append(f"grid.{key} must be >= 1")
    for key in ("hx", "hy", "hz"):
        if v["grid"][key] <= 0:
            errors.append(f"grid.{key} must be > 0")
    knots = v["field"]["knots"]
    ts = [t for t, _ in knots]
    if len(ts) > 1 and any(np.diff(ts) <= 0):
        errors.append("field.knots times must be strictly increasing")
    if v["domain"]["shape"] not in ("box", "ellipsoid"):
        errors.append("domain.shape must be box or ellipsoid")
    if v["domain"]["shape"] == "ellipsoid":
        abc = [v["domain"][k] for k in ("a", "b", "c")]
        if any(x is None for x in abc):
            errors.append("domain.a, domain.b, domain.c required for "
                          "shape = ellipsoid")
        elif not (abc[0] >= abc[1] >= abc[2] > 0):
            errors.append("domain semi-axes must satisfy a >= b >= c > 0")
    if v["experiment"]["tensor_resolution"] < 16:
        errors.append("experiment.tensor_resolution must be >= 16")
    if v["solver"]["dt"] is not None and v["solver"]["dt"] <= 0:
        errors.append("solver.dt must be > 0")
    if v["solver"]["t_final"] < 0:
        errors.append("solver.t_final must be >= 0")
    if v["field"]["envelope"] not in ("constant", "bump"):
        errors.append("field.envelope must be constant or bump")
    if v["field"]["envelope"] == "bump" and v["field"]["bump_radius"] is None:
        errors.append("field.bump_radius required for envelope = bump")
