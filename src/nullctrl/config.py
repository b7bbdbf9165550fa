"""Configuration documents: JSON in, validated experiment setup out.

A configuration fixes the coupled system, the spectral model, one
observation subdomain per control channel, and optional experiment
defaults picked up by the command line front end.  All validation
runs eagerly at parse time, and every diagnostic names the offending
field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import CoercivityError, ConfigError, ValidationError
from .spectral import (SpectralModel, SubdomainMask, dirichlet_interval_model,
                       dirichlet_square_model, full_domain_mask,
                       mask_from_boxes, torus_stokes_model)
from .system import CoupledSystem, build_system

_MODEL_BUILDERS = {
    "dirichlet_interval": dirichlet_interval_model,
    "dirichlet_square": dirichlet_square_model,
    "torus_stokes": torus_stokes_model,
}

_EXPERIMENT_KEYS = {
    "gamma": float,
    "tau": float,
    "trials": int,
    "gammas": list,
    "T": float,
    "T_list": list,
    "M": float,
    "adapt": bool,
    "gamma_sim": float,
    "quad_nodes": int,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment setup."""

    system: CoupledSystem
    model: SpectralModel
    masks: tuple[SubdomainMask, ...]
    experiment: dict
    seed: int
    output_dir: str


def _expect(doc: dict, key: str, kind, path: str, required: bool = True, default=None):
    if key not in doc:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    val = doc[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    # JSON true/false parse to bool, which Python counts as an int
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise ConfigError(
            f"{path}.{key}: expected {kind.__name__}, "
            f"got {type(val).__name__}"
        )
    return val


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON configuration document.

    Raises
    ------
    ConfigError
        On schema violations, with the offending field path in the
        message.
    CoercivityError
        If the system's diffusion matrix fails positivity (surfaced
        from the system validator, not wrapped).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"$: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError("$: top level must be a JSON object")
    known = {"system", "model", "omegas", "experiment", "seed", "output_dir"}
    for key in doc:
        if key not in known:
            raise ConfigError(f"$.{key}: unknown field")

    sys_doc = _expect(doc, "system", dict, "$")
    for key in sys_doc:
        if key not in {"D", "Q", "R"}:
            raise ConfigError(f"$.system.{key}: unknown field")
    D = _expect(sys_doc, "D", list, "$.system")
    Q = _expect(sys_doc, "Q", list, "$.system")
    R = _expect(sys_doc, "R", list, "$.system")
    try:
        system = build_system(D, Q, R)
    except CoercivityError:
        raise
    except ValidationError as exc:
        raise ConfigError(f"$.system: {exc}") from exc

    model_doc = _expect(doc, "model", dict, "$")
    kind = _expect(model_doc, "kind", str, "$.model")
    if kind not in _MODEL_BUILDERS:
        raise ConfigError(
            f"$.model.kind: unknown kind {kind!r}; expected one of "
            f"{sorted(_MODEL_BUILDERS)}"
        )
    num_modes = _expect(model_doc, "num_modes", int, "$.model")
    size_key = "period" if kind == "torus_stokes" else "length"
    for key in model_doc:
        if key not in {"kind", "num_modes", size_key}:
            raise ConfigError(f"$.model.{key}: unknown field")
    size = _expect(model_doc, size_key, float, "$.model", required=False)
    try:
        if size is None:
            model = _MODEL_BUILDERS[kind](num_modes)
        else:
            model = _MODEL_BUILDERS[kind](num_modes, size)
    except ValidationError as exc:
        raise ConfigError(f"$.model: {exc}") from exc

    omegas = _expect(doc, "omegas", list, "$")
    if len(omegas) != system.m:
        raise ConfigError(
            f"$.omegas: expected {system.m} subdomains (one per control "
            f"channel), got {len(omegas)}"
        )
    masks = []
    for i, entry in enumerate(omegas):
        if entry == "full":
            masks.append(full_domain_mask(model, i))
            continue
        if not isinstance(entry, list):
            raise ConfigError(
                f"$.omegas[{i}]: expected a list of boxes or the string "
                f"'full', got {type(entry).__name__}"
            )
        try:
            masks.append(mask_from_boxes(model, i, entry))
        except ValidationError as exc:
            raise ConfigError(f"$.omegas[{i}]: {exc}") from exc

    experiment = _expect(doc, "experiment", dict, "$", required=False, default={})
    for key in experiment:
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"$.experiment.{key}: unknown field")
        experiment[key] = _expect(experiment, key, _EXPERIMENT_KEYS[key],
                                  "$.experiment")

    seed = _expect(doc, "seed", int, "$", required=False, default=0)
    if seed < 0:
        raise ConfigError(f"$.seed: expected a nonnegative integer, got {seed!r}")
    output_dir = _expect(doc, "output_dir", str, "$", required=False, default=".")

    return ExperimentConfig(
        system=system,
        model=model,
        masks=tuple(masks),
        experiment=dict(experiment),
        seed=int(seed),
        output_dir=output_dir,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a configuration file."""
    return parse_config(Path(path).read_text(encoding="utf-8"))
