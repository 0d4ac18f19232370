"""Reference materials and ready-made scenes for experiments and tests.

The background is a Pecos-sandstone-like dimensionless parameter set; its
permeability is fixed so that the three complex modal speeds at
PECOS_OMEGA come out at PECOS_SPEEDS, the regime the imaging experiments
target (shear wavelength close to one).
"""

from __future__ import annotations

import dataclasses
import math

from .cli import parse_scenario
from .material import MaterialParams
from .scene import ContactParams, Scene

__all__ = [
    "pecos_sandstone",
    "PECOS_OMEGA",
    "PECOS_SPEEDS",
    "desk_scale_scene",
    "desk_scale_scenario",
]

PECOS_OMEGA = 3.91
# the modal speeds c_s, c_p1 and c_p2 of pecos_sandstone() at PECOS_OMEGA;
# the check suite's dispersion entry compares a matching scenario with them
PECOS_SPEEDS = {
    "c_s": 0.66 + 8.8e-6j,
    "c_p1": 1.26 + 3.0e-7j,
    "c_p2": 5.8e-3 + 5.8e-3j,
}


def pecos_sandstone() -> MaterialParams:
    """Dimensionless drained constants of the reference sandstone background."""
    return MaterialParams(
        lam=0.47,
        mu=1.0,
        M=1.66,
        rho=2.27,
        rho_f=1.0,
        rho_a=0.117,
        kappa=2.0 * math.pi * 2.45e-6,
        phi=0.195,
        alpha=0.83,
    )


def default_contact() -> ContactParams:
    """Admissible finite-permeability contact used by the demo scenes.

    The small stiffness stands in for traction-free (zero-stiffness)
    hydraulic fractures, which the interface closures cannot represent
    exactly; soft interfaces also maximize the scattered signature.
    """
    return ContactParams(
        k_t=0.02, k_n=0.02, kappa_f=1e-3, alpha_f=0.85, beta_f=0.3, Pi=1.0
    )


def desk_scale_scene(channels="in-plane", resolution=(40, 40), n_dir: int = 8) -> Scene:
    """The scene of desk_scale_scenario: two planar fractures probed from
    an L-shaped well.

    Fracture lengths are 2-3 shear wavelengths; the well runs along two
    sides of the sampling region (about 40 points), mirroring a
    limited-aperture treatment-well arrangement.
    """
    return parse_scenario(
        desk_scale_scenario(channels=channels, resolution=resolution, n_dir=n_dir)
    ).scene


def desk_scale_scenario(
    channels="in-plane",
    method: str = "lsm",
    mode: str = "local",
    target_delta: float | None = None,
    seed: int = 20240613,
    resolution=(40, 40),
    n_dir: int = 8,
) -> dict:
    """Scenario document for the desk-scale imaging experiment."""
    noise: dict = {"seed": seed}
    if target_delta is None:
        noise["epsilon"] = 0.0
    else:
        noise["target_delta"] = target_delta
    return {
        "material": {"dimensionless": dataclasses.asdict(pecos_sandstone())},
        "frequency": {"omega": PECOS_OMEGA},
        "scene": {
            "wells": [
                {"points": [[-3.2, -3.0, 0.0], [-3.2, 3.0, 0.0]], "samples_per_segment": 20},
                {"points": [[-2.9, -3.2, 0.0], [3.0, -3.2, 0.0]], "samples_per_segment": 20},
            ],
            "fractures": [
                {
                    "center": [-0.9, 0.55],
                    "length": 2.5,
                    "angle_rad": 0.42 * math.pi,
                    "width": 2.0,
                    "cells": [10, 2],
                },
                {
                    "center": [1.1, -0.35],
                    "length": 2.0,
                    "angle_rad": 0.08 * math.pi,
                    "width": 2.0,
                    "cells": [10, 2],
                },
            ],
            "contact": default_contact().to_dict(),
            "sampling": {
                "region": [-2.5, 2.5, -2.5, 2.5],
                "resolution": list(resolution),
                "n_dir": n_dir,
                "iotas": [0, 1],
            },
            "channels": channels if isinstance(channels, str) else list(channels),
        },
        "forward": {"mode": mode},
        "noise": noise,
        "inversion": {"method": method, "alpha_policy": "per-candidate"},
    }
