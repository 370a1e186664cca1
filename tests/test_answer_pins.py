"""Pinned answers and refine work of the alternating optimizer.

Forty seeded instances in seven settings. Each pin holds the final secrecy
rate (repr), the number of AO rounds, the final on/off pattern and the refine
evaluations: calls of the value function that `ao._joint_refine` hands to
the ascent engine, one per trial point.
A change that moves any answer by more than 1e-9 bits, or makes the refine
spend more than 1.25x its pinned evaluations (a weaker search direction,
say), fails here. So does a refine that ends short of a stationary point:
at a tangent gradient (half the angle gradient) above STATIONARY times the
Wirtinger gradient, or at the engine's step cap.

Rewrite the pins only for an accepted change of answers, and report the
change of every rate alongside it:

    PYTHONPATH=src python tests/test_answer_pins.py
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from irs_secrecy import ao, harness
from irs_secrecy.channel_gen import gen_channels
from irs_secrecy.model import dbm_to_watt
from irs_secrecy.phases import MAX_ITER
from irs_secrecy.reference.phases import phase_objective_gradient

PINS = Path(__file__).resolve().parent / "data" / "answer_pins.json"
SEED = 4242
RATE_TOL = 1e-9
WORK_SLACK = 1.25
STATIONARY = 1e-3


def settings():
    """Setting name -> (config, trials)."""
    base, _ = harness.load_config(None)

    def at(cfg, power_dbm):
        return replace(cfg, power_budget=dbm_to_watt(power_dbm))

    def in_a_row(n_irs, n_refl):
        # n_irs surfaces evenly spaced at 20 m height from y = 20 to 60 m
        pos = np.column_stack([np.zeros(n_irs), np.linspace(20.0, 60.0, n_irs),
                               np.full(n_irs, 20.0)])
        return replace(base, n_irs=n_irs, n_refl=n_refl, irs_positions=pos)

    return {
        "reference_0dBm": (at(base, 0.0), 6),
        "reference_20dBm": (at(base, 20.0), 6),
        "reference_40dBm": (at(base, 40.0), 6),
        "many_surfaces": (in_a_row(16, 4), 6),
        "n_refl_4": (replace(base, n_refl=4), 5),
        "n_refl_64": (replace(base, n_refl=64), 5),
        # 5 m below surface 5 of 8: this switches surfaces off
        "eve_below_surface": (replace(in_a_row(8, 4),
                                      eve_position=np.array([0.0, 20.0 + 40.0 * 5 / 7, 15.0])), 6),
    }


def solve_counted(ch, cfg):
    """ao_solve's answer and the refine's evaluations, and each refine's
    (||r|| / (2 ||g||), accepted steps) at the point it returned, for the
    angle gradient r and the Wirtinger gradient g there."""
    ascent, refine, evals, ends = ao._riemannian_ascent, ao._joint_refine, 0, []

    def counted_ascent(theta, evaluate, *args, **kwargs):
        def counted_evaluate(trial):
            nonlocal evals
            evals += 1
            return evaluate(trial)
        return ascent(theta, counted_evaluate, *args, **kwargs)

    def recorded_refine(ch, cfg, sol):
        phases, w, trace = refine(ch, cfg, sol)
        g = phase_objective_gradient(
            ch, replace(sol, phases=phases, beamformer=w), cfg)
        r = 2.0 * np.imag(g * np.conj(phases))
        ends.append((np.linalg.norm(r) / (2.0 * np.linalg.norm(g)), len(trace) - 1))
        return phases, w, trace

    ao._riemannian_ascent, ao._joint_refine = counted_ascent, recorded_refine
    try:
        sol, trace = ao.ao_solve(ch, cfg)
    finally:
        ao._riemannian_ascent, ao._joint_refine = ascent, refine
    return {"rate": repr(float(trace[-1])), "rounds": len(trace) - 1,
            "onoff": sol.onoff.tolist(), "refine_evals": evals}, ends


def solve_all() -> dict:
    """Instance key -> solve_counted's (pin, refine ends)."""
    answers = {}
    for name, (cfg, trials) in settings().items():
        for t in range(trials):
            ch = gen_channels(cfg, harness._stream(SEED, t, 0))
            answers[f"{name}/{t}"] = solve_counted(ch, cfg)
    return answers


@pytest.fixture(scope="module")
def solved():
    return solve_all()


def test_answers_match_pins(solved):
    pins = json.loads(PINS.read_text())
    assert sorted(solved) == sorted(pins)
    moved = []
    for key, (got, _) in solved.items():
        pin = pins[key]
        if (abs(float(got["rate"]) - float(pin["rate"])) > RATE_TOL
                or got["rounds"] != pin["rounds"] or got["onoff"] != pin["onoff"]
                or got["refine_evals"] > WORK_SLACK * pin["refine_evals"]):
            moved.append(f"{key}: {got} != pin {pin}")
    assert not moved, "\n".join(moved)


def test_every_refine_ends_stationary(solved):
    short = [f"{key} refine {k}: ||r||/(2||g||) = {ratio:.3g} after {steps} steps"
             for key, (_, ends) in solved.items()
             for k, (ratio, steps) in enumerate(ends)
             if not (ratio <= STATIONARY and steps < MAX_ITER)]
    assert not short, "\n".join(short)


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    lines = [f" {json.dumps(key)}: {json.dumps(pin)}"
             for key, (pin, _) in solve_all().items()]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {PINS}")
