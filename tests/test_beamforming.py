import json
import math
from pathlib import Path

import numpy as np
import pytest

from irs_secrecy.beamforming import (LOG2E, _pencil_rate, gevd_oracle, sca_solve,
                                     sca_subproblem)
from conftest import desk_config, pair_gap

# sca_solve's answers on SCA_PIN_SEED's pencil_instances, 10 per class: rate
# and converged flag. Rewrite them only for an accepted change of answers,
# and report the change of every rate alongside it:
#
#     PYTHONPATH=src python tests/test_beamforming.py
SCA_PINS = Path(__file__).resolve().parent / "data" / "sca_pins.json"
SCA_PIN_SEED = 2010


def random_pair(rng, n_tx, eve_scale=1.0):
    a = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    b = eve_scale * (rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx))
    return a, b


def scipy_pencil_reference(a, b, cfg):
    """The pencil solved by a dense generalized eigensolver: Gram-Schmidt
    basis of span{a, b} (b dropped when within 1e-10 of parallel to a),
    scipy.linalg.eigh on the reduced (I + (P/s2) at at^H, I + (P/s2e) bt bt^H).
    Returns (w, rate, eigenvalues); w is zero when the top eigenvalue is <= 1."""
    linalg = pytest.importorskip("scipy.linalg")
    cols = []
    for v in (a, b):
        nv = np.linalg.norm(v)
        if nv <= 0.0:
            continue
        r = v.copy()
        for q in cols:
            r = r - q * np.vdot(q, r)
        if np.linalg.norm(r) > 1e-10 * nv:
            cols.append(r / np.linalg.norm(r))
    if not cols:
        return np.zeros(len(a), dtype=complex), 0.0, np.zeros(0)
    basis = np.column_stack(cols)
    at, bt = basis.conj().T @ a, basis.conj().T @ b
    eye = np.eye(len(cols))
    m1 = eye + (cfg.power_budget / cfg.noise_user) * np.outer(at, np.conj(at))
    m2 = eye + (cfg.power_budget / cfg.noise_eve) * np.outer(bt, np.conj(bt))
    vals, vecs = linalg.eigh(m1, m2)
    if vals[-1] <= 1.0:
        return np.zeros(len(a), dtype=complex), 0.0, vals
    u = vecs[:, -1] / np.linalg.norm(vecs[:, -1])
    w = math.sqrt(cfg.power_budget) * (basis @ u)
    return w, pair_gap(a, b, w, cfg), vals


def pencil_instances(rng, per_class=100):
    """(class, a, b, config) over six classes of effective pairs."""
    def cvec(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    cases = []
    for kind in ("random", "near-parallel", "parallel", "no-eve", "no-user",
                 "strong-eve"):
        for _ in range(per_class):
            n_tx = int(rng.choice([1, 2, 4, 8, 16]))
            cfg = desk_config(n_tx=n_tx,
                              noise_user=float(10.0 ** rng.uniform(-1, 1)),
                              noise_eve=float(10.0 ** rng.uniform(-1, 1)),
                              power=float(10.0 ** rng.uniform(-1, 4)))
            a = float(10.0 ** rng.uniform(-1, 1)) * cvec(n_tx)
            b = float(10.0 ** rng.uniform(-1, 1)) * cvec(n_tx)
            coupling = complex(cvec(1)[0]) * float(10.0 ** rng.uniform(-1, 1))
            if kind == "near-parallel":
                b = coupling * a + 1e-7 * cvec(n_tx)
            elif kind == "parallel":
                b = coupling * a
            elif kind == "no-eve":
                b = np.zeros(n_tx, dtype=complex)
            elif kind == "no-user":
                a = np.zeros(n_tx, dtype=complex)
            elif kind == "strong-eve":
                b = 1e3 * b
            cases.append((kind, a, b, cfg))
    return cases


def subproblem_objective(t_a, t_b, cfg, q_anchor):
    """(p - q) log2(e) for binding auxiliary exponents at signal powers
    (t_a, t_b); shared yardstick for solver and grid oracle."""
    p = math.log1p(t_a / cfg.noise_user)
    q = q_anchor - 1.0 + (1.0 + t_b / cfg.noise_eve) * math.exp(-q_anchor)
    return (p - q) * LOG2E


def subproblem_grid_oracle(a, b, cfg, q_anchor, n_dir=120, n_pow=120, zooms=3):
    """Independent search over beamformers: QR basis of span{a, b},
    directions u(psi, chi) on the reduced sphere, power grid on [0, P],
    with local zoom refinement around the best cell."""
    stack = np.column_stack([a, b])
    q_mat, _ = np.linalg.qr(stack)
    at = q_mat.conj().T @ a
    bt = q_mat.conj().T @ b

    def value_grid(psi, chi, s):
        cos_p = np.cos(psi)[:, None]
        sin_p = np.sin(psi)[:, None]
        phase = np.exp(1j * chi)[None, :]
        # |<at, u>|^2 and |<bt, u>|^2 over the direction grid
        au = np.conj(at[0]) * cos_p + np.conj(at[1]) * sin_p * phase
        bu = np.conj(bt[0]) * cos_p + np.conj(bt[1]) * sin_p * phase
        alpha = np.abs(au) ** 2
        beta = np.abs(bu) ** 2
        best_val, best_idx = -np.inf, None
        for k, s_k in enumerate(s):
            vals = (np.log1p(s_k * alpha / cfg.noise_user) * LOG2E
                    - (s_k * beta / cfg.noise_eve) * math.exp(-q_anchor) * LOG2E)
            i = np.unravel_index(int(np.argmax(vals)), vals.shape)
            if vals[i] > best_val:
                best_val, best_idx = float(vals[i]), (i[0], i[1], k)
        return best_val, best_idx

    lo = np.array([0.0, 0.0, 0.0])
    hi = np.array([np.pi / 2, 2.0 * np.pi, cfg.power_budget])
    best = -np.inf
    centre = None
    for _ in range(zooms + 1):
        psi = np.linspace(lo[0], hi[0], n_dir)
        chi = np.linspace(lo[1], hi[1], n_dir, endpoint=False)
        s = np.linspace(lo[2], hi[2], n_pow + 1)
        val, idx = value_grid(psi, chi, s)
        if val > best:
            best = val
            centre = np.array([psi[idx[0]], chi[idx[1]], s[idx[2]]])
        width = (hi - lo) / 8.0
        lo = np.maximum(centre - width, [0.0, 0.0, 0.0])
        hi = np.minimum(centre + width,
                        [np.pi / 2, 2.0 * np.pi, cfg.power_budget])
    const = (1.0 - q_anchor - math.exp(-q_anchor)) * LOG2E
    return best + const


class TestScaSubproblem:
    def test_no_eavesdropper_matched_filter(self, rng):
        cfg = desk_config(n_tx=4, power=2.0)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        it = sca_subproblem(a, np.zeros(4, dtype=complex), cfg, q_anchor=0.0)
        w_expect = cfg.power_budget * np.outer(a, np.conj(a)) / np.linalg.norm(a) ** 2
        assert np.allclose(np.outer(it.w, np.conj(it.w)), w_expect,
                           atol=1e-9 * np.linalg.norm(a) ** 2)
        gain = cfg.power_budget * np.linalg.norm(a) ** 2
        assert it.p_aux == pytest.approx(math.log1p(gain / cfg.noise_user), rel=1e-10)
        assert it.q_aux == pytest.approx(0.0, abs=1e-12)

    def test_zero_user_channel(self, rng):
        cfg = desk_config(n_tx=3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        it = sca_subproblem(np.zeros(3, dtype=complex), b, cfg, q_anchor=0.7)
        assert np.allclose(it.w, 0.0)
        assert it.p_aux == 0.0
        # minimal feasible q at zero eavesdropper power
        assert it.q_aux == pytest.approx(0.7 - 1.0 + math.exp(-0.7), rel=1e-12)

    @pytest.mark.parametrize("anchor", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_anchor(self, anchor):
        cfg = desk_config(n_tx=2)
        with pytest.raises(ValueError, match="q_anchor must be finite"):
            sca_subproblem(np.ones(2, dtype=complex), np.ones(2, dtype=complex),
                           cfg, q_anchor=anchor)

    def test_matches_grid_oracle(self, rng):
        cases = []
        for _ in range(12):
            cfg = desk_config(n_tx=4,
                              noise_eve=float(10.0 ** rng.uniform(-0.5, 0.5)),
                              power=float(10.0 ** rng.uniform(-0.5, 0.5)))
            pair = random_pair(rng, 4, eve_scale=float(10.0 ** rng.uniform(-0.5, 0.5)))
            cases.append((cfg, pair, float(rng.uniform(0.0, 2.0))))
        # the branch points of the one-angle search: b orthogonal to a
        # exactly and b = 0 (an empty interval, where the phase of b^H a is
        # undefined), b parallel to a at a complex coupling, and a pair at
        # physical scale (noise 1e-14 W, ||a|| near 1e-6)
        a = np.array([1.0, 1.0j, 0.0, 0.0])
        cases.append((desk_config(n_tx=4, power=2.0),
                      (a, np.array([0.0, 0.0, 2.0, -1.0j])), 0.4))
        cases.append((desk_config(n_tx=4, power=2.0), (a, np.zeros(4, dtype=complex)), 0.4))
        a, _ = random_pair(rng, 4)
        cases.append((desk_config(n_tx=4, power=10.0), (a, 0.5 * np.exp(1j) * a), 0.0))
        a, b = random_pair(rng, 4)
        cases.append((desk_config(n_tx=4, noise_user=1e-14, noise_eve=1e-14),
                      (3e-7 * a, 3e-7 * b), 4.0))
        # eavesdropper parallel to the user: the optimum is below full power
        a, _ = random_pair(rng, 4)
        interior = (desk_config(n_tx=4, power=10.0), (a, a / 2), 0.0)
        cases.append(interior)
        worst = 0.0
        for cfg, pair, q_anchor in cases:
            it = sca_subproblem(*pair, cfg, q_anchor)
            ref = subproblem_grid_oracle(*pair, cfg, q_anchor)
            worst = max(worst, abs(it.objective - ref))
            # grid points are feasible, so the exact solver can only be above
            assert it.objective >= ref - 1e-9
            assert it.objective == pytest.approx(ref, abs=1e-4)
            assert np.all(np.isfinite(it.w))
            assert np.linalg.norm(it.w) ** 2 <= cfg.power_budget * (1.0 + 1e-12)
        # `it` is the interior case, the last one
        assert 0.0 < np.linalg.norm(it.w) ** 2 < 0.5 * interior[0].power_budget
        print(f"\nsubproblem vs grid oracle: worst |diff| = {worst:.2e}")

    def test_iterate_invariants(self, rng):
        pairs = [random_pair(rng, 5) for _ in range(10)]
        # nearly parallel channels: the span basis is least orthonormal here
        for _ in range(20):
            a, _ = random_pair(rng, 5)
            b = 0.5 * np.exp(1j) * a + 1e-7 * random_pair(rng, 5)[0]
            pairs.append((a, b))
        for a, b in pairs:
            cfg = desk_config(n_tx=5, power=3.0)
            it = sca_subproblem(a, b, cfg, q_anchor=float(rng.uniform(0, 3)))
            w = it.w
            assert w.shape == (5,)
            assert np.linalg.norm(w) ** 2 <= cfg.power_budget + 1e-9
            t_a = abs(np.vdot(a, w)) ** 2
            assert 1.0 + t_a / cfg.noise_user >= math.exp(it.p_aux) - 1e-9


class TestScaSolve:
    def test_no_eavesdropper_is_mrt(self, rng):
        cfg = desk_config(n_tx=6, power=4.0)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = np.zeros(6, dtype=complex)
        w, trace, converged = sca_solve(a, b, cfg)
        assert converged
        # full power, matched direction (phase-invariant comparison)
        assert np.real(np.vdot(w, w)) == pytest.approx(cfg.power_budget, rel=1e-9)
        gain = abs(np.vdot(a, w)) ** 2
        assert gain == pytest.approx(cfg.power_budget * np.linalg.norm(a) ** 2,
                                     rel=1e-9)
        assert pair_gap(a, b, w, cfg) == pytest.approx(
            np.log2(1.0 + cfg.power_budget * np.linalg.norm(a) ** 2
                    / cfg.noise_user), rel=1e-9)

    def test_identical_channels_zero_rate(self, rng):
        cfg = desk_config(n_tx=4)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w, trace, _ = sca_solve(a, a, cfg)
        assert pair_gap(a, a, w, cfg) == pytest.approx(0.0, abs=1e-9)

    def test_parallel_stronger_eavesdropper_never_negative(self):
        # b = 2 e^{i phi} a: the optimum is not to transmit (rate 0). The SCA
        # loop crawls here and often stops at its iteration cap; whatever it
        # returns must not leak more than it delivers.
        gen = np.random.default_rng(123)
        cfg = desk_config(n_tx=5, power=3.0)
        unconverged = 0
        for k in range(200):
            a = gen.standard_normal(5) + 1j * gen.standard_normal(5)
            b = 2.0 * np.exp(1j * gen.uniform(0.0, 2.0 * np.pi)) * a
            if k % 2:
                b = b + 1e-7 * (gen.standard_normal(5) + 1j * gen.standard_normal(5))
            w, _, converged = sca_solve(a, b, cfg)
            unconverged += not converged
            assert pair_gap(a, b, w, cfg) >= 0.0
            assert np.linalg.norm(w) ** 2 <= cfg.power_budget + 1e-9
        print(f"\nparallel stronger eavesdropper: {unconverged}/200 unconverged")

    def test_zero_user_channel_gives_zero_beamformer(self):
        cfg = desk_config(n_tx=3)
        w, trace, converged = sca_solve(np.zeros(3, dtype=complex),
                                        np.ones(3, dtype=complex), cfg)
        assert converged
        assert np.all(w == 0.0)

    def test_trace_monotone(self, rng):
        for _ in range(10):
            cfg = desk_config(n_tx=4,
                              noise_eve=float(10.0 ** rng.uniform(-0.5, 0.5)))
            _, trace, _ = sca_solve(*random_pair(rng, 4, eve_scale=1.5), cfg)
            assert np.all(np.diff(trace) >= -1e-9)

    def test_matches_oracle_small_batch(self, rng):
        # the full 100-instance sweep lives in the acceptance suite
        for n_tx in (2, 4, 8, 16):
            for _ in range(8):
                cfg = desk_config(n_tx=n_tx,
                                  power=float(10.0 ** rng.uniform(-1, 2)))
                a, b = random_pair(rng, n_tx,
                                   eve_scale=float(10.0 ** rng.uniform(-1, 1)))
                w, _, _ = sca_solve(a, b, cfg)
                _, rate_ref = gevd_oracle(a, b, cfg)
                assert pair_gap(a, b, w, cfg) == pytest.approx(rate_ref, abs=1e-3)


def sca_pin_answers() -> dict:
    """Instance key -> sca_solve's rate and converged flag."""
    answers, per_class = {}, 10
    cases = pencil_instances(np.random.default_rng(SCA_PIN_SEED), per_class)
    for i, (kind, a, b, cfg) in enumerate(cases):
        w, _, converged = sca_solve(a, b, cfg)
        answers[f"{kind}/{i % per_class}"] = {
            "rate": pair_gap(a, b, w, cfg), "converged": bool(converged)}
    return answers


class TestScaPins:
    def test_answers_match_pins(self):
        pins = json.loads(SCA_PINS.read_text())
        got = sca_pin_answers()
        assert sorted(got) == sorted(pins)
        moved = [f"{key}: {got[key]} != pin {pin}" for key, pin in pins.items()
                 if abs(got[key]["rate"] - pin["rate"]) > 1e-9 * max(1.0, abs(pin["rate"]))
                 or got[key]["converged"] != pin["converged"]]
        assert not moved, "\n".join(moved)


class TestGevdOracle:
    def test_orthogonal_channels(self, rng):
        cfg = desk_config(n_tx=4, power=2.0)
        a = np.array([1.0, 1.0j, 0.0, 0.0])
        b = np.array([0.0, 0.0, 2.0, -1.0j])
        w, rate = gevd_oracle(a, b, cfg)
        assert rate == pytest.approx(
            np.log2(1.0 + cfg.power_budget * np.linalg.norm(a) ** 2
                    / cfg.noise_user), rel=1e-10)
        assert abs(np.vdot(b, w)) <= 1e-9

    def test_identical_channels(self, rng):
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w, rate = gevd_oracle(a, a, desk_config(n_tx=5))
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_channels(self):
        zero = np.zeros(3, dtype=complex)
        w, rate = gevd_oracle(zero, zero, desk_config(n_tx=3))
        assert np.all(w == 0.0)
        assert rate == 0.0

    def test_beats_random_search(self, rng):
        # certificate: no random feasible beamformer does better
        cfg = desk_config(n_tx=6, power=1.7)
        a, b = random_pair(rng, 6, eve_scale=1.3)
        _, rate = gevd_oracle(a, b, cfg)
        n = 100_000
        cand = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        cand *= math.sqrt(cfg.power_budget) / np.linalg.norm(cand, axis=0)
        gu = np.abs(np.conj(a) @ cand) ** 2
        ge = np.abs(np.conj(b) @ cand) ** 2
        gaps = (np.log2(1.0 + gu / cfg.noise_user)
                - np.log2(1.0 + ge / cfg.noise_eve))
        assert rate >= float(gaps.max()) - 1e-9

    def test_matches_scipy_pencil_reference(self):
        """The closed-form root and eigenvector against a dense generalized
        eigensolver on 600 pairs: same rate, same decision to stay silent,
        same beamformer up to phase wherever the two roots are apart."""
        worst_rate, worst_dir, compared = 0.0, 0.0, 0
        for kind, a, b, cfg in pencil_instances(np.random.default_rng(505)):
            w, rate = gevd_oracle(a, b, cfg)
            w_ref, rate_ref, vals = scipy_pencil_reference(a, b, cfg)
            err = abs(rate - rate_ref)
            worst_rate = max(worst_rate, err / (1.0 + abs(rate_ref)))
            assert err <= 1e-10 + 1e-10 * abs(rate_ref), (kind, rate, rate_ref)
            silent, silent_ref = not np.any(w), not np.any(w_ref)
            # A top root within rounding of 1 (rate at the 1e-15 level)
            # decides nothing: both answers are optimal to rounding.
            if len(vals) and abs(vals[-1] - 1.0) > 1e-12:
                assert silent == silent_ref, (kind, rate, rate_ref, vals)
            assert np.linalg.norm(w) ** 2 <= cfg.power_budget + 1e-9
            separated = len(vals) == 1 or (
                len(vals) == 2 and vals[1] - vals[0] > 1e-6 * vals[1])
            if not silent and not silent_ref and separated:
                overlap = abs(np.vdot(w, w_ref)) / cfg.power_budget
                worst_dir = max(worst_dir, 1.0 - overlap)
                assert overlap >= 1.0 - 1e-9, (kind, overlap)
                compared += 1
        assert compared >= 300
        print(f"\nclosed form vs scipy eigh: worst rate diff {worst_rate:.1e} "
              f"(relative to 1 + rate), worst 1 - |<w, w_ref>|/P {worst_dir:.1e} "
              f"over {compared} transmitting pairs")

    def test_gram_rate_matches_closed_form(self):
        """The joint refine values its trial points by `_pencil_rate` on
        (conj a, conj b): the root from the Gram of the pair, which must be
        the rate gevd_oracle's beamformer achieves. On the six classes of
        the scipy comparison, and on pairs at 1e-4 to 1e-1 of parallel,
        where ||b||^2 - |b^H a|^2/||a||^2 loses up to eight digits."""
        rng = np.random.default_rng(505)
        cases = pencil_instances(rng)
        for _ in range(100):
            n_tx = int(rng.choice([2, 4, 8, 16]))
            cfg = desk_config(n_tx=n_tx, power=float(10.0 ** rng.uniform(-1, 4)))
            a = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
            noise = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
            coupling = rng.standard_normal() + 1j * rng.standard_normal()
            b = coupling * a + 10.0 ** rng.uniform(-4, -1) * noise
            cases.append(("oblique", a, b, cfg))
        worst = 0.0
        for kind, a, b, cfg in cases:
            _, rate = gevd_oracle(a, b, cfg)
            for value in (_pencil_rate(a, b, cfg),
                          _pencil_rate(np.conj(a), np.conj(b), cfg)):
                err = abs(value - rate) / max(1.0, abs(rate))
                worst = max(worst, err)
                assert err <= 1e-12, (kind, value, rate)
        print(f"\nGram rate vs closed form: worst relative diff {worst:.1e}")

    def test_solution_lives_in_span(self, rng):
        cfg = desk_config(n_tx=8)
        a, b = random_pair(rng, 8)
        w, rate = gevd_oracle(a, b, cfg)
        basis = np.linalg.qr(np.column_stack([a, b]))[0]
        w_proj = basis @ (basis.conj().T @ w)
        assert abs(pair_gap(a, b, w_proj, cfg) - rate) < 1e-12


class TestOracleDominance:
    def test_gevd_dominates_converged_sca(self, rng):
        for _ in range(15):
            cfg = desk_config(n_tx=4,
                              noise_eve=float(10.0 ** rng.uniform(-0.5, 0.5)))
            a, b = random_pair(rng, 4, eve_scale=1.1)
            w, _, converged = sca_solve(a, b, cfg)
            _, rate_ref = gevd_oracle(a, b, cfg)
            if converged:
                assert rate_ref >= pair_gap(a, b, w, cfg) - 1e-9


if __name__ == "__main__":
    SCA_PINS.parent.mkdir(exist_ok=True)
    lines = [f" {json.dumps(key)}: {json.dumps(pin)}"
             for key, pin in sca_pin_answers().items()]
    SCA_PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {SCA_PINS}")
