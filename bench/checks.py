"""Output checks for every request class.

Each check returns None when the output is right, or a one-line reason
(a ``Miss`` when the output is right but short of its goal).
Reference values are computed here with plain numpy from the scenario
definitions, never by calling the program: closed forms for the built-in
scenarios, the sequential weak value Tr(E A_n ... A_1 rho) / Tr(E rho),
and statistical bounds for the sampler.
"""

from __future__ import annotations

import math

import numpy as np

FLOOR = -0.125               # conjectured pointer-product floor
REACH_TOL = 1e-6             # an optimizer run must get this close to the known optimum
FLOOR_TOL = 1e-9             # and never beat the floor by more than this
Z_LIMIT = 5.0                # sampler means within this many standard errors
WEAK_SIGMA_RATIO = 10.0      # "large sigma": every width >= 10 x the largest |eigenvalue|
WEAK_AGREEMENT = 20.0        # exact - weak <= this x scale x (|a|max / sigma_min)^2
RECOVERY_AGREEMENT = 4.0     # recovered-from-exact - weak value <= this / sigma_min^2


class Miss(str):
    """A reason for a request that ran correctly but fell short of its goal
    (an optimizer run that did not reach the known optimum within its
    budget): it counts as failed, not as a wrong output."""


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def illustrative_xx(sigma1: float) -> float:
    return (1.0 - 3.0 * math.exp(-1.0 / (8.0 * sigma1**2))) / 16.0


def chain_weak_value(n: int) -> float:
    return -math.cos(math.pi / (n + 1)) ** (n + 1)


def _projector(ket) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def builtin_definition(name: str, n: int = 2):
    """(rho, [A_1 .. A_n]) of a built-in scenario, from its published definition."""
    ket0 = np.array([1.0, 0.0])
    if name == "illustrative":
        r = math.sqrt(3.0) / 2.0
        return _projector(ket0), [_projector([0.5, r]), _projector([0.5, -r])]
    if name == "pauli-xy":
        return _projector(ket0), [np.array([[0, -1j], [1j, 0]]), np.array([[0, 1], [1, 0]])]
    if name == "chain-n":
        angles = [j * math.pi / (n + 1) for j in range(1, n + 1)]
        return _projector(ket0), [_projector([math.cos(a), math.sin(a)]) for a in angles]
    if name == "common-cause":
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        p0 = _projector(ket0)
        return _projector(bell), [np.kron(p0, np.eye(2)), np.kron(np.eye(2), p0)]
    raise ValueError(name)


def seq_weak_value(rho, observables, effect=None) -> complex:
    effect = np.eye(rho.shape[0]) if effect is None else effect
    chain = rho
    for a in observables:
        chain = a @ chain
    return complex(np.trace(effect @ chain) / np.trace(effect @ rho))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _finite(value) -> bool:
    return type(value) is float and math.isfinite(value)


def _quantities(doc) -> dict:
    return {row["quantity"]: row for row in doc["results"]}


def _values(doc) -> dict:
    return {row["quantity"]: row["value"] for row in doc["results"]}


def _close(got, want, tol) -> bool:
    return abs(got - want) <= tol


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------

def _simulate(req, doc):
    values = _values(doc)
    value, probability = values["moment"], values["postselection_probability"]
    if not _finite(value):
        return f"moment {value!r} is not a finite real number"
    if not (_finite(probability) and 0.0 < probability <= 1.0 + 1e-9):
        return f"post-selection probability {probability!r} outside (0, 1]"
    if set(req.expect["pattern"]) == {"i"} and not _close(value, 1.0, 1e-12):
        return f"all-identity moment {value!r} != 1"
    if req.label == "simulate-illustrative":
        want = illustrative_xx(req.expect["sigma1"])
        if not _close(value, want, 1e-12):
            return f"illustrative xx {value!r} != closed form {want!r}"
    return None


def _pair_tolerance(sigmas, norms, pattern, probability):
    """Bound on |exact - weak| when every width is large, else None.

    First-order corrections are O((a/sigma)^2) relative to the moment's own
    scale: the product over read slots of |a|max (x) or |a|max / (2 sigma^2)
    (p), divided by the post-selection probability.
    """
    a_max, sigma_min = max(norms), min(sigmas)
    if sigma_min < WEAK_SIGMA_RATIO * a_max:
        return None
    scale = 1.0 / probability
    for kind, norm, sigma in zip(pattern, norms, sigmas):
        if kind == "x":
            scale *= norm
        elif kind == "p":
            scale *= norm / (2.0 * sigma**2)
    return WEAK_AGREEMENT * scale * (a_max / sigma_min) ** 2


def check_pairs(items) -> dict:
    """Exact vs weak on the same file and pattern. ``items`` is a list of
    (request, output document or None); returns {item index: reason}."""
    groups: dict = {}
    for index, (req, doc) in enumerate(items):
        pair = req.expect.get("pair")
        if pair is not None and doc is not None:
            groups.setdefault(pair, {})[req.label] = (index, req, doc)
    problems = {}
    for members in groups.values():
        if len(members) != 2:
            continue
        (i_exact, req, exact), (_, _, weak) = members["simulate-exact"], members["simulate-weak"]
        e, w = _values(exact)["moment"], _values(weak)["moment"]
        probability = _values(exact)["postselection_probability"]
        tol = _pair_tolerance(req.expect["sigmas"], req.expect["norms"], req.expect["pattern"], probability)
        if tol is not None and not _close(e, w, tol):
            problems[i_exact] = f"exact {e!r} and weak {w!r} differ by more than {tol:.3e} at large sigma"
    return problems


def _sweep(req, doc):
    rows = doc["results"]
    if len(rows) != req.expect["steps"]:
        return f"{len(rows)} sweep rows for {req.expect['steps']} steps"
    param = doc["config"]["param"]
    for row in rows:
        exact, weak = row["exact"], row["weak"]
        if not (_finite(exact) and _finite(weak)):
            return f"non-finite sweep row {row!r}"
        if not _close(row["abs_difference"], abs(exact - weak), 1e-12 * max(1.0, abs(exact))):
            return f"abs_difference wrong in {row!r}"
        if req.label == "sweep-illustrative":
            want = illustrative_xx(row[param])
            if not _close(exact, want, 1e-12):
                return f"illustrative xx {exact!r} != closed form {want!r} at {param}={row[param]!r}"
            if not _close(weak, FLOOR, 1e-15):
                return f"illustrative weak xx {weak!r} != -1/8"
        elif set(req.expect["pattern"]) == {"i"} and not (_close(exact, 1.0, 1e-12) and _close(weak, 1.0, 1e-12)):
            return f"all-identity sweep row {row!r} != 1"
    return None


def _scenario(req, doc):
    values = _values(doc)
    for key, value in values.items():
        if key != "weak_regime_ok" and not _finite(value):
            return f"{key} = {value!r} is not finite"
    name = req.expect["name"]
    n = req.expect.get("n", 2)
    rho, observables = builtin_definition(name, n)
    want = seq_weak_value(rho, observables)
    from_weak = complex(values["recovered_from_weak_re"], values["recovered_from_weak_im"])
    from_exact = complex(values["recovered_from_exact_re"], values["recovered_from_exact_im"])
    if abs(from_weak - want) > 1e-9 * max(1.0, abs(want)):
        return f"weak-source recovery {from_weak!r} != weak value {want!r}"
    if name == "chain-n" and abs(from_weak - chain_weak_value(n)) > 1e-9:
        return f"chain weak value {from_weak!r} != -cos^(n+1)(pi/(n+1)) = {chain_weak_value(n)!r}"
    if values["weak_regime_ok"]:
        sigma_min = min(float(s) for s in doc["config"]["sigmas"].split(","))
        if abs(from_exact - want) > RECOVERY_AGREEMENT / sigma_min**2:
            return f"exact-source recovery {from_exact!r} != weak value {want!r} in the weak regime"
    if not _close(values["postselection_probability"], 1.0, 1e-12):
        return f"post-selection probability {values['postselection_probability']!r} != 1 without post-selection"
    if name == "illustrative":
        want_xx = illustrative_xx(req.expect["sigma1"])
        if not _close(values["exact_all_position_moment"], want_xx, 1e-12):
            return f"illustrative xx {values['exact_all_position_moment']!r} != closed form {want_xx!r}"
        if not _close(values["weak_all_position_moment"], FLOOR, 1e-15):
            return f"illustrative weak xx {values['weak_all_position_moment']!r} != -1/8"
    return None


def _sample(req, doc):
    summary = doc["summary"]
    shots, retained = req.expect["shots"], summary["retained_shots"]
    probability = summary["postselection_probability"]
    if not req.expect["postselected"]:
        if retained != shots:
            return f"retained {retained} of {shots} shots without post-selection"
    else:
        mean = shots * probability
        spread = math.sqrt(shots * probability * (1.0 - probability))
        if abs(retained - mean) > Z_LIMIT * spread + 1.0:
            return f"retained {retained} of {shots} shots, binomially inconsistent with p={probability!r}"
    for quantity, row in _quantities(doc).items():
        if not all(_finite(row[key]) for key in ("sample_mean", "stderr", "exact")):
            return f"non-finite sampler row {row!r}"
        if abs(row["sample_mean"] - row["exact"]) > Z_LIMIT * row["stderr"]:
            z = (row["sample_mean"] - row["exact"]) / row["stderr"]
            return f"{quantity}: sample mean {row['sample_mean']!r} is {z:.1f} stderr from exact {row['exact']!r}"
    return None


def _search_values(best, values, restarts, floor, target):
    """Restart values against the floor; ``target`` (if not None) must be reached."""
    if len(values) != restarts:
        return f"{len(values)} restart results for {restarts} restarts"
    if not all(_finite(v) for v in values) or best != min(values):
        return f"best value {best!r} is not the least of {values!r}"
    if best < floor - FLOOR_TOL:
        return f"value {best!r} below the floor {floor!r}"
    if target is not None and best > target + REACH_TOL:
        return Miss(f"best {best!r} did not reach {target!r}")
    return None


def _optimize(req, doc):
    values = [row["converged_value"] for row in doc["results"]]
    n, restarts = req.expect["n"], req.expect["restarts"]
    if req.expect["objective"] == "pointer-product":
        floor, target = FLOOR, FLOOR
    else:
        floor, target = -1.0, chain_weak_value(n)
    return _search_values(doc["summary"]["best_value"], values, restarts, floor, target)


def _bounds(req, doc):
    if doc["summary"]["total_violations"] != 0:
        return f"bounds reported {doc['summary']['total_violations']} violations"
    suites = {row["suite"]: row for row in doc["results"]}
    if suites.get("projector_pair_floor", {}).get("trials") != req.expect["trials"]:
        return f"bounds ran {suites.get('projector_pair_floor')!r}, not {req.expect['trials']} trials"
    if suites["projector_pair_floor"]["worst"] < FLOOR - FLOOR_TOL:
        return f"projector pair value {suites['projector_pair_floor']['worst']!r} below -1/8"
    return None


_CLI_CHECKS = {
    "simulate": _simulate,
    "sweep": _sweep,
    "scenario": _scenario,
    "sample": _sample,
    "optimize": _optimize,
    "bounds": _bounds,
}


def check_cli(req, doc):
    return _CLI_CHECKS[req.command](req, doc)


def check_library(req, result, exact_value):
    """``exact_value`` is the exact moment re-evaluated at the best point.
    Finite widths stay above -1/8 without reaching it, so only the floor applies."""
    values = [value for _, value in result.trace]
    problem = _search_values(result.best_value, values, req.call["restarts"], FLOOR, None)
    if problem:
        return problem
    if result.evaluations < req.call["restarts"]:
        return f"{result.evaluations} evaluations for {req.call['restarts']} restarts"
    if not _close(exact_value, result.best_value, 1e-12):
        return f"best value {result.best_value!r} != exact moment {exact_value!r} at the best point"
    return None
