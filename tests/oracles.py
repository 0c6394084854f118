"""Enumeration oracles for the per-edge commute and hitting times.

These are the former library implementations: explicit sums over all
2^m - 1 proper edge subsets T, one Fraction or float term at a time.
`commute_time` and `hitting_time_closed` now evaluate the same sums as
polynomial coefficients; the tests compare the two.
"""

from fractions import Fraction

from editwalk.spectral import commute_terms


def _is_exact(value) -> bool:
    return isinstance(value, (Fraction, int))


def _probabilities(g, p) -> list:
    return [p] * g.m if not isinstance(p, (list, tuple)) else list(p)


def _ratio_to_stationary(t_mask: int, state_mask: int, probs):
    """phi_T(E) / pi(E) as a product over the edges outside T: 1/p_e when
    the edge is present, 1/(p_e - 1) when absent."""
    val = Fraction(1) if all(_is_exact(pe) for pe in probs) else 1.0
    for e, pe in enumerate(probs):
        if t_mask >> e & 1:
            continue
        val *= 1 / pe if state_mask >> e & 1 else 1 / (pe - 1)
    return val


def _subset_terms(E, F, g, p):
    """(T mask, m/(m-|T|) * prod(p_e(1-p_e), e not in T), phi_T(E)/pi(E),
    phi_T(F)/pi(F)) for every proper subset T, in mask order."""
    probs = _probabilities(g, p)
    m = g.m
    exact = all(_is_exact(pe) for pe in probs)
    for t_mask in range((1 << m) - 1):
        scale = Fraction(1) if exact else 1.0
        for e, pe in enumerate(probs):
            if not t_mask >> e & 1:
                scale *= pe * (1 - pe)
        coeff = Fraction(m, m - t_mask.bit_count()) if exact else m / (m - t_mask.bit_count())
        yield (t_mask, coeff * scale, _ratio_to_stationary(t_mask, E.mask, probs),
               _ratio_to_stationary(t_mask, F.mask, probs))


def commute_time_enumerated(E, F, g, p):
    """Spectral commute time, skipping the subsets that contain E xor F
    (their terms vanish)."""
    if E.mask == F.mask:
        return Fraction(0) if all(_is_exact(pe) for pe in _probabilities(g, p)) else 0.0
    delta = E.mask ^ F.mask
    total = 0
    for t_mask, weight, r_e, r_f in _subset_terms(E, F, g, p):
        if delta & ~t_mask:
            total += weight * (r_e - r_f) * (r_e - r_f)
    return total


def hitting_time_enumerated(E, F, g, p):
    """Spectral hitting time from E to F."""
    total = 0
    for _, weight, r_source, r_target in _subset_terms(E, F, g, p):
        total += weight * r_target * (r_target - r_source)
    return total


def largest_dropped_term(E, F, g, p) -> float:
    """Largest |term| of `commute_terms` over the subsets that contain
    E xor F, which the spectral sum leaves out because they vanish."""
    delta = E.mask ^ F.mask
    return max(
        (abs(float(term)) for flat, term in commute_terms(E, F, g, p) if delta & ~flat.mask == 0),
        default=0.0,
    )
