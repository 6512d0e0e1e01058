"""The one-pass Brion check agrees with the reference it replaces:
``polynomial_sum(terms) == chi`` gives the verdict of
``rational_equal(brion_sum(h, terms), chi)``, on the true inputs and on three
faulted ones: chi with one coefficient moved by one, one term dropped, and
one term's numerator moved by a monomial; the first fault leaves the sum a
polynomial, the other two do not.  The batteries are the acceptance
suite's random cases, the benchmark's fan pool, the deep 3-D fans, the
polytope corpus and seeded 4-D cross-polytope fans."""

import pytest

from toricgf import (LaurentPolynomial, RationalGF, brion_sum, brion_terms, chi_polynomial,
                     polynomial_sum, rational_equal)

from conftest import fan_battery


@pytest.fixture(scope="module", params=["acceptance", "pool", "deep", "polytopes", "cross4d"])
def battery(request):
    """The battery's (support, Brion terms, chi) triples."""
    return [(h, brion_terms(h), chi_polynomial(h))
            for _, h in fan_battery(request.param, request)]


def faulted_inputs(k, terms, chi):
    """The true (terms, chi) of case k, then its three faults.  The moved
    chi coefficient is the lowest exponent of chi (the origin when chi is
    0), and the faulted term is term k modulo the term count."""
    dim = chi.dim
    b = min(chi.terms, default=(0,) * dim)
    i = k % len(terms)
    cone, gf = terms[i]
    moved = RationalGF(gf.numerator + LaurentPolynomial.monomial(b), gf.denominator_factors)
    return [(terms, chi),
            (terms, chi + LaurentPolynomial.monomial(b, (-1) ** k)),
            (terms[:i] + terms[i + 1:], chi),
            (terms[:i] + [(cone, moved)] + terms[i + 1:], chi)]


def test_one_pass_verdicts_equal_the_reference(battery):
    for k, (h, terms, chi) in enumerate(battery):
        lhs = brion_sum(h, terms)
        totals = []
        for faulted_terms, faulted_chi in faulted_inputs(k, terms, chi):
            summed = lhs if faulted_terms is terms else brion_sum(h, faulted_terms)
            reference = rational_equal(summed, RationalGF.from_polynomial(faulted_chi))
            total = polynomial_sum(gf for _, gf in faulted_terms).total
            assert (total == faulted_chi) == reference
            totals.append(total)
        # Dropping a term, or moving its numerator by a monomial, adds minus
        # or plus a cone's series, which has a pole: the pass finds a
        # remainder.
        assert totals[0] == totals[1] == chi and totals[2] is None and totals[3] is None
