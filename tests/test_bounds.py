import json
from fractions import Fraction

import pytest

import locdim as L


def by_quantity(entries, quantity):
    return {e.kind: e for e in entries if e.quantity == quantity}


def test_kneser_beta_lower_headline_values():
    e = L.kneser_beta_lower(6, 18)
    assert e.bound == 12
    assert e.value == Fraction(12)
    assert e.satisfied
    e = L.kneser_beta_lower(4, 12)
    assert e.bound == 9
    assert e.value == Fraction(35, 4)
    assert e.kind == "lower"
    assert e.quantity == "beta"


def test_kneser_zeta_lower_headline_values():
    e = L.kneser_zeta_lower(4, 12)
    assert e.bound == 6
    assert e.value == Fraction(23, 4)
    assert e.quantity == "zeta"


def test_kneser_lower_precondition_flags():
    # the k = 3 counting argument needs room; below threshold the entry is
    # returned unsatisfied instead of pretending
    e = L.kneser_beta_lower(3, 12)
    assert not e.satisfied
    assert e.value is None and e.bound is None
    assert L.kneser_beta_lower(3, 18).satisfied
    e = L.kneser_beta_lower(2, 8)
    assert not e.satisfied
    e = L.kneser_zeta_lower(3, 12)
    assert not e.satisfied
    assert L.kneser_zeta_lower(3, 21).satisfied


def test_kneser_param_validation():
    with pytest.raises(ValueError):
        L.kneser_beta_lower(1, 5)
    # K(4,11) has diameter 2, but the paper's bounds assume n >= 3k
    assert L.kneser_graph(4, 11).diameter() == 2
    with pytest.raises(ValueError, match=r"^the paper's Kneser bounds need "
                       r"n >= 3k, got k=4, n=11$"):
        L.kneser_beta_lower(4, 11)
    with pytest.raises(ValueError):
        L.kneser_zeta_lower(4, 11)
    with pytest.raises(ValueError):
        L.kneser_beta_upper(4, 11, 4)
    with pytest.raises(ValueError):
        L.kneser_beta_upper(4, 12, 3)  # gadget needs at least k points
    with pytest.raises(ValueError):
        L.kneser_beta_upper(4, 12, 13)


def test_kneser_beta_upper_values():
    e = L.kneser_beta_upper(4, 12, 4)
    assert e.satisfied
    assert e.bound == 9  # 12 * (1/2 + 1/4) = 9 exactly
    assert e.value == Fraction(9)
    e = L.kneser_beta_upper(3, 18, 3)
    # odd k pays the extra 1/(2k) on top of the even rate
    assert e.value == Fraction(18) * (Fraction(1, 2) + Fraction(1, 3)
                                      + Fraction(1, 6))
    e = L.kneser_beta_upper(4, 14, 4)
    # 4 does not divide 14, so the cover spills over to n + m elements
    assert e.value == Fraction(14 + 4) * Fraction(3, 4)
    e = L.kneser_beta_upper(2, 8, 2)
    assert not e.satisfied


def test_moore_bounds_headline():
    entries = L.moore_bounds(7)
    beta = by_quantity(entries, "beta")
    zeta = by_quantity(entries, "zeta")
    assert (beta["lower"].bound, beta["upper"].bound) == (7, 11)
    assert (zeta["lower"].bound, zeta["upper"].bound) == (6, 7)


def test_moore_bounds_small_degrees_exact():
    for k in (2, 3):
        beta = by_quantity(L.moore_bounds(k), "beta")
        assert beta["lower"].bound == beta["upper"].bound == k
        assert beta["lower"].source == "moore-exact-small"


def test_moore_bounds_rejects_non_moore_degree():
    with pytest.raises(ValueError):
        L.moore_bounds(4)
    with pytest.raises(ValueError):
        L.moore_bounds(56)
    beta = by_quantity(L.moore_bounds(57), "beta")
    assert (beta["lower"].bound, beta["upper"].bound) == (57, 111)


def test_polarity_bounds_headline():
    entries = L.polarity_bounds(5)
    beta = by_quantity(entries, "beta")
    assert (beta["lower"].bound, beta["upper"].bound) == (5, 9)
    zeta = by_quantity(entries, "zeta")
    assert zeta["upper"].bound == 9
    assert zeta["lower"].bound == 2  # ceil((2q-5)/3) at q = 5


def test_polarity_bounds_clamp_at_tiny_q():
    entries = L.polarity_bounds(2)
    beta = by_quantity(entries, "beta")
    assert beta["lower"].bound == 1  # 2q - 5 < 0 clamps to the trivial floor
    assert any("clamp" in (e.notes or "") for e in entries)


def test_polarity_bounds_rejects_non_prime_power():
    with pytest.raises(ValueError):
        L.polarity_bounds(6)
    with pytest.raises(ValueError):
        L.polarity_bounds(1)


def test_bound_sources_are_stable_slugs():
    assert L.kneser_beta_lower(6, 18).source == "kneser-beta-counting"
    assert L.kneser_zeta_lower(4, 12).source == "kneser-zeta-counting"
    assert L.kneser_beta_upper(4, 12, 4).source == "kneser-cover-upper"
    assert {e.source for e in L.moore_bounds(7)} == {
        "moore-beta-lower", "moore-neighborhood-upper", "moore-zeta-range"}
    assert {e.source for e in L.polarity_bounds(5)} == {
        "polarity-beta-lower", "polarity-neighborhood-upper",
        "polarity-zeta-lower", "zeta-from-beta-upper"}


def test_bounds_report_ok_path():
    rep = L.bounds_report("kneser", k=4, n=12, computed={"beta": 9})
    assert rep.family == "kneser"
    assert rep.computed == {"beta": 9}
    assert any("ok" in line for line in rep.checked)
    d = rep.to_json_dict()
    json.dumps(d)
    assert d["params"] == {"k": 4, "n": 12}


def test_bounds_report_gadget_route():
    rep = L.bounds_report("kneser", k=4, n=12, gadget_m=4,
                          computed={"beta": 9})
    assert any(e.source == "kneser-cover-upper" for e in rep.entries)
    assert rep.params["gadget_m"] == 4
    with pytest.raises(L.BoundContradictionError):
        L.bounds_report("kneser", k=4, n=12, gadget_m=4,
                        computed={"beta": 10})


def test_bounds_report_detects_contradictions():
    with pytest.raises(L.BoundContradictionError) as exc:
        L.bounds_report("kneser", k=4, n=12, computed={"beta": 5})
    assert "kneser-beta-counting" in str(exc.value)
    with pytest.raises(L.BoundContradictionError):
        L.bounds_report("moore", k=7, computed={"zeta": 9})


def test_bounds_report_accepts_intervals():
    # an interval only contradicts when it lies wholly outside the bound
    rep = L.bounds_report("moore", k=7, computed={"zeta": (5, 7)})
    assert rep.checked
    with pytest.raises(L.BoundContradictionError):
        L.bounds_report("moore", k=7, computed={"zeta": (8, 9)})


def test_bounds_report_rejects_empty_intervals():
    # lo > hi holds no value, so it can contradict no bound: refuse it, also
    # where no satisfied entry reads it (K(2,6) has none, K(3,9) none on zeta)
    from locdim.cli import main
    cases = [("moore", {"k": 7}, "beta", (9, 8)),
             ("kneser", {"k": 4, "n": 12}, "zeta", (7, 6)),
             ("kneser", {"k": 2, "n": 6}, "beta", (5, 3)),
             ("kneser", {"k": 3, "n": 9}, "zeta", (9, 1))]
    for family, params, quantity, (lo, hi) in cases:
        with pytest.raises(ValueError, match=f"empty interval {lo}:{hi}"):
            L.bounds_report(family, **params, computed={quantity: (lo, hi)})
        argv = ["bounds", "report", "--family", family]
        for key, value in params.items():
            argv += [f"--{key}", str(value)]
        assert main(argv + [f"--{quantity}", f"{lo}:{hi}"]) == 3, argv


def test_bounds_report_polarity_family():
    rep = L.bounds_report("polarity", q=5, computed={"beta": 9,
                                                     "zeta": (2, 9)})
    assert rep.params == {"q": 5}
    assert any("zeta-from-beta-upper" in line for line in rep.checked)
    with pytest.raises(L.BoundContradictionError):
        L.bounds_report("polarity", q=5, computed={"beta": 4})


def test_bounds_report_rejects_unknown_family():
    with pytest.raises(ValueError):
        L.bounds_report("grid", k=3, n=9)
    with pytest.raises(ValueError):
        L.bounds_report("kneser", k=3)  # n missing
    with pytest.raises(ValueError):
        L.bounds_report("polarity", k=3)  # q missing


def test_unsatisfied_entries_are_not_checked():
    # k = 2 lower bounds are flagged off, so even a tiny computed beta passes
    rep = L.bounds_report("kneser", k=2, n=8, computed={"beta": 1})
    assert all(not e.satisfied for e in rep.entries)
    assert rep.checked == []


def test_bound_entry_serializes():
    e = L.kneser_beta_lower(4, 12)
    d = e.to_json_dict()
    json.dumps(d)
    assert d["value"] == "35/4"
    assert d["bound"] == 9
    e = L.kneser_beta_lower(3, 12)
    assert e.to_json_dict()["value"] is None
