import importlib.util
from pathlib import Path

import pytest

from conftest import downrun_variant_sides
from dyckgram import families
from dyckgram.families import (F1_IDENTITY, F2_IDENTITY, FAMILY_IDS, BadParams,
                               build, catalogue, deep_set, verify_pool)
from dyckgram.grammar import Grammar, GrammaticalEquation, lower
from dyckgram.oracle import count_dp
from dyckgram.sequences import GEN_CATALAN_IDENTITY, SeqId
from dyckgram.series import Poly, TruncatedSeries, solve


def counts(instance, n_max=8):
    return count_dp(n_max, instance.quad)


def test_build_dispatch_errors():
    with pytest.raises(BadParams):
        build("F4")
    with pytest.raises(BadParams):
        build("F5", A=2)
    with pytest.raises(BadParams):
        build("F1", A=2, B=1)


@pytest.mark.parametrize("family,params", [
    ("F5", dict(A=2, B=2)),
    ("F5", dict(A=1, B=1)),
    ("F6", dict(A=3, B=2)),
    ("F6", dict(A=1, B=0)),
    ("F7", dict(A=2, B=3)),
    ("F8", dict(A=2, B=1)),
    ("F9", dict(r=0)),
    ("F10", dict(m=0, n=1)),
    ("F11", dict(r=2, k=3)),
    ("F11", dict(r=2, k=0)),
])
def test_parameter_constraints(family, params):
    with pytest.raises(BadParams):
        build(family, **params)


@pytest.mark.parametrize("name,size", [
    ("run_progression_sweep", 48), ("short_run_sweep", 30), ("verify_pool", 81),
    ("deep_set", 8), ("catalogue", 117)])
def test_instance_sets(name, size):
    pairs = getattr(families, name)()
    assert len({str(build(f, **p)) for f, p in pairs}) == len(pairs) == size
    # each call builds its pairs afresh, so a reader's change reaches no other
    pairs[0][1]["x"] = 0
    assert "x" not in getattr(families, name)()[0][1]


def test_benchmark_sets_are_the_catalogue_sets():
    # benchmark/workloads.py keeps its own copies, loaded here by path
    path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.verify_pool() == verify_pool()
    assert list(workloads.DEEP_SET) == deep_set()


def test_str():
    assert str(build("F1")) == "F1"
    assert str(build("F5", A=2, B=1)) == "F5(A=2,B=1)"


def test_body_kinds():
    for family, params, kind in [
            ("F1", {}, Grammar), ("F2", {}, Grammar), ("F3", {}, Grammar),
            ("F5", dict(A=2, B=1), Grammar), ("F7", dict(A=3, B=1), Grammar),
            ("F6", dict(A=1, B=2), GrammaticalEquation),
            ("F8", dict(A=2, B=2), GrammaticalEquation),
            ("F9", dict(r=2), GrammaticalEquation),
            ("F10", dict(m=1, n=1), GrammaticalEquation),
            ("F11", dict(r=1, k=1), GrammaticalEquation)]:
        assert isinstance(build(family, **params).body, kind)


def test_quads():
    f1 = build("F1")
    assert f1.quad.peaks.contains(3) and f1.quad.peaks.contains(5)
    assert not f1.quad.peaks.contains(2) and not f1.quad.peaks.contains(4)
    assert f1.quad.up_runs.contains(3) and f1.quad.up_runs.contains(7)
    assert not f1.quad.up_runs.contains(2)
    assert f1.quad.valleys.is_empty() and f1.quad.down_runs.is_empty()

    f11 = build("F11", r=3, k=2)
    assert [f11.quad.up_runs.contains(v) for v in (1, 2, 3, 4)] == \
        [True, True, True, False]
    assert [f11.quad.down_runs.contains(v) for v in (1, 2, 3, 4)] == \
        [False, False, True, False]
    # k = r leaves nothing to avoid on the down side
    assert build("F11", r=3, k=3).quad.down_runs.is_empty()


def test_count_anchors():
    assert counts(build("F1")) == (1, 1, 2, 4, 8, 16, 32, 64, 128)
    assert counts(build("F2")) == (1, 1, 2, 4, 8, 17, 37, 82, 185)
    assert counts(build("F3")) == (1, 1, 2, 4, 9, 21, 51, 127, 323)
    assert counts(build("F5", A=2, B=1)) == (1, 0, 1, 0, 3, 0, 12, 0, 55)
    assert counts(build("F7", A=2, B=1)) == (1, 0, 1, 0, 3, 0, 12, 0, 55)
    assert counts(build("F9", r=1)) == (1, 0, 1, 1, 2, 4, 8, 17, 37)
    assert counts(build("F10", m=2, n=1)) == (1, 0, 0, 1, 1, 1, 3, 6, 10)
    assert counts(build("F11", r=2, k=2)) == (1, 0, 0, 1, 1, 1, 4, 8, 13)


def test_up_down_duals_count_alike():
    for a, b in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        up = counts(build("F5", A=a, B=b))
        down = counts(build("F7", A=a, B=b))
        assert up == down, (a, b)
    for a, b in [(1, 1), (1, 2), (2, 3)]:
        assert counts(build("F6", A=a, B=b)) == counts(build("F8", A=a, B=b))


def test_stated_systems_match_lowering():
    for family, params in [("F1", {}), ("F2", {}), ("F3", {}),
                           ("F5", dict(A=3, B=1)), ("F6", dict(A=2, B=3)),
                           ("F7", dict(A=3, B=2)), ("F8", dict(A=2, B=2)),
                           ("F9", dict(r=2))]:
        inst = build(family, **params)
        assert lower(inst.body) == inst.stated_system, str(inst)


def test_f10_f11_have_no_stated_system():
    assert build("F10", m=1, n=2).stated_system is None
    assert build("F11", r=2, k=1).stated_system is None


def test_stated_system_rendering():
    inst = build("F7", A=2, B=1)
    assert str(inst.stated_system) == "P = 1 + z^2*P^3"


def test_count_references():
    assert build("F1").count_reference == (SeqId.POWERS_OF_TWO, 0)
    assert build("F2").count_reference == (SeqId.GEN_CATALAN, 1)
    assert build("F3").count_reference == (SeqId.MOTZKIN, 0)
    assert build("F6", A=1, B=3).count_reference == (SeqId.MOTZKIN, 0)
    assert build("F6", A=1, B=2).count_reference == (SeqId.ALL_ONES, 0)
    assert build("F6", A=2, B=2).count_reference is None


def residual(identity, name, coeffs):
    """The identity evaluated at the series with the given coefficients."""
    return identity.eval({name: TruncatedSeries(tuple(coeffs))}, len(coeffs))


def test_closed_forms():
    f1 = (1, 1, 2, 4, 8, 16, 32, 64)
    f2 = (1, 1, 2, 4, 8, 17, 37, 82, 185, 423)
    assert residual(F1_IDENTITY, "P", f1) == TruncatedSeries.zero(8)
    assert residual(F2_IDENTITY, "P", f2) == TruncatedSeries.zero(10)


def test_closed_forms_match_path_counts():
    assert residual(F1_IDENTITY, "P", counts(build("F1"))) == TruncatedSeries.zero(9)
    assert residual(F2_IDENTITY, "P", counts(build("F2"))) == TruncatedSeries.zero(9)


def test_identities_encode_their_radicals_and_pin_every_coefficient():
    z = Poly.z
    delta = Poly.const(1) - z().scale(2) - z(2) - z(3).scale(2) + z(4)
    assert (Poly.const(1) - z() - z(2)) ** 2 - delta == z(3).scale(4)
    assert (Poly.const(1) - z() + z(2)) ** 2 - delta == z(2).scale(4)
    # bumping any one of the first 10 terms leaves a nonzero residual, so
    # a zero residual is never vacuous
    for identity, name, terms in [
            (F1_IDENTITY, "P", counts(build("F1"), 11)),
            (F2_IDENTITY, "P", counts(build("F2"), 11)),
            (GEN_CATALAN_IDENTITY, "G", (1, 1, 1, 2, 4, 8, 17, 37, 82, 185, 423, 978))]:
        assert residual(identity, name, terms) == TruncatedSeries.zero(12), str(identity)
        for k in range(10):
            bumped = terms[:k] + (terms[k] + 1,) + terms[k + 1:]
            assert residual(identity, name, bumped) != TruncatedSeries.zero(12), (str(identity), k)


def test_downrun_variant_overcounts_empty_path():
    for family, params in [("F7", dict(A=2, B=1)), ("F7", dict(A=3, B=2)),
                           ("F8", dict(A=2, B=2)), ("F8", dict(A=2, B=4))]:
        inst = build(family, **params)
        sol = solve(lower(inst.body), 12)
        lhs, rhs = downrun_variant_sides(inst)
        diff = rhs.eval(sol, 12) - lhs.eval(sol, 12)
        assert diff == TruncatedSeries.one(12), str(inst)


def test_downrun_variant_only_for_downrun_families():
    with pytest.raises(ValueError):
        downrun_variant_sides(build("F9", r=1))


def test_family_ids_all_buildable():
    needs = {"F5": dict(A=2, B=1), "F6": dict(A=1, B=1),
             "F7": dict(A=2, B=1), "F8": dict(A=1, B=1),
             "F9": dict(r=1), "F10": dict(m=1, n=1), "F11": dict(r=1, k=1)}
    for family in FAMILY_IDS:
        build(family, **needs.get(family, {}))


def _stated_run_progression_text(family, A, B):
    """F5-F8's body as ``to_text`` writes it, spelled out from the stated
    summands with string operations alone."""
    def spell(*letters):
        return " ".join(letters) or "eps"

    if family in ("F5", "F6"):
        def summand(k):
            return spell(*["U"] * k, *["D", "P"] * k)
        long = spell(*["U"] * A, *["P", "D"] * A, "P")
    else:
        def summand(k):
            return spell(*["U", "P"] * (k - 1), "U", *["D"] * k, "P") if k else "eps"
        long = spell(*["U", "P"] * A, *["D"] * A, "P")
    rhs = [summand(k) for k in range(A) if k != B] + [long]
    if B < A:
        return "\n".join(f"P -> {alt}" for alt in rhs)
    return f"P | {summand(B)}  =  " + " | ".join(rhs)


def test_run_progression_bodies_over_the_catalogue():
    run_progression = [build(f, **p) for f, p in catalogue() if f in ("F5", "F6", "F7", "F8")]
    assert len(run_progression) == 84
    for inst in run_progression:
        A, B = inst.params["A"], inst.params["B"]
        assert inst.body.to_text() == _stated_run_progression_text(inst.family, A, B), str(inst)


@pytest.mark.parametrize("family,A,B,constraint", [
    ("F5", 1, 2, "1 <= B < A"), ("F6", 2, 1, "1 <= A <= B"),
    ("F7", 1, 2, "1 <= B < A"), ("F8", 2, 1, "1 <= A <= B")])
def test_run_progression_bad_params_text(family, A, B, constraint):
    with pytest.raises(BadParams) as e:
        build(family, A=A, B=B)
    assert str(e.value) == f"{family}{{'A': {A}, 'B': {B}}}: requires {constraint}"
