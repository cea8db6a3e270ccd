"""Field tower construction, arithmetic, Frobenius, subfields, normal bases."""

import hashlib

import pytest

import rmcodes
from field_oracle import neg_by_digits
from rmcodes import (
    BadParams,
    DependentVector,
    DivisionByZero,
    DoesNotDivide,
    FieldElement,
    IndependentTuple,
    NotPrime,
    NotPrimitiveModulus,
    OrderedBasis,
    ReducibleModulus,
    TooLarge,
    TowerMismatch,
    find_normal_element,
    is_normal,
    make_tower,
    normal_basis_from,
    parse_element,
    parse_field_spec,
    power_basis,
)


def polymul_mod(a, b, modulus, p):
    """Test-local oracle: dense polynomial product reduced modulo modulus."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    deg = len(modulus) - 1
    while len(out) > deg:
        lead = out.pop()
        if lead:
            for i in range(deg):
                out[-deg + i] = (out[-deg + i] - lead * modulus[i]) % p
    while len(out) < deg:
        out.append(0)
    return out


class TestMakeTower:
    def test_f16_worked_modulus(self, f16):
        assert f16.modulus == (1, 1, 0, 0, 1)
        # generator is a root of the modulus: w^4 = 1 + w
        w = f16.generator
        assert w**4 == f16.one + w

    def test_f64_worked_modulus(self, f64):
        assert f64.order == 64
        assert f64.mult_order == 63

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            make_tower(4, 1, 2)

    def test_reducible_modulus(self):
        with pytest.raises(ReducibleModulus):
            make_tower(2, 1, 4, [1, 0, 0, 0, 1])  # (1+t)^4

    def test_irreducible_but_not_primitive(self):
        # t^4+t^3+t^2+t+1 divides t^5-1, so its root has order 5
        with pytest.raises(NotPrimitiveModulus):
            make_tower(2, 1, 4, [1, 1, 1, 1, 1])

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_modulus_t_has_root_zero(self, p):
        # t is irreducible, but its root 0 generates nothing
        with pytest.raises(NotPrimitiveModulus):
            make_tower(p, 1, 1, [0, 1])

    def test_default_modulus_is_lex_least(self):
        # candidates below [1,1,0,0,1] fail: 1+t^4 = (1+t)^4 and t+t^4 = t(1+t^3)
        # are reducible, so the first primitive candidate is the worked-example
        # polynomial itself.
        tower = make_tower(2, 1, 4)
        assert tower.modulus == (1, 1, 0, 0, 1)

    def test_interning(self):
        assert make_tower(2, 1, 4) is make_tower(2, 1, 4)

    def test_request_checked_once(self, monkeypatch):
        from rmcodes import fields
        f81 = make_tower(3, 1, 4)
        f16 = make_tower(2, 1, 4, iter([1, 1, 0, 0, 1]))

        def no_checks(*args):
            raise AssertionError("a request seen before is looked up, not checked")

        for name in ("_default_modulus", "_is_irreducible", "_root_is_primitive"):
            monkeypatch.setattr(fields, name, no_checks)
        assert make_tower(3, 1, 4) is f81
        assert make_tower(2, 1, 4, iter([1, 1, 0, 0, 1])) is f16

    def test_bad_modulus_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ReducibleModulus):
                make_tower(2, 1, 4, [1, 0, 0, 0, 1])
            with pytest.raises(NotPrimitiveModulus):
                make_tower(2, 1, 4, [1, 1, 1, 1, 1])

    @pytest.mark.parametrize("p,e,m", [(2, 1, 4), (2, 2, 3), (3, 1, 4), (3, 2, 3),
                                       (7, 1, 1), (11, 1, 3)])
    def test_exp_table_holds_the_powers_of_t(self, p, e, m):
        from rmcodes.fields import _poly_powmod
        tower = make_tower(p, e, m)
        for i in range(tower.mult_order):
            coeffs = _poly_powmod([0, 1], i, tower.modulus, p)
            assert tower._exp[i] == sum(c * p**j for j, c in enumerate(coeffs))

    # sha256 of repr((exp, log, zech)) as the tables were built when towers
    # still built them at construction time
    EAGER_TABLES = {
        (2, 1, 20): "9b2d1a1a2d2a205095f5a4682594039cd994044592c519b9d590f9457f90423a",
        (3, 1, 10): "45b099304d4ec5826a9a0a16b4392e3d842e8ad6403c2ff847773f221c518adb",
        (11, 1, 3): "9612ad092adb3693e07f8d200339c6bbc4a3f9104b44a6b2820c8ed47c29a1f7",
        (3, 2, 3): "34182b6f86ad5de3f8f3db6734f264f23bbe352e863b644e9e7eb259697f3f50",
    }

    @pytest.mark.parametrize("pem", list(EAGER_TABLES))
    def test_tables_built_on_first_read_match_eager_build(self, pem):
        tower = make_tower(*pem)
        tower.inv(1)  # the first arithmetic builds the tables
        tables = (tower._exp, tower._log, tower._zech)
        assert hashlib.sha256(repr(tables).encode()).hexdigest() == self.EAGER_TABLES[pem]

    @pytest.mark.parametrize("p,e,m", [(2, 1, 4), (3, 1, 2), (3, 1, 1), (2, 1, 1), (2, 2, 2)])
    def test_construction_builds_no_table(self, p, e, m):
        from rmcodes.fields import FieldTower, _Unbuilt
        interned = make_tower(p, e, m)
        tower = FieldTower(p, e, m, interned.modulus)  # a fresh, unbuilt instance
        assert type(tower._exp) is _Unbuilt and type(tower._log) is _Unbuilt
        assert tower._zech is None if p == 2 else type(tower._zech) is _Unbuilt
        stand_in = tower._exp
        g = tower.generator.code
        assert g == interned.generator.code == interned._exp[1 % interned.mult_order]
        assert tower.mul(g, g) == interned.mul(g, g)
        built = tower._exp
        assert type(built) is list and type(tower._log) is list
        assert tower._zech is None if p == 2 else type(tower._zech) is list
        # a stand-in read after the build answers from the lists, building nothing
        assert stand_in[:] == interned._exp
        assert tower._exp is built

    @pytest.mark.parametrize("p,e,m", [(2, 1, 21), (2, 1, 30), (3, 2, 7),
                                       (1048583, 1, 1), (2, 1, 10**9)])
    def test_size_guard_before_any_table(self, monkeypatch, p, e, m):
        from rmcodes import fields

        def no_tables(*args, **kwargs):
            raise AssertionError("guard must refuse before building anything")

        for name in ("FieldTower", "_default_modulus", "_is_prime"):
            monkeypatch.setattr(fields, name, no_tables)
        with pytest.raises(TooLarge):
            make_tower(p, e, m)

    def test_size_guard_admits_two_to_the_twenty(self, monkeypatch):
        from rmcodes import fields
        built = []
        monkeypatch.setattr(fields, "FieldTower",
                            lambda *args, **kwargs: built.append(args))
        monkeypatch.setattr(fields, "_default_modulus", lambda p, degree: (1,) * 21)
        monkeypatch.setattr(fields, "_tower_cache", {})
        make_tower(2, 1, 20)
        assert built == [(2, 1, 20, (1,) * 21)]


class TestArith:
    def test_inverse_axiom_all_nonzero(self, f16, f81):
        for t in (f16, f81):
            for x in (FieldElement(t, c) for c in range(t.order)):
                assert x + -x == t.zero and bool(x) == (x.code != 0)
                if x:
                    assert (x * x.inverse()).code == 1

    def test_exponent_arithmetic_matches_repeated_multiplication(self, f16):
        # oracle: build w^5 and w^10 by repeated polynomial multiplication
        mod = list(f16.modulus)
        acc = [1, 0, 0, 0]
        powers = {}
        for k in range(1, 16):
            acc = polymul_mod(acc, [0, 1, 0, 0], mod, 2)
            powers[k] = tuple(acc)
        w = f16.generator
        assert tuple(f16._digits((w**5).code)) == powers[5]
        assert tuple(f16._digits((w**10).code)) == powers[10]
        assert (w**5 * w**10).code == 1

    def test_division_by_zero(self, f16):
        with pytest.raises(DivisionByZero):
            f16.one / f16.zero
        with pytest.raises(DivisionByZero):
            f16.zero.inverse()

    def test_negative_powers(self, f16):
        w = f16.generator
        assert w**-1 == w.inverse()
        assert w**-3 == (w**3).inverse()

    def test_tower_mismatch(self, f16, f4):
        with pytest.raises(TowerMismatch):
            f16.one + f4.one

    @pytest.mark.parametrize("p,e,m", [(3, 2, 1), (5, 1, 2), (3, 1, 3), (7, 1, 2),
                                       (3, 1, 4)])
    def test_neg_matches_digit_negation(self, p, e, m):
        tower = make_tower(p, e, m)
        for a in range(tower.order):
            assert tower.neg(a) == neg_by_digits(p, a)
            assert tower.add(a, tower.neg(a)) == 0


class TestFrobenius:
    def test_fixes_one(self, f16):
        for r in range(8):
            assert f16.one.frobenius(r) == f16.one

    def test_square_in_coefficient_form(self, f16):
        # oracle: square w^5 directly as a polynomial
        mod = list(f16.modulus)
        w5 = f16._digits((f16.generator**5).code)
        sq = polymul_mod(w5, w5, mod, 2)
        assert f16._digits((f16.generator**5).frobenius(1).code) == sq
        assert (f16.generator**5).frobenius(1) == f16.generator**10

    def test_f64_normal_basis_listing(self, f64):
        # the published normal-basis chain: squaring steps 38 -> 13 -> 26 -> ...
        assert f64.gen_power(38).frobenius(1) == f64.gen_power(13)
        assert f64.gen_power(13).frobenius(1) == f64.gen_power(26)

    def test_ring_homomorphism_exhaustive(self, f16):
        for x in (FieldElement(f16, c) for c in range(f16.order)):
            assert x.frobenius(f16.degree) == x
            for y in (FieldElement(f16, c) for c in range(f16.order)):
                assert (x * y).frobenius(1) == x.frobenius(1) * y.frobenius(1)
                assert (x + y).frobenius(1) == x.frobenius(1) + y.frobenius(1)

    def test_generator_order_exact(self, f81):
        n = f81.mult_order
        for ell in (2, 5):  # prime factors of 80
            assert (f81.generator ** (n // ell)).code != 1


class TestSubfield:
    def test_prime_subfield(self, f16):
        assert f16.subfield_codes(1) == (0, 1)

    def test_f4_inside_f16(self, f16):
        w = f16.generator
        assert f16.subfield_codes(2) == tuple(sorted({0, 1, (w**5).code, (w**10).code}))

    def test_f8_inside_f64_fixed_points(self, f64):
        # oracle: fixed-point scan of x -> x^8 over all 64 elements
        fixed = {c for c in range(64) if FieldElement(f64, c).frobenius(3).code == c}
        assert len(fixed) == 8
        assert set(f64.subfield_codes(3)) == fixed

    def test_does_not_divide(self, f16):
        with pytest.raises(DoesNotDivide):
            f16.subfield_codes(3)

    def test_closure(self, f64):
        for d in (1, 2, 3):
            els = {FieldElement(f64, c) for c in f64.subfield_codes(d)}
            for x in els:
                for y in els:
                    assert x + y in els
                    assert x * y in els

    def test_sigma_q_power_m_is_identity(self, f16_q4):
        # sigma_q = x.frobenius(e); its m-th power fixes everything
        for x in (FieldElement(f16_q4, c) for c in range(f16_q4.order)):
            assert x.frobenius(f16_q4.e * f16_q4.m) == x


class TestNormalElements:
    def test_f4_generator_is_normal(self, f4):
        # oracle: det of the 2x2 coefficient matrix of (w, w^2) over F_2
        w = f4.generator
        rows = [f4._digits(w.code), f4._digits((w**2).code)]
        det = (rows[0][0] * rows[1][1] + rows[0][1] * rows[1][0]) % 2
        assert det == 1
        assert find_normal_element(f4) == w

    def test_f16_checker_agrees_with_rank(self, f16):
        # oracle: direct rank of the 4x4 F_2 matrix of Frobenius iterates
        def f2_rank(rows):
            rows = [list(r) for r in rows]
            rank = 0
            for col in range(4):
                piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
                if piv is None:
                    continue
                rows[rank], rows[piv] = rows[piv], rows[rank]
                for i in range(len(rows)):
                    if i != rank and rows[i][col]:
                        rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
                rank += 1
            return rank

        for k in range(15):
            x = f16.gen_power(k)
            iterates = [f16._digits((x**j).code) for j in (1, 2, 4, 8)]
            assert is_normal(x) == (f2_rank(iterates) == 4)

    def test_f64_published_normal_element(self, f64):
        assert is_normal(f64.gen_power(38))
        assert not is_normal(f64.generator)
        assert find_normal_element(f64) == f64.gen_power(3)

    def test_normal_basis_from_rejects(self, f64):
        with pytest.raises(DependentVector):
            normal_basis_from(f64.generator)


class TestTextForms:
    def test_field_spec_round_trip(self, f16):
        assert parse_field_spec(f16.spec_string()) is f16
        assert parse_field_spec("gf(2,1,4)") is make_tower(2, 1, 4)

    def test_element_round_trip(self, f16):
        for x in (FieldElement(f16, c) for c in range(f16.order)):
            assert parse_element(f16, str(x)) == x
        assert parse_element(f16, "poly:[1,1]") == f16.one + f16.generator
        assert str(f16.zero) == "0"
        assert str(f16.one) == "g^0"

    @pytest.mark.parametrize("text", ["poly:[1,,1]", "poly:[1,1,]", "poly:[]"])
    def test_poly_refuses_empty_entries(self, f16, text):
        # an empty entry was skipped, so poly:[1,,1] read as poly:[1,1] = g^4
        with pytest.raises(BadParams, match="bad element literal"):
            parse_element(f16, text)

    @pytest.mark.parametrize("spec", ["gf(2,1,4;modulus=[1,,1,0,0,1])",
                                      "gf(2,1,4;modulus=[1,1,0,0,1,])",
                                      "gf(2,1,4;modulus=[])"])
    def test_modulus_refuses_empty_entries(self, spec):
        # an empty entry was skipped, so the first spec built the tower of [1,1,0,0,1]
        with pytest.raises(BadParams, match="bad field spec"):
            parse_field_spec(spec)

    @pytest.mark.parametrize("text", ["g^1_0", "g^١", "g^1 0", "poly:[1,١]",
                                      "poly:[1_0]"])
    def test_element_integers_are_signed_ascii_digits(self, f16, text):
        with pytest.raises(BadParams, match="bad element literal"):
            parse_element(f16, text)

    def test_element_integers_keep_sign_and_spaces(self, f16):
        assert parse_element(f16, "g^-1") == f16.gen_power(14)
        assert parse_element(f16, "g^+3") == parse_element(f16, "g^ 3 ") == f16.gen_power(3)
        assert parse_element(f16, "poly:[ 1, 1 ]") == f16.one + f16.generator

    def test_power_basis(self, f16):
        b = power_basis(f16)
        assert [x.code for x in b] == [1, 2, 4, 8]


class TestIndependentTuple:
    def test_one_type_under_every_name(self):
        assert rmcodes.expansion.IndependentTuple is IndependentTuple
        assert rmcodes.fields.IndependentTuple is IndependentTuple
        assert issubclass(OrderedBasis, IndependentTuple)

    def test_tuple_rejects(self, f16, f4):
        w = f16.generator
        with pytest.raises(BadParams):
            IndependentTuple(())
        with pytest.raises(TowerMismatch):
            IndependentTuple((f16.one, f4.generator))
        with pytest.raises(DependentVector):
            IndependentTuple((w, w))
        with pytest.raises(DependentVector):  # more than m entries is a dependence
            IndependentTuple(tuple(w**k for k in range(5)))

    @pytest.mark.parametrize("n", [3, 5])
    def test_basis_length_before_rank(self, f16, monkeypatch, n):
        def no_rank(*args):
            raise AssertionError("the length is checked before any rank test")

        monkeypatch.setattr(rmcodes.elimination, "solver", no_rank)
        with pytest.raises(BadParams):
            OrderedBasis(tuple(f16.gen_power(k) for k in range(n)))

    def test_basis_rejects(self, f16, f4):
        w = f16.generator
        with pytest.raises(DependentVector):
            OrderedBasis((f16.one, w, w**2, f16.one + w))
        with pytest.raises(TowerMismatch):  # towers are checked before the length
            OrderedBasis((f16.one, f4.generator))
        assert len(OrderedBasis((f16.one, w, w**2, w**3))) == 4
