"""Orbifold volume, surface data model, families, serialization."""

import json
import math

import pytest

from degenspec.errors import (DomainError, InvariantViolation, ParseError,
                              SignatureError)
from degenspec.geometry import (DegeneratingFamily, SurfaceData,
                                gauss_bonnet_volume, hecke_family,
                                load_surface, save_surface)


class TestGaussBonnet:
    def test_modular_like_signature(self):
        # (g=0, p=1, orders=[2,N]): 2 pi (1/2 - 1/N); N=3 gives pi/3
        for N, expected in ((3, math.pi / 3),
                            (7, 2 * math.pi * (0.5 - 1 / 7))):
            assert gauss_bonnet_volume(0, 1, [2, N]) == pytest.approx(expected,
                                                                       rel=1e-14)

    def test_genus_two(self):
        assert gauss_bonnet_volume(2, 0, []) == pytest.approx(4 * math.pi,
                                                              rel=1e-15)

    def test_monotone_in_orders(self):
        vals = [gauss_bonnet_volume(0, 1, [2, q]) for q in (3, 10, 1000)]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
        assert vals[-1] < gauss_bonnet_volume(0, 2, [2])  # cusped limit

    def test_bound_by_cusped_volume(self):
        g, p, orders = 1, 2, [2, 3, 11]
        kappa = p + len(orders)
        assert gauss_bonnet_volume(g, p, orders) <= \
            2 * math.pi * (2 * g - 2 + kappa)

    def test_signature_error(self):
        with pytest.raises(SignatureError):
            gauss_bonnet_volume(0, 0, [2, 2])
        with pytest.raises(SignatureError):
            gauss_bonnet_volume(1, 0, [])


class TestSurfaceData:
    def test_canonicalizes_spectrum(self):
        s = SurfaceData(genus=2, num_cusps=0,
                        length_spectrum=((2.0, 1), (1.0, 3)))
        assert s.length_spectrum == ((1.0, 3), (2.0, 1))

    def test_bad_order(self):
        with pytest.raises(InvariantViolation):
            SurfaceData(genus=0, num_cusps=1, elliptic_orders=(1,))

    def test_degenerating_subset(self):
        with pytest.raises(InvariantViolation):
            SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3),
                        degenerating=(5,))

    def test_small_eigenvalue_range(self):
        with pytest.raises(InvariantViolation):
            SurfaceData(genus=2, num_cusps=0, small_eigenvalues=(0.3,))

    def test_volume_crosscheck(self):
        gb = gauss_bonnet_volume(2, 0, [2])
        SurfaceData(genus=2, num_cusps=0, elliptic_orders=(2,), volume=gb)
        with pytest.raises(InvariantViolation):
            SurfaceData(genus=2, num_cusps=0, elliptic_orders=(2,),
                        volume=gb * 1.001)

    def test_kept_orders(self):
        s = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, 11),
                        degenerating=(2,))
        assert s.kept_orders == (2, 3)
        assert s.degenerating_orders == (11,)


class TestFamily:
    def test_monotone_schedule_enforced(self):
        t = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, 5),
                        degenerating=(2,))
        with pytest.raises(InvariantViolation):
            DegeneratingFamily(template=t, schedule=((3,), (5,), (4,)))

    def test_members_replace_orders(self):
        t = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, 5),
                        degenerating=(2,))
        fam = DegeneratingFamily(template=t, schedule=((5,), (50,)))
        assert fam.member(1).elliptic_orders == (2, 3, 50)
        assert fam.member(1).volume > fam.member(0).volume

    def test_log_products(self):
        t = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, 3, 5),
                        degenerating=(2,))
        fam = DegeneratingFamily(template=t, schedule=((10,), (100,)))
        assert fam.log_products() == pytest.approx([math.log(10),
                                                    math.log(100)])


class TestHeckeFamily:
    def test_single_order(self):
        fam = hecke_family([3])
        assert len(fam) == 1
        assert fam.template.degenerating_orders == (3,)
        assert fam.template.num_cusps == 1 and fam.template.genus == 0

    def test_hecke_group_signature(self):
        # G_N = Z/2 * Z/N: (0; 2, N; 1 cusp), the N-cone degenerating
        for N in (3, 7):
            template = hecke_family([N]).template
            assert (template.genus, template.num_cusps,
                    template.elliptic_orders) == (0, 1, (2, N))
            assert template.degenerating_orders == (N,)
            assert template.volume == pytest.approx(math.pi * (N - 2) / N,
                                                    rel=1e-12)

    def test_arithmetic_cases(self):
        from degenspec.geometry import HECKE_ARITHMETIC
        fam = hecke_family([3, 4, 6])
        flagged = [row[0] in HECKE_ARITHMETIC for row in fam.schedule]
        assert flagged == [True, True, True]
        assert 7 not in HECKE_ARITHMETIC

    def test_monotonicity_rejected(self):
        with pytest.raises(InvariantViolation):
            hecke_family([3, 5, 4])

    def test_minimum_order(self):
        with pytest.raises(DomainError):
            hecke_family([2])

    def test_spectra_left_empty(self):
        fam = hecke_family([4])
        assert fam.template.length_spectrum == ()
        assert fam.template.small_eigenvalues == ()


class TestSerialization:
    def test_round_trip(self, tmp_path, compact_surface):
        path = tmp_path / "m.json"
        save_surface(compact_surface, path)
        loaded = load_surface(path)
        assert loaded == compact_surface

    def test_bad_order_in_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"genus": 0, "cusps": 1,
                                    "elliptic_orders": [1]}))
        with pytest.raises(InvariantViolation):
            load_surface(path)

    def test_unsorted_lengths_normalized(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "genus": 2, "cusps": 0,
            "lengths": [{"l": 2.0, "mult": 1}, {"l": 0.5, "mult": 2}]}))
        loaded = load_surface(path)
        assert loaded.length_spectrum == ((0.5, 2), (2.0, 1))

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"genus": 0,\n  "cusps": }')
        with pytest.raises(ParseError) as err:
            load_surface(path)
        assert "line" in str(err.value)

    def test_missing_field_diagnostic(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"genus": 1}))
        with pytest.raises(ParseError) as err:
            load_surface(path)
        assert "cusps" in str(err.value)

    def test_unknown_field_diagnostic(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"genus": 2, "cusps": 0, "bogus": 1}))
        with pytest.raises(ParseError) as err:
            load_surface(path)
        assert "bogus" in str(err.value)
