"""Log-space Gamma and the density normalizer Z_j."""

import math

import numpy as np
import pytest

from chiral_ldp.special_fn import log_gamma, log_Zj
from oracles import log_gamma_oracle, log_zj_oracle


class TestLogGamma:
    def test_pinned_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
        # Gamma(11) = 10!, an exact integer
        assert log_gamma(11.0) == pytest.approx(15.104412573075515295, rel=1e-15)

    def test_accuracy_grid(self):
        """|log_gamma(z) - log Gamma(z)| <= 1e-13 (1 + |log Gamma(z)|)."""
        rng = np.random.default_rng(42)
        zs = 10.0 ** rng.uniform(-3, 4, size=300)
        for z in zs:
            ref = log_gamma_oracle(float(z))
            assert abs(float(log_gamma(float(z))) - ref) <= 1e-13 * (1.0 + abs(ref))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-2.5)


class TestLogZj:
    def test_pinned_values(self):
        assert float(log_Zj(1, 0)) == pytest.approx(0.0, abs=1e-14)
        assert float(log_Zj(1, 1)) == pytest.approx(math.log(2.0), rel=1e-14)
        assert float(log_Zj(2, 0)) == pytest.approx(math.log(4.0), rel=1e-14)

    def test_duplication_consistency(self):
        """The product form (2j+v-2) log 2 + log G(j) + log G(j+v) and the
        Legendre-duplication rewrite
        log(sqrt(pi)) + log G(2j+2v) + log G(j) - (v+1) log 2 - log G(j+v+1/2)
        must agree with the implementation to 1e-10 for j, v <= 50."""
        for j in range(1, 51):
            for v in range(0, 51):
                got = float(log_Zj(j, v))
                form_a = (
                    (2 * j + v - 2) * math.log(2.0)
                    + math.lgamma(j)
                    + math.lgamma(j + v)
                )
                form_b = (
                    0.5 * math.log(math.pi)
                    + math.lgamma(2 * j + 2 * v)
                    + math.lgamma(j)
                    - (v + 1) * math.log(2.0)
                    - math.lgamma(j + v + 0.5)
                )
                assert abs(got - form_a) <= 1e-10
                assert abs(form_a - form_b) <= 1e-10

    def test_oracle_spot_checks(self):
        for j, v in ((3, 2), (10, 5), (40, 17)):
            assert float(log_Zj(j, v)) == pytest.approx(log_zj_oracle(j, v), rel=1e-13)
