"""The density normalizer Z_j."""

import math

import pytest

from chiral_ldp.special_fn import log_Zj
from oracles import log_zj_oracle


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

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError, match="index j must be >= 1"):
            log_Zj(0, 1)
        with pytest.raises(ValueError, match="order must be >= 0"):
            log_Zj(1, -1)

    def test_oracle_spot_checks(self):
        for j, v in ((3, 2), (10, 5), (40, 17)):
            assert float(log_Zj(j, v)) == pytest.approx(log_zj_oracle(j, v), rel=1e-13)
