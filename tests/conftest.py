import math
import sys
from pathlib import Path

import pytest
from scipy import special

sys.path.insert(0, str(Path(__file__).parent))

from ladderlab import (
    LognormalShifted,
    WeibullShifted,
    build_chain,
    certify,
    make_growth,
)

# Bases with strictly lighter tails than exp(-g), shifted to mean -1.
CHAIN_SPECS = {
    "g1": ("g1", 2.0, lambda: LognormalShifted(0.0, 0.25, -1.0 - math.exp(0.125))),
    "g2": ("g2", 0.5, lambda: WeibullShifted(1.0, 0.6, -1.0 - special.gamma(1 + 1 / 0.6))),
    "g3": ("g3", 0.5, lambda: WeibullShifted(1.0, 0.8, -1.0 - special.gamma(1 + 1 / 0.8))),
}


@pytest.fixture(scope="session")
def numeric_build():
    """The numpy and scipy versions and the SIMD dispatch targets numpy runs
    here (its compiled targets whose CPU features are active), for the
    message of a failed digest comparison: the last bits of the integrands
    that the quadrature kernel sums, of the quantiles and of numpy's sums
    depend on all three."""
    import numpy
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    active = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    return (
        f"running numpy {numpy.__version__}, scipy {scipy.__version__}, active dispatch targets {active}; "
        "the digests were recorded with numpy 2.4.6, scipy 1.17.1 and the AVX-512 targets "
        "['X86_V4', 'AVX512_ICL', 'AVX512_SPR'] active"
    )


@pytest.fixture(scope="session")
def certified():
    """Certification reports of the three builtin families, fitted once."""
    out = {}
    for key, (family, param, _) in CHAIN_SPECS.items():
        g = make_growth({"family": family, "param": param})
        out[key] = (g, certify(g))
    return out


@pytest.fixture(scope="session")
def chains(certified):
    """Fully built construction chains for the three example families."""
    out = {}
    for key, (_, _, base_factory) in CHAIN_SPECS.items():
        g, report = certified[key]
        out[key] = build_chain(base_factory(), g, report)
    return out
