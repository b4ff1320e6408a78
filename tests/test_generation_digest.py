"""Byte-identity guard: ``generate`` output pinned by sha256 digest.

The digests were recorded from the whole-array generators, before they
drew Levy paths in row blocks, so any change to a random stream or to the
order of the floating-point operations shows up here.  The sizes on the
64-point grid straddle one block of 256 KiB (512 rows) and one of the
earlier 1 MiB (2048 rows): below, exactly one and not a multiple of the
block rows.  Those digests do not depend on the block size, so the
256 KiB cases were recorded with 1 MiB blocks.  Every case is drawn by
``generate``, on the calling thread, and streamed by ``sample_blocks``
at one and at two threads, where a subordinated ensemble of several
blocks draws its next clock block on a helper thread.
"""

import hashlib

import numpy as np
import pytest

import idtlab.processes as proc
from idtlab.kernels import FBmKernel, SpectralKernel, SpectralMeasure
from idtlab.processes import (
    AdditiveTimeChange,
    Brownian,
    CompoundPoisson,
    GammaSubordinator,
    GaussianKernel,
    Mixture,
    PowerLine,
    StableLine,
    StableMotion,
    Subordinated,
    TimeGrid,
    WeightedSubordinator,
    generate,
    sample_blocks,
)
from idtlab.randkit import RngState

GRID = TimeGrid([0.5, 1.0, 2.0])
GRID0 = TimeGrid([0.0, 0.5, 1.0, 2.0])  # t = 0 gives a zero-dt column
GRID64 = TimeGrid(np.geomspace(0.0625, 4.0, 64))

GAMMA_CLOCK = AdditiveTimeChange(GammaSubordinator(1.0, 1.0), 0.7)
NESTED_CLOCK = Subordinated(GammaSubordinator(2.0, 2.0), GAMMA_CLOCK)
SUBORDINATED = Subordinated(Brownian(1.0, 0.0), GAMMA_CLOCK)
# a volatility and a gamma rate other than 1 scale every block
SCALED = Subordinated(Brownian(0.7, 0.2), AdditiveTimeChange(GammaSubordinator(0.8, 2.0), 0.7))

# id -> (spec, grid, n_paths)
CASES = {
    "stable_line": (StableLine(1.5), GRID, 2000),
    "power_line_t0": (PowerLine(0.7), GRID0, 2000),
    "fbm_t0": (GaussianKernel(FBmKernel(0.3)), GRID0, 2000),
    "spectral": (
        GaussianKernel(SpectralKernel(1.2, SpectralMeasure.symmetric(((0.0, 0.5), (1.5, 0.5))))),
        GRID, 2000,
    ),
    "additive_brownian_t0": (AdditiveTimeChange(Brownian(1.0, 0.3), 0.7), GRID0, 2000),
    "additive_brownian_no_drift": (AdditiveTimeChange(Brownian(1.0, 0.0), 1.4), GRID, 2000),
    "additive_brownian_no_volatility": (AdditiveTimeChange(Brownian(0.0, 0.5), 1.0), GRID0, 500),
    "additive_brownian_scaled": (AdditiveTimeChange(Brownian(0.7, 0.2), 0.7), GRID, 2000),
    "additive_stable_t0": (AdditiveTimeChange(StableMotion(1.5), 0.7), GRID0, 2000),
    "additive_one_sided_stable": (AdditiveTimeChange(StableMotion(0.5, 1.0), 0.5), GRID, 2000),
    "additive_gamma_t0": (AdditiveTimeChange(GammaSubordinator(0.8, 2.0), 0.7), GRID0, 2000),
    "additive_compound_poisson_t0": (
        AdditiveTimeChange(CompoundPoisson(2.0, -0.5, 0.3), 0.7), GRID0, 2000,
    ),
    "additive_compound_poisson_no_sd": (
        AdditiveTimeChange(CompoundPoisson(1.5, 0.5, 0.0), 1.0), GRID, 2000,
    ),
    "additive_gamma_m64_below_block": (GAMMA_CLOCK, GRID64, 1000),
    "additive_gamma_m64_one_block": (GAMMA_CLOCK, GRID64, 2048),
    "additive_gamma_m64_ragged": (GAMMA_CLOCK, GRID64, 5000),
    "subordinated_m64_below_block": (SUBORDINATED, GRID64, 1000),
    "subordinated_m64_one_block": (SUBORDINATED, GRID64, 2048),
    "subordinated_m64_ragged": (SUBORDINATED, GRID64, 5000),
    "subordinated_m64_below_256k_block": (SUBORDINATED, GRID64, 300),
    "subordinated_m64_one_256k_block": (SUBORDINATED, GRID64, 512),
    "subordinated_m64_ragged_256k": (SUBORDINATED, GRID64, 1300),
    "subordinated_scaled_m64": (SCALED, GRID64, 1300),
    "subordinated_t0": (Subordinated(Brownian(1.0, 0.3), GAMMA_CLOCK), GRID0, 2000),
    "subordinated_gamma": (Subordinated(GammaSubordinator(0.5, 1.0), GAMMA_CLOCK), GRID64, 5000),
    "subordinated_nested_clock": (Subordinated(Brownian(1.0, 0.2), NESTED_CLOCK), GRID64, 5000),
    "subordinated_stable": (Subordinated(StableMotion(1.5), GAMMA_CLOCK), GRID0, 2000),
    "subordinated_compound_poisson": (
        Subordinated(CompoundPoisson(2.0, 0.5, 0.3), GAMMA_CLOCK), GRID, 2000,
    ),
    "subordinated_identity_clock": (
        Subordinated(Brownian(1.0, 0.0), AdditiveTimeChange(Brownian(0.0, 1.0), 1.0)), GRID0, 2000,
    ),
    "subordinated_mixture_clock": (
        Subordinated(Brownian(1.0, 0.0), Mixture(GAMMA_CLOCK, ((1.0, 0.5), (2.0, 0.5)))), GRID, 2000,
    ),
    "subordinated_weighted_clock": (
        Subordinated(
            Brownian(1.0, 0.0), WeightedSubordinator(GammaSubordinator(1.0, 1.0), ((1.0, 0.5), (3.0, 0.5)), 0.7)
        ),
        GRID, 2000,
    ),
    "mixture_fbm": (Mixture(GaussianKernel(FBmKernel(0.3)), ((1.0, 0.5), (2.0, 0.5))), GRID, 2000),
    "mixture_gamma_clock": (Mixture(GAMMA_CLOCK, ((1.0, 0.25), (1.5, 0.75))), GRID0, 2000),
    "weighted_gamma_m64": (
        WeightedSubordinator(GammaSubordinator(1.0, 1.0), ((1.0, 0.5), (3.0, 0.5)), 0.7), GRID64, 5000,
    ),
    "weighted_one_sided_stable": (
        WeightedSubordinator(StableMotion(0.5, 1.0), ((1.0, 0.5), (2.0, 0.5)), 0.6), GRID, 2000,
    ),
}

# sha256 of the shape's repr and the little-endian values, recorded before
# blocking (the 256 KiB and scaled cases: with 1 MiB blocks)
DIGESTS = {
    "stable_line": "a85d2e55518946efa9b74234867d96e334a093d812b60a74d412110f7d1f9800",
    "power_line_t0": "9cbfe00f7b4e789956980e1c3539c2d272c3693f4e59c5ffcc10dc63bba947ba",
    "fbm_t0": "c7dd441293f71b5f79f46d36f1611ebcf5158caad99b8e55323df995c0a737ba",
    "spectral": "0d8390d862302997d5787f934cee536348028e4f9ea99f53ee5fa0404242fd7b",
    "additive_brownian_t0": "b8b2d9452ae60d0f765a849073d95c682789b1a2dff0a6a73639b62662ef4203",
    "additive_brownian_no_drift": "c989b0601df5ded5ff664d3ef1a737a00d4adf910e55a0902526a10dbc5577e2",
    "additive_brownian_no_volatility": "a13491c752278008d6309f9511a57ac3674f365de8f60b92c33ee2f116d519a8",
    "additive_brownian_scaled": "d36895070ae5f47b04206a9dc846277b1a146006be33b16174e9ac4a86c9498e",
    "additive_stable_t0": "125344ac4b9a8de65b65fae913918078cfca1c2513614dc958b0b23fdd9c3b16",
    "additive_one_sided_stable": "011a16db089a76237ba44465b9ff9b67577dbcef1dfaeb9cdcb39a874898a86d",
    "additive_gamma_t0": "0b190ddb0eef82769b34481e247ced599cc9d905ea4aaf360d452cf4f11578b9",
    "additive_compound_poisson_t0": "a9144b579b6116dd26acb4de3570b3d3c63eb9676565a0002ab478a670e122bb",
    "additive_compound_poisson_no_sd": "f9686b044c2c2d602ba7f156594512babca31436dd3dfdf20eeaf99799ee86c7",
    "additive_gamma_m64_below_block": "b33cbf3bf140f02431b4073c63ac3d3710c5104dd18eadb35f3beccf6524c18b",
    "additive_gamma_m64_one_block": "f7ff5f0a39f95dc3748c3b4a8826144c4568632c1d8a554ff4b9636df904345d",
    "additive_gamma_m64_ragged": "356b7a69fa553ab5775d777ec44734a77ddc775f0e158b409323a0e46405af99",
    "subordinated_m64_below_block": "935588557c9a2825056319a67faa1a6265f42c1528fffc983594915a6e33aca6",
    "subordinated_m64_one_block": "372e55a8270e8d6cf025cde1eb4a6f192f020fcd0ab2acb7ec71c4609c41d3ce",
    "subordinated_m64_ragged": "e0546f0c757a7ef9729398564d67df8c895abcd5c5e9f5c05272c33c030b90f7",
    "subordinated_m64_below_256k_block": "4e2a484c7f87078d14d5f1919cccce9944f660d9240501d0a2bfb97b88f705e1",
    "subordinated_m64_one_256k_block": "53928f074dfb365a51a65caca6c0c0bcf2e3d8b3a25faf43b2e5956e3582f315",
    "subordinated_m64_ragged_256k": "199131e0711a8c187ae715ec55e53f088534f216db7ba252cdcc99e3a6d77171",
    "subordinated_scaled_m64": "f82315aa9bd6b5a8ae5bfe6209b673b6f7737f6328dcab3fcfc630413873ad07",
    "subordinated_t0": "6c95d0db14938acb323eed72a3265f5afc35ad5e6c6a9d66b16d43620ace2f90",
    "subordinated_gamma": "eabca3a46c7105cf692fb9834f2757a2f7502de7dc54fabb4ba1369326dbd45f",
    "subordinated_nested_clock": "6a8c2c78dd6693e624f669a9ed6e5a05f6ba41fd6bd9673adb154edb1ccece88",
    "subordinated_stable": "42bc0a68789c03cd748f1b3a441b54b6c864aa4b3b96e222d746fd6b8c9f3aef",
    "subordinated_compound_poisson": "a067cfb56c56f6f43ffbd61a20607655a6edda496523368ec66dea774c234798",
    "subordinated_identity_clock": "ca323cf58abd815f87443d1cce4ed2031f5542367dbd9a11aad871fd88857c4d",
    "subordinated_mixture_clock": "a68838c47c9995257d90c9233bfbbd3b5daf691c242b7f6eac173257a1e440bf",
    "subordinated_weighted_clock": "ba1c36e498cb845798ad9f05bdcb50ca143e9069c164a1213612c67476d7f7d4",
    "mixture_fbm": "4c05f9ac04acdc0921df71b308726d5db9e1c10713cbbd875d9e79f18abdc0ad",
    "mixture_gamma_clock": "f046e90b7e02f2222478f441c54b3a9aabf98c5028cf64ae5b51507251ff1307",
    "weighted_gamma_m64": "1cecdbe3d862ef1465e47dcf205fd4efac3a81c0c28eaf2196953f0082f225a3",
    "weighted_one_sided_stable": "865dfb0d02d074c99fe01722580961385ddba9941ea76b629b3a79bf5b5cbe3b",
}

BLOCKED = [
    "additive_brownian_t0",
    "additive_gamma_t0",
    "additive_gamma_m64_ragged",
    "subordinated_m64_ragged",
    "subordinated_scaled_m64",
    "subordinated_t0",
    "subordinated_gamma",
    "subordinated_identity_clock",
    "weighted_gamma_m64",
]


def _values(case_id, threads=None):
    """The case's values from ``generate``, or from ``sample_blocks(..., threads)`` copied block by block."""
    spec, grid, n_paths = CASES[case_id]
    if threads is None:
        return generate(spec, grid, n_paths, RngState(20261018, 7)).values
    _, blocks = sample_blocks(spec, grid, n_paths, RngState(20261018, 7), threads)
    return np.concatenate([block.copy() for block in blocks])


def _digest(values) -> str:
    h = hashlib.sha256(repr(values.shape).encode("ascii"))
    h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_generate_matches_pinned_digest(case_id):
    for threads in (None, 1, 2):
        assert _digest(_values(case_id, threads)) == DIGESTS[case_id]


def test_block_sizes_straddle_the_pinned_cases():
    rows = proc._BLOCK_BYTES // (8 * len(GRID64))
    sizes = sorted({n for spec, grid, n in CASES.values() if spec == SUBORDINATED})
    # 1000, 2048 and 5000 straddle the 1 MiB blocks of 2048 rows
    assert sizes == [300, rows, 1000, 1300, 2048, 5000]
    assert 1300 % rows != 0 and 5000 % 2048 != 0


@pytest.mark.parametrize("case_id", BLOCKED)
def test_tiny_blocks_give_the_same_bytes(case_id, monkeypatch):
    whole = _values(case_id)
    _, grid, _ = CASES[case_id]
    monkeypatch.setattr(proc, "_BLOCK_BYTES", 8 * len(grid) * 7)  # 7 rows a block
    for threads in (None, 1, 2):
        assert np.array_equal(_values(case_id, threads), whole, equal_nan=True)
        assert _digest(_values(case_id, threads)) == DIGESTS[case_id]
