import hashlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from trafficast import rng
from trafficast.rng import derive_seed, uniform_stream

import reference

# Stream lengths where the generator changes how it blocks its counters
# (4 doubles each): one least block, two, the first length whose block is
# a share of the counters, the first whose block is the most, and one more
# block past that.
BLOCK_EDGES = [
    4 * rng._MIN_BLOCK,
    8 * rng._MIN_BLOCK,
    4 * rng._MIN_BLOCK * rng._BLOCK_SHARE,
    4 * rng._MAX_BLOCK * rng._BLOCK_SHARE,
    4 * rng._MAX_BLOCK * (rng._BLOCK_SHARE + 1),
]
LENGTHS = st.one_of(
    st.integers(0, 3),
    st.integers(1, 40).flatmap(lambda k: st.sampled_from([4 * k - 1, 4 * k, 4 * k + 1])),
    st.builds(lambda edge, d: edge + d, st.sampled_from(BLOCK_EDGES), st.integers(-5, 5)),
    st.integers(0, 20_000),
)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**66), n=LENGTHS)
@example(seed=0, n=0)
@example(seed=2**64 - 1, n=5)
@example(seed=2**64, n=4 * rng._MIN_BLOCK + 1)
def test_uniform_stream_is_numpys_philox(seed, n):
    assert uniform_stream(seed, n).tobytes() == reference.philox_uniforms(seed, n).tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(-(2**70), 2**70), label=st.text())
@example(seed=42, label="dataset-A")
def test_derive_seed_is_hashlibs_blake2b(seed, label):
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    assert derive_seed(seed, label) == int.from_bytes(digest, "big")
