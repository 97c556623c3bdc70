"""The working set of a run: how many N x N arrays each scheme holds at its peak.

The measure is the traced peak (``tracemalloc``) of a ``driver.run`` of the
benchmark problem (Gaussian kernel cJ = 130, xi = 10, 3 images, eps = 1,
tau = 1e-4, a random field of amplitude 0.05 from seed 7, ``record_every``
1), less the traced memory before the call, in units of one N x N float64
array, 8 N^2 bytes.  A complex half spectrum counts about 1, a real one
about 1/2.  Each bound is the count measured at N = 128 over 6 steps,
rounded up to the next 0.25, so a step that holds an array past its last
read fails it.

Run as a script, it prints each scheme's count at N = 512 over 10 steps,
with no bound: ``python tests/test_working_set.py``.
"""

import tracemalloc

import pytest

from nchsolver import (GridGeometry, KernelSpec, RunOptions, SchemeConfig, make_cache,
                       random_initial_field, run, sample_kernel)

BOUNDS = {"backward_euler": 14.5, "bdf2": 16.5, "convex_splitting": 15.5, "two_li": 12.75,
          "ssi1": 10.25}


def working_set(scheme: str, n: int, steps: int) -> float:
    """Traced peak of a ``steps``-step run of ``scheme`` at N = ``n``, above the memory before it.

    In N x N float64 arrays.
    """
    geometry = GridGeometry(n, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0, 3), geometry)
    cache = make_cache(geometry)
    u0 = random_initial_field(geometry, 0.0, 0.05, seed=7)
    cfg = SchemeConfig(scheme, 1e-4, 1.0, stabilization=5.5 if scheme == "ssi1" else 0.0, cutoff=2.0)
    run(u0, cfg, kernel, cache, RunOptions(max_steps=2))  # u0's spectrum and first-call work, untraced
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = run(u0, cfg, kernel, cache, RunOptions(max_steps=steps, record_every=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert result.termination == "max_steps", result.error_detail
    return (peak - before) / (8 * n * n)


@pytest.mark.parametrize("scheme", sorted(BOUNDS))
def test_a_run_holds_no_array_past_its_last_read(scheme):
    assert working_set(scheme, 128, 6) <= BOUNDS[scheme]


if __name__ == "__main__":
    for scheme in BOUNDS:
        print(f"{scheme:17s} {working_set(scheme, 512, 10):6.2f} N^2 arrays at N = 512, 10 steps")
