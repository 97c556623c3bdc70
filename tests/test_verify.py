import numpy as np

from nchsolver import oracles, spectral, verify


def test_all_checks_pass_on_fresh_build():
    results = verify.run_all_checks()
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_render_table_mentions_every_check():
    results = verify.run_all_checks()
    table = verify.render_table(results)
    for r in results:
        assert r.name in table
    assert f"{len(results)}/{len(results)} checks passed" in table


def test_corrupted_laplacian_sign_fails_eigenvalue_check(monkeypatch):
    good = spectral.laplacian_eigenvalues

    def corrupted(geometry):
        return -good(geometry)

    monkeypatch.setattr(spectral, "laplacian_eigenvalues", corrupted)
    result = verify.check_laplacian_eigenvalues()
    assert not result.passed


def test_reduced_precision_accumulate_fails_summation_by_parts(monkeypatch):
    def low_precision_inner(a, b):
        return float(np.sum((a * b).astype(np.float32), dtype=np.float32))

    monkeypatch.setattr(oracles, "naive_inner_product", low_precision_inner)
    result = verify.check_summation_by_parts()
    assert not result.passed
