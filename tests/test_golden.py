"""Golden outputs: norms and reports pinned to digests recorded earlier.

Each digest is a sha256 over text the library prints, so any change to a
computed norm or to a report shows up here, whatever path computed it.
To re-record after an intended change of output, run this file as a
script from the repository root (``PYTHONPATH=src python
tests/test_golden.py``) and paste what it prints.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from tensornorm import SplitMix64, parse_field_setup, tensor_norm
from tensornorm.cli import main
from tensornorm.generators import gen_tensor_elem

from conftest import scenario

FIELDS = str(Path(__file__).resolve().parents[1] / "demos" / "fields.cfg")

# (p, base, K variables, L variables) -> sha256 of the norms of z, w, z*w,
# z+w and z-z over 20 generated pairs, one norm per line; base 2 unfolds
# level-4 coefficients over the level-2 subfield, base 1 over GF(p); the
# last two sides have coprime exponent denominators (5 against 14)
NORM_DIGESTS = {
    (2, "closure", "t:-1", "u:-1"): "8c92c8e9ca894ac9c22bcf9942d308ab2bdb8ab1a52b988a66c26f290e25d57e",
    (2, "closure", "t:-1 s:-1/2", "u:-1 v:1/3"): "26fd6e4282703c5aa45e9c7917bab3fed7eaaf2f0b987be16c83eebd2c8dcb8d",
    (2, "1", "t:-1", "u:-1/2"): "7fe8cc8138704337f0502c5dfb47908fad9f278ba89aaa0ed0e9d3f23d86ff50",
    (2, "1", "t:-1 s:1/2", "u:-1 v:-1"): "d2e03f050aeadba34a55bc8579006ee105fc9d5be5b462fa33caa695c14ecf4c",
    (3, "closure", "t:-1", "u:1/3"): "a406df743a74990e598fe516f107b40222b05b6fdc10897aa8ba1922ec75c666",
    (3, "closure", "t:-1 s:-1", "u:-1 v:-1/2"): "5690ac468029211d8b734e679be1bece1cda84f2b4a712dcfcc722b248290542",
    (3, "1", "t:-1/2", "u:-1"): "bf65d735cfff2fe32c950cf9d039d330cc3c9904c2f9a49ee6c5108c07a8e1cd",
    (3, "1", "t:-1 s:-1/3", "u:1/2 v:-1"): "d7b6303f6760ce5070d74d2694e4b19f34368d65ad1b1473cea40ed7ff5d6557",
    (2, "2", "t:-1 s:1/2", "u:-1"): "540b94c5f4337c99e931c4f9099012f6d06bba184a1bcd0c57f39e72e938cba7",
    (3, "2", "t:-1/2", "u:-1 v:1/3"): "940ee426a0712b64638e1aab4a4529e12e3b7eb96f0f88841123b7d488d7806e",
    (2, "closure", "t:2/5", "u:-3/7 v:1/2"): "1944a8924f30b710f1f5ff6710b558afc6f68f2e5cc3adbd594fef0177582c15",
    (3, "1", "t:2/5", "u:-3/7 v:1/2"): "f8b91e5f0e166df5d39a0785e332a9f85b569aa080b26cbaaedaf83b339782d3",
}

# (command, element) -> sha256 of its stdout on demos/fields.cfg
REPORT_DIGESTS = {
    ("norm", "t (x) 1 + 1 (x) u"): "d28229002b5423ebc05ca4dcfd2d21d57393580734520e4bbc0dca0962814a25",
    ("norm", "(1 + t) (x) u + t^2 (x) (u + u^3) + (t/(1 + t)) (x) 1"): "7cbcb0255865c8a09bf79bbea0840cf671466b0473ff317ff9b2393335d0fd99",
    ("reduce", "(1 + t) (x) u + 1 (x) u^2 + t (x) (1 + u)"): "f259a8491527fb8cebdd606ed364a6cc6670dadcaf156a262acf7fd8e7e7e1ea",
    ("decompose", "t (x) 1 + 1 (x) u + (t + t^2) (x) u^2"): "61944579f8f2bdddac02ef261e1847584196ac35035d5f8492d689ac43ec3473",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def norm_digest(p, base, k_vars, l_vars):
    setup = parse_field_setup(f"p {p}\nlevels 4\nbase {base}\nK {k_vars}\nL {l_vars}\n")
    rng = SplitMix64(1000 * p + len(k_vars) + len(l_vars))
    sc = scenario(p=p, max_terms=3, max_degree=3)
    norms = []
    for _ in range(20):
        z = gen_tensor_elem(setup, sc, rng)
        w = gen_tensor_elem(setup, sc, rng)
        norms.extend(str(tensor_norm(e)) for e in (z, w, z * w, z + w, z - z))
    return _sha("\n".join(norms))


def report_digest(command, element):
    fields = [FIELDS] if command == "norm" else ["--fields", FIELDS]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, *fields, element])
    assert code == 0
    return _sha(out.getvalue())


@pytest.mark.parametrize("case", sorted(NORM_DIGESTS), ids=lambda c: "-".join(
    (str(c[0]), c[1], str(len(c[2].split())), str(len(c[3].split())))))
def test_norms_match_recorded_digests(case):
    assert norm_digest(*case) == NORM_DIGESTS[case]


@pytest.mark.parametrize("case", list(REPORT_DIGESTS),
                         ids=[f"{c}-{i}" for i, (c, _) in enumerate(REPORT_DIGESTS)])
def test_reports_match_recorded_digests(case):
    assert report_digest(*case) == REPORT_DIGESTS[case]


if __name__ == "__main__":
    for case in NORM_DIGESTS:
        print(f"    {case!r}: {norm_digest(*case)!r},")
    for case in REPORT_DIGESTS:
        print(f"    {case!r}: {report_digest(*case)!r},")
