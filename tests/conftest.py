import pytest

from torcrys import relations
from torcrys.torep import build_doubled, build_thin
from torcrys.unity import SpecializedModule


@pytest.fixture(autouse=True)
def cold_templates(monkeypatch):
    """Every test starts from an empty relation template memo
    (`relations._TEMPLATES`), so a test that patches `relation_terms` gets
    its patched tables built, whichever tests ran before it."""
    monkeypatch.setattr(relations, "_TEMPLATES", {})


@pytest.fixture(scope="session")
def thin_3_1():
    return build_thin(3, 1, (-12, 16))


@pytest.fixture(scope="session")
def thin_3_2():
    return build_thin(3, 2, (-12, 16))


@pytest.fixture(scope="session")
def s5_small():
    return build_doubled(1, (-12, 12))


@pytest.fixture(scope="session")
def coefficient_doubled():
    """Maps a specialized module to a copy whose first nonzero
    direction-1 lowering coefficient is doubled."""
    def double(spec):
        i = 1
        src = next(idx for idx, entries in enumerate(spec.minus_edges[i])
                   if entries)
        table = list(spec.minus_edges[i])
        (dst, l, c), *rest = table[src]
        table[src] = ((dst, l, c + c), *rest)
        return SpecializedModule(spec.rs, spec.N, spec.basis, spec.index,
                                 {**spec.minus_edges, i: table},
                                 dict(spec.plus_edges), spec.rows)
    return double
