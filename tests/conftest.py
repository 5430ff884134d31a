import pytest

from gradedalg.fields import PrimeField
from gradedalg.presets import preset_run


@pytest.fixture(scope="session")
def preset_report():
    """Session-wide cache so each (possibly expensive) preset runs once."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = preset_run(name)
        return cache[name]

    return get


def check_named(report, check_name):
    for c in report["checks"]:
        if c["check"] == check_name:
            return c
    raise AssertionError(f"{report['name']} has no check {check_name!r}; "
                         f"has {[c['check'] for c in report['checks']]}")


def pscale(ring, c, p):
    """The polynomial c * p of the ring, coefficient by coefficient."""
    F = ring.field
    z = F.zero()
    if c == z:
        return {}
    return {m: F.mul(c, v) for m, v in p.items()}


def densified(field, vec, n):
    """A length-n vector as a list, checked to be in its field's format.

    vec is a list, or a vector as the library hands it out: over GF(2) an
    int whose bit c is column c, over every other field a
    {column: nonzero value} dict.  Comparing the lists compares the
    vectors exactly, and a bit or key outside 0..n-1, a stored zero or a
    vector in the other field's format fails here.
    """
    if isinstance(vec, list):
        assert len(vec) == n
        return vec
    packed = field == PrimeField(2)
    if isinstance(vec, int):
        assert packed and 0 <= vec < 1 << n, (field, vec, n)
        return [vec >> c & 1 for c in range(n)]
    assert not packed and isinstance(vec, dict), (field, vec)
    z = field.zero()
    assert all(0 <= c < n and x != z for c, x in vec.items()), (vec, n)
    return [vec.get(c, z) for c in range(n)]


def left_action_reference(module, p, n):
    """p times each basis vector (s, b) of module in codegree n, with p on
    the left: ring.pmul(p, b) in slot s, placed by the free module's
    coords_of and reduced in module codegree n + |p|.  The reference for
    the one side convention of the module products."""
    ring, free = module.ring, module.free
    m = n + ring.poly_codegree(p)
    target = module.component(m)
    one = ring.field.one()
    return [target.reduce(free.coords_of({s: ring.pmul(p, {b: one})}, m))
            for s, b in module.component(n).basis]
