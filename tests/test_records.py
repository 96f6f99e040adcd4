"""Value semantics of the result records: immutable named tuples.

Each record compares and hashes by its field values, shows them by name in its repr, and
refuses attribute assignment, whether to a field or to a new name.
"""

import pytest

from lucascert import (
    SeqGen,
    assemble_certificate,
    certificate_from_json,
    default_catalog,
    diffop_from_json,
    diffop_to_json,
    frobenius_shadow,
    orbit_detect,
    recurrence_from,
    series_mod_p,
    series_over_q,
    singularities,
    split_pade,
)

CAT = default_catalog()


def _fresh_apery_operator():
    # a copy with no singularity report kept on it, so each call builds a new one
    return diffop_from_json(diffop_to_json(CAT["apery"].operator))


# record name -> (fields in order, an int field to bump, a builder of a fresh record)
RECORDS = {
    "SplitWitness": (
        ("P", "p", "degree_bound", "verified_to"), "verified_to",
        lambda: split_pade(series_mod_p(CAT["g2"], 3, 60), 1, 3),
    ),
    "Certificate": (
        ("p", "level", "A", "verified_to", "height", "bound", "bound_kind", "series"), "verified_to",
        lambda: assemble_certificate(CAT["f2"], 3),
    ),
    "OrbitReport": (
        ("preperiod", "period", "level", "verified_to"), "verified_to",
        lambda: orbit_detect(series_mod_p(CAT["g2"], 3, 300), 3),
    ),
    "FrobShadow": (
        ("F", "Y", "p", "T"), "T",
        lambda: frobenius_shadow(CAT["f2"].operator, 3, 27, solution=series_over_q(CAT["f2"], 27)),
    ),
    "SingularityReport": (
        ("finite_points", "infinity", "count_r", "bad_integers"), "count_r",
        lambda: singularities(_fresh_apery_operator()),
    ),
    "Recurrence": (
        ("polys", "span"), "span",
        lambda: recurrence_from(_fresh_apery_operator()),
    ),
    # an entry with no operator: a DiffOp compares by value but has no hash
    "SeqGen": (
        ("name", "kind", "r", "operator", "initial"), "r",
        lambda: SeqGen("cy210", "cy210"),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_value_semantics(name):
    fields, bumped, build = RECORDS[name]
    a, b = build(), build()
    assert type(a).__name__ == name and a is not b
    assert a == b and hash(a) == hash(b)
    values = {f: getattr(a, f) for f in fields}
    assert type(a)(**values) == a
    assert type(a)(**{**values, bumped: values[bumped] + 1}) != a
    text = repr(a)
    assert text.startswith(f"{name}(") and all(f"{f}=" in text for f in fields)
    # a named tuple: iterable and indexable in field order
    assert tuple(a) == tuple(values.values()) and a[-1] == values[fields[-1]]
    with pytest.raises(AttributeError):
        setattr(a, fields[0], values[fields[0]])
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


@pytest.mark.parametrize("name, p", [("f2", 3), ("f2", 5), ("g3", 7), ("apery", 5), ("apery", 37)])
def test_certificate_json_round_trip_is_the_same_record(name, p):
    cert = assemble_certificate(CAT[name], p)
    assert certificate_from_json(cert.to_json()) == cert
