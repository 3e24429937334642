"""The package's records are NamedTuples: read-only, with tuple equality
and hashing, and with the defaults and checks of their fields."""

import pytest

from artinword.abc_critical import AbcWitness
from artinword.core import GroupParams, parse_word as P
from artinword.dihedral import TwoGenCriticalWitness, is_critical_2gen
from artinword.oracle import OracleConfig
from artinword.p2g import P2GWitness
from artinword.rrs import ABC, P2G_BC, Rrs, TraceEvent, apply_rrs, check_rrs

N5 = GroupParams(5)
RECORD_TYPES = (GroupParams, OracleConfig, TwoGenCriticalWitness,
                P2GWitness, AbcWitness, TraceEvent, Rrs)


def sample_records() -> dict[type, tuple]:
    """One record of each type, taken from Example 4.3 where it can be."""
    rrs = check_rrs(P("bcbcabacbcB"), (0, 7, 10, 10), (ABC, P2G_BC), N5)
    _, events = apply_rrs(rrs, N5, want_trace=True)
    (_, _, abc), (_, _, p2g) = rrs.us[:2]
    records = [N5, OracleConfig(slack=2),
               is_critical_2gen(P("abbbA"), "ab", N5), p2g, abc,
               events[0], rrs]
    return {type(r): r for r in records}


SAMPLES = sample_records()


def test_samples_cover_every_record():
    assert set(SAMPLES) == set(RECORD_TYPES)


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda c: c.__name__)
def test_fields_are_read_only(cls):
    record = SAMPLES[cls]
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda c: c.__name__)
def test_equal_fields_equal_and_hash_equal(cls):
    record = SAMPLES[cls]
    copy = cls(*record)
    assert copy is not record
    assert copy == record and hash(copy) == hash(record)
    assert record == tuple(record) and len(record) == len(cls._fields)


def test_defaults():
    assert GroupParams() == GroupParams(5) and GroupParams().n == 5
    assert not GroupParams().allow_small_n
    assert OracleConfig().slack == 4
    assert OracleConfig().node_cap == 5_000_000
    wit = SAMPLES[P2GWitness]
    assert P2GWitness(*wit[:7]).hat_witness is None


@pytest.mark.parametrize("kwargs", [{"slack": -1}, {"node_cap": 0}])
def test_oracle_config_rejects(kwargs):
    with pytest.raises(ValueError):
        OracleConfig(**kwargs)
