import json

import pytest

from gliderbs import jsonio
from gliderbs.errors import SchemaError
from gliderbs.gbs import realize_field_element
from gliderbs.glider import negative_part
from gliderbs.rank2 import realize_z2


def test_filtration_roundtrip(f5, fa_m2, f23):
    for filt in (f5, f23, fa_m2):
        enc = jsonio.encode_filtration(filt)
        text = jsonio.dumps(enc)
        kind, again = jsonio.detect_and_load(text)
        assert kind == "filtration"
        assert jsonio.encode_filtration(again) == enc
        assert jsonio.roundtrip(text)


def test_glider_roundtrip(f5, fa_m2):
    from gliderbs.gbs import BsPoint, realize_csa_element
    from gliderbs.fields import QQ_FIELD

    fe = QQ_FIELD.from_int
    gliders = [negative_part(f5), realize_field_element(f5, -2),
               realize_csa_element(fa_m2, BsPoint([fe(1), fe(2)]), 1)]
    for g in gliders:
        enc = jsonio.encode_glider(g)
        text = jsonio.dumps(enc)
        kind, again = jsonio.detect_and_load(text)
        assert kind == "glider"
        assert again == g
        assert jsonio.roundtrip(text)


def test_z2_roundtrip():
    g = realize_z2((1, -1))
    text = jsonio.dumps(jsonio.encode_z2(g))
    kind, again = jsonio.detect_and_load(text)
    assert kind == "z2-glider" and again == g
    assert jsonio.roundtrip(text)


def test_lattice_roundtrip(b_m2):
    text = jsonio.dumps(jsonio.encode_lattice(b_m2))
    kind, again = jsonio.detect_and_load(text)
    assert kind == "lattice" and again == b_m2


def test_noncanonical_rows_become_canonical(b_m2):
    enc = jsonio.encode_lattice(b_m2)
    enc["rows"] = [["5", "0", "0", "0"]] + enc["rows"]
    kind, lat = jsonio.detect_and_load(json.dumps(enc))
    assert lat == b_m2
    # second parse of the printed form is a fixed point
    assert jsonio.roundtrip(jsonio.dumps(jsonio.encode_lattice(lat)))


def test_unknown_keys_rejected(f5):
    enc = jsonio.encode_filtration(f5)
    enc["surprise"] = 1
    with pytest.raises(SchemaError):
        jsonio.loads_filtration(enc)


def test_wrong_schema_rejected(f5):
    enc = jsonio.encode_filtration(f5)
    enc["schema"] = "gbs/0"
    with pytest.raises(SchemaError):
        jsonio.loads_filtration(enc)


def test_tail_schema_errors(f5):
    enc = jsonio.encode_glider(negative_part(f5))
    for tail in ({"kind": "geometric"}, {"kind": "multiply"}):
        enc["tail"] = tail
        with pytest.raises(SchemaError):
            jsonio.loads_glider(enc)
    grid = jsonio.encode_z2(realize_z2((0, 0)))
    grid["tailI"] = {"kind": "multiply"}
    with pytest.raises(SchemaError):
        jsonio.loads_z2(grid)


def test_truncated_json_has_position():
    with pytest.raises(SchemaError) as err:
        jsonio.detect_and_load('{"schema": "gbs/1", "phi": ')
    assert "line" in str(err.value)


def test_dumps_deterministic(fa_m2):
    a = jsonio.dumps(jsonio.encode_filtration(fa_m2))
    b = jsonio.dumps(jsonio.encode_filtration(fa_m2))
    assert a == b


def test_extension_declared_ef_checked():
    obj = {"schema": "gbs/1", "minpoly": "t^2+1",
           "valuation": {"over": "5", "kind": "split", "factor": "2+i",
                         "e": 2}}
    with pytest.raises(SchemaError):
        jsonio.loads_extension(obj)
    obj["valuation"]["e"] = 1
    assert jsonio.loads_extension(obj).e == 1
